"""The bounded record log: every history the program keeps.

A :class:`RecordLog` keeps the newest ``bound`` records of an
append-only history and ``total``, the count of every record ever
appended.  It is a ``list``, so every reader of the list it replaced
(iteration, ``reversed``, slices, ``==`` against a list, ``sort``)
reads it unchanged; a count of what happened reads ``total``, never
``len``.  Past the bound, each append drops the oldest record.

Two logs exist once per node (an agent's failed monitors and the
server's console archive), so a fresh log must cost what the ``[]`` it
replaced cost.  The bound therefore lives on the class:
``RecordLog(bound)`` is an instance of the one subclass made for that
bound, and ``total`` is the only field an instance adds.
An empty log is then one 64-byte allocator block, as ``[]`` is (56
bytes rounded up to the allocator's 16-byte alignment; 64 bytes for
the log).  DESIGN.md "Bounds" lists every log's bound.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

__all__ = ["RecordLog"]


class RecordLog(list):
    """The newest ``bound`` records appended, oldest first, and their
    ``total``.  Append with :meth:`append` or :meth:`extend`; other
    list mutators neither trim nor count."""

    __slots__ = ("total",)
    #: records kept (a class attribute: see the module docstring).
    bound = 0

    def __new__(cls, bound: int) -> "RecordLog":
        return list.__new__(_with_bound(bound))

    def __init__(self, bound: int) -> None:
        super().__init__()
        #: records ever appended, the dropped ones included.
        self.total = 0

    def append(self, record: object) -> None:
        list.append(self, record)
        self.total += 1
        if len(self) > self.bound:
            del self[0]

    def extend(self, records: Iterable[object]) -> None:
        before = len(self)
        list.extend(self, records)
        self.total += len(self) - before
        if len(self) > self.bound:
            del self[:len(self) - self.bound]

    def copy(self) -> "RecordLog":
        """A log of the same bound, records and total."""
        log = RecordLog(self.bound)
        list.extend(log, self)
        log.total = self.total
        return log


@cache
def _with_bound(bound: int) -> type:
    """The :class:`RecordLog` subclass for ``bound``, made once: bounds
    are module constants and a federation's sums of them, a handful."""
    if bound < 1:
        raise ValueError(f"a record log keeps at least one record: {bound}")
    return type(RecordLog.__name__, (RecordLog,),
                {"__slots__": (), "bound": bound,
                 "__module__": RecordLog.__module__,
                 "__qualname__": RecordLog.__qualname__})
