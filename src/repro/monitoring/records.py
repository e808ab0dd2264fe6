"""The typed monitoring delta record shared by every layer.

:class:`Update` is the value that replaces bare ``(hostname, t, dict)``
triples end-to-end: agents emit it, the wire carries its values, the
server's state store applies it, subscribers receive it.  It lives here
— in the monitoring layer, below the server — because the *producers*
sit lowest in the stack: a node agent must be able to construct one
without dragging in the tier-2 server (that upward import was exactly
the layering violation WORX101 now forbids).  The store re-exports it
from :mod:`repro.core.statestore` for consumers that think in tier-2
terms.

The module is deliberately dependency-free (stdlib only) so every layer
of the stack can import the type without cycles.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from types import MappingProxyType
from typing import Mapping

__all__ = ["Update", "Sample"]


class Update:
    """One typed monitoring delta: who, when, what, from where.

    ``values`` is frozen at construction (a mapping proxy over a private
    copy), so an Update can be fanned out to any number of subscribers
    and stored without defensive copying.  The record is immutable like
    a frozen dataclass — same constructor, fields, equality and repr —
    but built on the per-update path, so its fields are slots written
    once through their descriptors, with no per-field ``__setattr__``.
    """

    __slots__ = ("hostname", "time", "values", "source", "seq")

    hostname: str
    time: float
    values: Mapping[str, object]
    source: str
    seq: int

    def __init__(self, hostname: str, time: float,
                 values: Mapping[str, object], source: str = "agent",
                 seq: int = 0) -> None:
        _set_hostname(self, hostname)
        _set_time(self, time)
        _set_values(self, MappingProxyType(dict(values)))
        _set_source(self, source)
        _set_seq(self, seq)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.hostname, self.time, self.values, self.source,
                 self.seq)
                == (other.hostname, other.time, other.values,
                    other.source, other.seq))

    #: unhashable, as the frozen dataclass was (its values proxy is).
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Update(hostname={self.hostname!r}, time={self.time!r}, "
                f"values={self.values!r}, source={self.source!r}, "
                f"seq={self.seq!r})")

    def __len__(self) -> int:
        return len(self.values)


_set_hostname, _set_time, _set_values, _set_source, _set_seq = (
    getattr(Update, name).__set__ for name in Update.__slots__)


#: A sample *is* an update — the agent-side name for the same value.
Sample = Update
