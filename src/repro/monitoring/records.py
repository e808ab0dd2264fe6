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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

__all__ = ["Update", "Sample"]


@dataclass(frozen=True)
class Update:
    """One typed monitoring delta: who, when, what, from where.

    ``values`` is frozen at construction (a mapping proxy over a private
    copy), so an Update can be fanned out to any number of subscribers
    and stored without defensive copying.
    """

    hostname: str
    time: float
    values: Mapping[str, object]
    source: str = "agent"
    seq: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values",
                           MappingProxyType(dict(self.values)))

    def __len__(self) -> int:
        return len(self.values)


#: A sample *is* an update — the agent-side name for the same value.
Sample = Update
