"""The escalation ladder: which channels to try, in which order.

Each rung names a :class:`~repro.resilience.orchestrator.
RecoveryChannels` callable.  The ladder is the whole recovery policy:
the orchestrator tries every rung once, bounded by the rung's
``timeout``, and a rung that fails hands over to the next.  The default
ladder follows the paper's toolbox bottom-up — cheapest,
least-destructive first:

=========== ===========================================
rung        what it does
=========== ===========================================
probe       in-band ping via the TaskEngine fan-out
ice_reset   hardware reset line through the ICE Box
power_cycle outlet power cycle through the ICE Box
reclone     multicast reclone + reboot (§4)
quarantine  drain from SLURM + smart-notification email
=========== ===========================================

``verify`` rungs are only credited once the node actually reaches the
``up`` state again within the orchestrator's verify window — an ICE Box
happily reports ``OK`` for a power cycle of a board whose CPU burned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Rung", "DEFAULT_PLAYBOOK", "RUNG_NAMES"]


@dataclass(frozen=True)
class Rung:
    """One escalation step of a recovery playbook."""

    name: str       #: RecoveryChannels attribute to invoke
    verify: bool    #: require the node back ``up`` before crediting
    terminal: bool = False  #: rung ends the playbook regardless
    #: bound on the rung's one attempt, in sim seconds.  A reclone
    #: legitimately takes minutes while a probe takes seconds.
    timeout: float = 30.0


#: the standard ladder, least destructive first.
DEFAULT_PLAYBOOK: Tuple[Rung, ...] = (
    Rung("probe", verify=False),
    Rung("ice_reset", verify=True),
    Rung("power_cycle", verify=True),
    Rung("reclone", verify=True, timeout=1800.0),
    Rung("quarantine", verify=False, terminal=True),
)

RUNG_NAMES: List[str] = [rung.name for rung in DEFAULT_PLAYBOOK]
