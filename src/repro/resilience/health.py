r"""Per-node health state machine driven by monitoring staleness.

The paper's monitoring loop exists to *act* (§5.2); acting safely needs
a considered opinion about each node that is stickier than any single
missed packet.  The tracker folds two evidence sources into one state:

* **staleness** — how long since the node's *agent* (tier 1) last
  transmitted.  Sweep echoes deliberately do not count: the server's own
  synthetic updates must not be able to keep a dead node "fresh".
* **hard evidence** — the connectivity sweep's node state (``crashed``,
  ``hung``, ``burned``) and critical EventEngine firings.

States and legal transitions (anything else raises)::

    healthy ──suspect evidence──> suspect ──worse──> down
       ^  ^\___hard evidence____________________________/
       |  \                                             |
       |   \──recovered on its own── down ── playbook ──> recovering
       |                                                   |      |
       +────────────── succeeded ──────────────────────────+      |
    quarantined <──────── playbook exhausted ─────────────────────+
       |
       +── release() ──> healthy     (operator fixed the hardware)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim import SimKernel

__all__ = ["HealthState", "HealthRecord", "HealthTracker",
           "InvalidTransition"]


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DOWN = "down"
    RECOVERING = "recovering"
    QUARANTINED = "quarantined"
    DRAINED = "drained"


#: the node transition table; everything else is a programming error.
_ALLOWED = {
    HealthState.HEALTHY: {HealthState.SUSPECT, HealthState.DOWN},
    HealthState.SUSPECT: {HealthState.HEALTHY, HealthState.DOWN},
    HealthState.DOWN: {HealthState.RECOVERING, HealthState.HEALTHY},
    HealthState.RECOVERING: {HealthState.HEALTHY,
                             HealthState.QUARANTINED},
    HealthState.QUARANTINED: {HealthState.HEALTHY},
}


class InvalidTransition(ValueError):
    """Raised on a transition the tracker's table does not allow."""


@dataclass
class HealthRecord:
    """One subject's current health plus its full transition history."""

    hostname: str
    state: HealthState = HealthState.HEALTHY
    since: float = 0.0
    #: (time, old state, new state, reason) — newest last.
    history: List[Tuple[float, HealthState, HealthState, str]] = \
        field(default_factory=list)

    def transitions_to(self, state: HealthState, *,
                       since: float = 0.0) -> List[float]:
        """Times at which this node entered ``state`` (>= ``since``)."""
        return [t for t, _old, new, _r in self.history
                if new is state and t >= since]


class HealthTracker:
    """The health state machine over every tracked node.

    :meth:`evaluate` is fed from the server's connectivity sweep with
    the agent staleness age and the sweep's own reachability verdict;
    :meth:`note_event` is fed from EventEngine firings.  Transition
    listeners (``fn(hostname, old, new, reason)``) let the recovery
    orchestrator react the instant a node goes ``down`` without the
    tracker knowing the orchestrator exists.
    """

    def __init__(self, kernel: SimKernel, *,
                 suspect_after: float = 30.0,
                 down_after: float = 60.0,
                 allowed: Dict[HealthState, Set[HealthState]] = _ALLOWED):
        if suspect_after <= 0 or down_after <= suspect_after:
            raise ValueError("need 0 < suspect_after < down_after")
        self.kernel = kernel
        self.allowed = allowed  # the table above, or a shard table
        self.suspect_after = suspect_after
        self.down_after = down_after
        self._records: Dict[str, HealthRecord] = {}
        self._listeners: List[Callable[[str, HealthState, HealthState,
                                        str], None]] = []

    # -- introspection ---------------------------------------------------
    def record(self, hostname: str) -> Optional[HealthRecord]:
        return self._records.get(hostname)

    def state(self, hostname: str) -> HealthState:
        record = self._records.get(hostname)
        return record.state if record is not None else HealthState.HEALTHY

    def nodes_in(self, state: HealthState) -> List[str]:
        return sorted(h for h, r in self._records.items()
                      if r.state is state)

    def counts(self) -> Dict[str, int]:
        out = {state.value: 0 for state in self.allowed}
        for record in self._records.values():
            out[record.state.value] += 1
        return out

    def add_listener(self, listener: Callable[[str, HealthState,
                                               HealthState, str], None]
                     ) -> None:
        self._listeners.append(listener)

    def forget(self, hostname: str) -> None:
        """Drop the node's record entirely — the hot-remove path."""
        self._records.pop(hostname, None)

    # -- transitions -----------------------------------------------------
    def _transition(self, hostname: str, new: HealthState,
                    reason: str) -> None:
        record = self._records.get(hostname)
        if record is None:
            record = self._records[hostname] = HealthRecord(
                hostname=hostname, since=self.kernel.now)
        old = record.state
        if new is old:
            return
        if new not in self.allowed[old]:
            raise InvalidTransition(
                f"{hostname}: {old.value} -> {new.value} ({reason})")
        now = self.kernel.now
        record.state = new
        record.since = now
        record.history.append((now, old, new, reason))
        for listener in list(self._listeners):
            listener(hostname, old, new, reason)

    def mark_suspect(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.SUSPECT, reason)

    def mark_down(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.DOWN, reason)

    def mark_recovering(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.RECOVERING, reason)

    def mark_healthy(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.HEALTHY, reason)

    def mark_quarantined(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.QUARANTINED, reason)

    def mark_drained(self, hostname: str, reason: str) -> None:
        self._transition(hostname, HealthState.DRAINED, reason)

    def release(self, hostname: str, reason: str = "operator release"
                ) -> None:
        """Quarantined -> healthy: the operator fixed the hardware."""
        self._transition(hostname, HealthState.HEALTHY, reason)

    # -- evidence feeds --------------------------------------------------
    def evaluate(self, hostname: str, *, age: float, reachable: bool,
                 node_state: str) -> HealthState:
        """Fold one sweep observation into the state machine.

        ``age`` is the agent staleness (seconds since the last tier-1
        update), ``reachable`` the sweep's UDP-echo verdict and
        ``node_state`` the observed hardware state string.
        """
        state = self.state(hostname)
        if state in (HealthState.RECOVERING, HealthState.QUARANTINED):
            # The orchestrator owns the node until it hands it back.
            return state
        hard_down = node_state in ("crashed", "hung", "burned")
        if state is HealthState.HEALTHY:
            if hard_down:
                self.mark_down(hostname, f"node_state={node_state}")
            elif not reachable or age >= self.suspect_after:
                self.mark_suspect(
                    hostname, f"stale {age:.0f}s, reachable={reachable}")
        elif state is HealthState.SUSPECT:
            if hard_down:
                self.mark_down(hostname, f"node_state={node_state}")
            elif age >= self.down_after:
                self.mark_down(hostname, f"agent silent {age:.0f}s")
            elif reachable and age < self.suspect_after:
                self.mark_healthy(hostname, "agent fresh again")
        elif state is HealthState.DOWN:
            if (not hard_down and reachable
                    and age < self.suspect_after
                    and node_state == "up"):
                self.mark_healthy(hostname, "recovered unassisted")
        return self.state(hostname)

    def note_event(self, hostname: str, rule_name: str,
                   severity: str) -> None:
        """An EventEngine rule fired for this node; critical firings
        make a healthy node suspect (the playbook starts from evidence,
        not from a timer)."""
        if severity != "critical":
            return
        if self.state(hostname) is HealthState.HEALTHY:
            self.mark_suspect(hostname, f"event:{rule_name}")
