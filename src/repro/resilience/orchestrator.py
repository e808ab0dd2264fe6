"""The recovery orchestrator: escalating playbooks on the SimKernel.

One :class:`RecoveryOrchestrator` supervises every unhealthy node.  When
the health tracker marks a node ``down``, :meth:`~RecoveryOrchestrator.
recover` spawns a *playbook* process that climbs the escalation ladder
(:data:`~repro.resilience.playbook.DEFAULT_PLAYBOOK`) — probe, ICE Box
reset, power cycle, reclone, quarantine.  The ladder is the whole
policy: each rung is tried once, bounded by its ``timeout``, and a rung
that fails hands over to the next one (§5.2's corrective-action loop has
no retry policy and no circuit breaker).

The orchestrator talks to the rest of the framework exclusively through
:class:`RecoveryChannels` — a bundle of callables the ClusterWorX server
supplies — so this module depends on nothing above the hardware layer
and cannot create an import cycle with :mod:`repro.core`.

A playbook never lets an exception escape into the kernel: channel
failures are recorded on :attr:`RecoveryOrchestrator.errors` and count
as rung failures, exactly like the fan-out worker's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hardware.node import NodeState
from repro.resilience.health import HealthState, HealthTracker
from repro.resilience.playbook import DEFAULT_PLAYBOOK, Rung
from repro.sim import Interrupt, ProcessKilled, SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["RECORDS_KEPT", "RecoveryChannels", "RecoveryOrchestrator",
           "RecoveryRecord", "RungAttempt"]

#: playbook records, quarantine pages and defused channel errors an
#: orchestrator keeps, each log its newest.
RECORDS_KEPT = 10_000


@dataclass
class RecoveryChannels:
    """Everything a playbook may do to a node, as injected callables.

    ``probe``/``reclone`` may return a generator (driven on the kernel);
    the others return a protocol string (``OK...``/``ERR...``), a bool,
    or ``None``.  Unset channels make their rung report "unavailable"
    and the ladder degrades to the next rung.
    """

    #: hostname -> SimulatedNode (raises KeyError for unknown hosts).
    node: Callable[[str], object]
    probe: Optional[Callable[[str], object]] = None
    ice_reset: Optional[Callable[[str], object]] = None
    power_cycle: Optional[Callable[[str], object]] = None
    reclone: Optional[Callable[[str], object]] = None
    #: drain(hostname, reason) — detach the node from the resource manager.
    drain: Optional[Callable[[str, str], object]] = None
    #: notify(hostname, reason) — page the operator (smart notification).
    notify: Optional[Callable[[str, str], object]] = None


@dataclass
class RungAttempt:
    """One attempt of one rung (including skips), for the audit trail."""

    rung: str
    started_at: float
    finished_at: float
    ok: bool
    note: str = ""


@dataclass
class RecoveryRecord:
    """The full story of one playbook execution."""

    hostname: str
    reason: str
    started_at: float
    finished_at: Optional[float] = None
    #: active | recovered | quarantined | aborted
    outcome: str = "active"
    #: rung that ended the playbook ("" while still active/aborted).
    rung_reached: str = ""
    attempts: List[RungAttempt] = field(default_factory=list)


def _normalize(value: object) -> Tuple[bool, str]:
    """Map a channel return value to (ok, note)."""
    if isinstance(value, str):
        return value.upper().startswith("OK"), value
    if isinstance(value, tuple):
        ok, note = value
        return bool(ok), str(note)
    return bool(value), ""


class RecoveryOrchestrator:
    """Supervises per-node recovery playbooks."""

    def __init__(self, kernel: SimKernel, tracker: HealthTracker,
                 channels: RecoveryChannels, *,
                 playbook: Sequence[Rung] = DEFAULT_PLAYBOOK,
                 verify_timeout: float = 180.0):
        self.kernel = kernel
        self.tracker = tracker
        self.channels = channels
        self.playbook = tuple(playbook)
        self.verify_timeout = verify_timeout
        #: one record per playbook started, in start order.
        self.records = RecordLog(RECORDS_KEPT)
        #: (time, hostname, reason) — one entry per quarantine page.
        self.notifications = RecordLog(RECORDS_KEPT)
        #: (time, hostname, rung, error) — channel exceptions, defused.
        self.errors = RecordLog(RECORDS_KEPT)
        #: hostname -> (playbook process, its record) while it runs, so
        #: a live ladder never depends on ``records`` still holding it.
        self._active: Dict[str, Tuple[object, RecoveryRecord]] = {}

    # -- introspection ---------------------------------------------------
    @property
    def active(self) -> List[str]:
        return sorted(self._active)

    def record_for(self, hostname: str) -> Optional[RecoveryRecord]:
        """The newest playbook record for ``hostname``, if any."""
        for record in reversed(self.records):
            if record.hostname == hostname:
                return record
        return None

    def record_since(self, hostname: str,
                     t0: float) -> Optional[RecoveryRecord]:
        """The first playbook record for ``hostname`` that started at
        or after ``t0``, if any: the ladder a fault detected at ``t0``
        started, not a later one."""
        found = None
        for record in reversed(self.records):
            if record.started_at < t0:
                break
            if record.hostname == hostname:
                found = record
        return found

    # -- entry points ----------------------------------------------------
    def recover(self, hostname: str,
                reason: str = "marked down") -> Optional[RecoveryRecord]:
        """Start (or join) the recovery playbook for ``hostname``."""
        if hostname in self._active:
            return self._active[hostname][1]
        state = self.tracker.state(hostname)
        if state is HealthState.QUARANTINED:
            return None
        if state is not HealthState.DOWN:
            # Manual invocation: force the evidence through the machine.
            # A self-healing listener re-enters here on the transition
            # and starts the ladder; that one is the caller's.
            self.tracker.mark_down(hostname, f"recover(): {reason}")
            if hostname in self._active:
                return self._active[hostname][1]
        self.tracker.mark_recovering(hostname, reason)
        record = RecoveryRecord(hostname=hostname, reason=reason,
                                started_at=self.kernel.now)
        self.records.append(record)
        self._active[hostname] = (self.kernel.process(
            self._playbook(hostname, record),
            name=f"playbook:{hostname}"), record)
        return record

    def forget(self, hostname: str) -> None:
        """Abort any active playbook for a hot-removed node.  Safe to
        call at any time, including mid-rung and before the first
        rung: a ladder killed before it started never runs its
        ``finally``, so its record is closed here."""
        proc, record = self._active.pop(hostname, (None, None))
        if proc is not None and proc.is_alive:
            proc.kill()
            if record.finished_at is None:
                record.finished_at = self.kernel.now
                record.outcome = "aborted"

    # -- the playbook process -------------------------------------------
    def _playbook(self, hostname: str, record: RecoveryRecord):
        try:
            for rung in self.playbook:
                if rung.terminal:
                    self._quarantine(hostname, record)
                    return
                done = yield from self._run_rung(rung, hostname, record)
                if done:
                    record.outcome = "recovered"
                    record.rung_reached = rung.name
                    self.tracker.mark_healthy(
                        hostname, f"recovered via {rung.name}")
                    return
            # Custom ladder without a terminal rung: everything failed.
            self._quarantine(hostname, record)
        finally:
            self._active.pop(hostname, None)
            record.finished_at = self.kernel.now
            if record.outcome == "active":
                record.outcome = "aborted"

    def _run_rung(self, rung: Rung, hostname: str,
                  record: RecoveryRecord):
        """Climb one rung: one timed attempt, then verification.
        Returns True when the node is considered recovered."""
        started = self.kernel.now
        if getattr(self.channels, rung.name, None) is None:
            record.attempts.append(RungAttempt(
                rung.name, started, started, False, "channel unavailable"))
            return False
        proc = self.kernel.process(
            self._execute(rung, hostname),
            name=f"recover:{rung.name}:{hostname}")
        fired = yield self.kernel.any_of(
            [proc, self.kernel.timeout(rung.timeout)])
        if proc in fired:
            ok, note = _normalize(proc.value)
        else:
            proc.kill()
            ok, note = False, f"timed out after {rung.timeout:g}s"
        record.attempts.append(RungAttempt(
            rung.name, started, self.kernel.now, ok, note))
        if ok and rung.verify:
            ok = yield from self._verify(hostname)
            if not ok:
                record.attempts.append(RungAttempt(
                    rung.name, self.kernel.now, self.kernel.now,
                    False, "verify: node did not come back up"))
        return ok

    def _execute(self, rung: Rung, hostname: str):
        """Drive one channel call; exceptions become rung failures."""
        fn = getattr(self.channels, rung.name)
        try:
            value = fn(hostname)
            if hasattr(value, "throw"):  # generator channel: drive it
                value = yield from value
        except (Interrupt, ProcessKilled):
            raise
        except Exception as exc:  # channel code is arbitrary
            self.errors.append((self.kernel.now, hostname, rung.name,
                                repr(exc)))
            return False
        return value

    def _verify(self, hostname: str):
        """Wait for the node to actually reach ``up`` again."""
        try:
            node = self.channels.node(hostname)
        except Exception as exc:  # hot-removed mid-playbook
            self.errors.append((self.kernel.now, hostname, "verify",
                                repr(exc)))
            return False
        waiter = node.wait_state(NodeState.UP)
        fired = yield self.kernel.any_of(
            [waiter, self.kernel.timeout(self.verify_timeout)])
        return waiter in fired

    def _quarantine(self, hostname: str, record: RecoveryRecord) -> None:
        """Terminal rung: drain, page the operator exactly once, park."""
        now = self.kernel.now
        reason = (f"playbook exhausted after "
                  f"{len(record.attempts)} attempt(s)")
        if self.channels.drain is not None:
            try:
                self.channels.drain(hostname, reason)
            except Exception as exc:  # drain must not block quarantine
                self.errors.append((now, hostname, "drain", repr(exc)))
        if self.channels.notify is not None:
            try:
                self.channels.notify(hostname, reason)
            except Exception as exc:  # notify must not block quarantine
                self.errors.append((now, hostname, "notify", repr(exc)))
        self.notifications.append((now, hostname, reason))
        record.outcome = "quarantined"
        record.rung_reached = "quarantine"
        self.tracker.mark_quarantined(hostname, reason)
