"""Control-plane fault campaigns: the ``control_plane`` hook for
:class:`~repro.resilience.chaos.ChaosCampaign`.

:class:`ControlPlan` is the concrete implementation of the duck-typed
``control_plane`` object the chaos layer accepts: ``plan(rng, t0,
start, horizon)`` draws shard victims and schedules the faults through
a :class:`~repro.faults.plane.FaultPlane`; ``score()`` distills the
shards' health records, the federation fail-over audit trail and the
channel drop counters into :class:`ControlFaultOutcome` rows that ride
inside the ordinary :class:`~repro.resilience.chaos.CampaignReport`.
A ``shard-kill`` is :meth:`~repro.faults.plane.FaultPlane.kill_shard`;
``shard-hang``, ``link-down`` and ``shard-slow`` are one
:meth:`~repro.faults.plane.FaultPlane.outage` of ``duration``, each
under its own label, so seeded draws and report rows keep the kind
names.

Determinism contract: the plan is a pure function of the RNG stream
(which :class:`ChaosCampaign` hands over *after* its node-fault draws)
and the set of active shards — same seed, same spec, byte-identical
report, including the control-plane rows.  Victim selection always
leaves at least one survivor, because drain-on-death needs an adopter.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.plane import FaultPlane, PUBLISH_STALL, SHARD_KILL
from repro.resilience.chaos import (BENIGN, FAILED_OVER,
                                    ControlFaultOutcome, RODE_THROUGH,
                                    UNRESOLVED)
from repro.resilience.health import HealthState

__all__ = ["ControlPlan"]


class ControlPlan:
    """Plan + score control-plane faults inside a chaos campaign."""

    def __init__(self, plane: FaultPlane, *, n_faults: int = 1,
                 kinds: Sequence[str] = (SHARD_KILL,),
                 duration: float = 60.0):
        if plane.federation is None:
            raise ValueError("ControlPlan needs a federation-attached "
                             "fault plane")
        self.plane = plane
        self.n_faults = n_faults
        self.kinds = tuple(kinds)
        #: how long the transient kinds (hang/slow/link/stall) last.
        self.duration = duration
        self.outcomes: List[ControlFaultOutcome] = []

    # -- planning ------------------------------------------------------------
    def plan(self, rng, t0: float, start: float,
             horizon: float) -> List[ControlFaultOutcome]:
        """Draw victims + times and schedule the faults.

        Victims are distinct active shards, and at least one active
        shard is never targeted (the survivor that adopts the drained
        nodes).  Injection times land in the middle half of the
        horizon, so there is runway both to observe the healthy system
        and to watch redistribution finish.
        """
        federation = self.plane.federation
        active = [shard.index for shard in federation.shards
                  if shard.active]
        n = min(self.n_faults, max(len(active) - 1, 0))
        victims = rng.choice(len(active), size=n, replace=False)
        kind_idx = rng.integers(0, len(self.kinds), size=n)
        offsets = rng.uniform(0.25 * horizon, 0.75 * horizon, size=n)
        plan = sorted(
            (float(t0 + start + offset), active[int(victim)],
             self.kinds[int(k)])
            for offset, victim, k in zip(offsets, victims, kind_idx))
        for at, index, kind in plan:
            self.outcomes.append(self._inject(kind, index, at))
        return self.outcomes

    def _inject(self, kind: str, index: int,
                at: float) -> ControlFaultOutcome:
        federation = self.plane.federation
        if kind == PUBLISH_STALL:
            self.plane.stall_gateway(at, self.duration)
            return ControlFaultOutcome(target="gateway", kind=kind,
                                       injected_at=at,
                                       duration=self.duration)
        name = federation.shards[index].name
        duration = 0.0 if kind == SHARD_KILL else self.duration
        if kind == SHARD_KILL:
            self.plane.kill_shard(index, at)
        else:
            self.plane.outage(index, at, self.duration, kind)
        return ControlFaultOutcome(target=name, kind=kind,
                                   injected_at=at, duration=duration,
                                   shard=index)

    # -- scoring -------------------------------------------------------------
    def score(self) -> List[ControlFaultOutcome]:
        """Fill in detection / redistribution columns from the audit
        trails and classify each fault's outcome."""
        federation = self.plane.federation
        for outcome in self.outcomes:
            if outcome.shard is None:
                self._score_gateway(outcome)
                continue
            index = outcome.shard
            record = federation.monitor.health.record(outcome.target)
            at = outcome.injected_at
            detections = (record.transitions_to(HealthState.SUSPECT, since=at)
                          + record.transitions_to(HealthState.DOWN, since=at))
            if detections:
                outcome.detected_at = min(detections)
            outcome.updates_dropped = \
                federation.shards[index].channel.dropped_ingests
            row = next((r for r in federation.failovers
                        if r[1] == index and r[0] >= at), None)
            if row is not None:
                outcome.failed_over_at = row[0]
                outcome.nodes_moved = row[3]
                outcome.outcome = FAILED_OVER
            elif outcome.detected_at is not None:
                healed = record.transitions_to(HealthState.HEALTHY,
                                               since=outcome.detected_at)
                outcome.outcome = RODE_THROUGH if healed else UNRESOLVED
            else:
                # Never even suspected: the shard answered a probe
                # again before its last good heartbeat aged past
                # ``suspect_after``.
                outcome.outcome = BENIGN
        return self.outcomes

    def _score_gateway(self, outcome: ControlFaultOutcome) -> None:
        state = self.plane.gateway_state
        ended = outcome.injected_at + outcome.duration
        if state is not None and state.publish_stalls > 0:
            outcome.detected_at = outcome.injected_at
        if self.plane.kernel.now >= ended:
            outcome.outcome = RODE_THROUGH
        else:
            outcome.outcome = UNRESOLVED
