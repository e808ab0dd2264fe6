"""Chaos campaigns: draw node and shard faults against a live cluster,
measure detection and repair.

A :class:`ChaosCampaign` takes an assembled ``ClusterWorX`` facade, draws
one fault plan from the dedicated ``"chaos"`` RNG stream, runs the
simulation while the self-healing loop works, and distills the result
into a typed :class:`CampaignReport`.  The plan is node faults first
(distinct victims, mixed :class:`~repro.hardware.faults.FaultKind`
kinds, injection times spread over ``horizon``), then — only when
``shard_faults > 0`` — shard faults from the same stream (distinct
active shards, injected in the middle half of the horizon through the
campaign's own :class:`~repro.faults.plane.FaultPlane`).  Node draws
come first, so adding shard faults never moves the node schedule for a
given seed.

Every fault, node or shard, is one :class:`FaultOutcome`, scored by one
function over its subject's
:class:`~repro.resilience.health.HealthRecord`: detected at the first
detecting transition at or after injection (``down`` for a node, the
first ``suspect`` or ``down`` for a shard), resolved at the first
terminal state after that (``healthy`` → recovered, ``quarantined`` →
quarantined, ``drained`` → failed-over).  The report carries, per fault,
detection latency, time to repair (detection → resolution), the
escalation rung that ended a node's playbook and the outcome; and in
aggregate outcome counts, a per-kind breakdown, mean detection latency
and MTTR.

``render()`` is a pure function of the simulation results, so two runs
with the same seed produce byte-identical reports — the determinism
gate ``bench_e15`` and ``make chaos`` both assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.faults.plane import CONTROL_KINDS, FaultPlane, SHARD_KILL
from repro.hardware.faults import FaultKind
from repro.hardware.workload import WorkloadSegment
from repro.resilience.health import HealthRecord, HealthState

__all__ = ["ChaosCampaign", "CampaignReport", "FaultOutcome"]

#: outcome labels
RECOVERED = "recovered"
QUARANTINED = "quarantined"
FAILED_OVER = "failed-over"  # dead shard drained to survivors
BENIGN = "benign"            # fault never took the subject down
UNRESOLVED = "unresolved"    # campaign ended mid-repair

#: the states that end a detected fault, and the outcome each means.
_RESOLUTIONS = {HealthState.HEALTHY: RECOVERED,
                HealthState.QUARANTINED: QUARANTINED,
                HealthState.DRAINED: FAILED_OVER}

_NODE_DETECT = frozenset({HealthState.DOWN})
_SHARD_DETECT = frozenset({HealthState.SUSPECT, HealthState.DOWN})


@dataclass
class FaultOutcome:
    """One injected fault and what the self-healing loop did about it."""

    subject: str  # a hostname or a shard name
    kind: str
    injected_at: float
    detected_at: Optional[float] = None
    resolved_at: Optional[float] = None
    rung: str = ""
    outcome: str = BENIGN

    @property
    def detection_latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def recovery_latency(self) -> Optional[float]:
        """Detection -> resolution: the per-fault time-to-repair."""
        if self.detected_at is None or self.resolved_at is None:
            return None
        return self.resolved_at - self.detected_at


def score_fault(fault: FaultOutcome, record: Optional[HealthRecord],
                detect_on: FrozenSet[HealthState]) -> None:
    """Fill in ``fault`` from its subject's health history: detected at
    the first transition into ``detect_on`` at or after injection,
    resolved at the first terminal state after that.  A fault never
    detected stays benign; one detected but never resolved is
    unresolved."""
    if record is None:
        return
    detected = None
    for t, _old, new, _reason in record.history:
        if detected is None:
            if new in detect_on and t >= fault.injected_at:
                detected = fault.detected_at = t
                fault.outcome = UNRESOLVED
        elif new in _RESOLUTIONS:
            fault.resolved_at = t
            fault.outcome = _RESOLUTIONS[new]
            return


@dataclass
class CampaignReport:
    """Typed outcome of one chaos campaign."""

    seed: int
    nodes: int
    horizon: float
    settle: float
    faults: List[FaultOutcome] = field(default_factory=list)
    notifications: int = 0
    errors: int = 0

    # -- aggregates ------------------------------------------------------
    def outcome_counts(self) -> Dict[str, int]:
        out = {RECOVERED: 0, QUARANTINED: 0, BENIGN: 0, UNRESOLVED: 0}
        for fault in self.faults:
            out[fault.outcome] = out.get(fault.outcome, 0) + 1
        return out

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for fault in self.faults:
            row = out.setdefault(fault.kind, {})
            row[fault.outcome] = row.get(fault.outcome, 0) + 1
        return out

    @property
    def mean_detection_latency(self) -> float:
        values = [value for fault in self.faults
                  if (value := fault.detection_latency) is not None]
        return sum(values) / len(values) if values else 0.0

    @property
    def mttr(self) -> float:
        """Mean time to repair over the *recovered* faults."""
        values = [f.recovery_latency for f in self.faults
                  if f.outcome == RECOVERED
                  and f.recovery_latency is not None]
        return sum(values) / len(values) if values else 0.0

    def recovery_rate(self, kinds: Optional[Sequence[str]] = None
                      ) -> float:
        """Recovered fraction of the *detected* faults (optionally
        restricted to ``kinds``)."""
        detected = [f for f in self.faults
                    if f.detected_at is not None
                    and (kinds is None or f.kind in kinds)]
        if not detected:
            return 1.0
        recovered = sum(1 for f in detected if f.outcome == RECOVERED)
        return recovered / len(detected)

    @property
    def ok(self) -> bool:
        """Every fault reached a terminal outcome, with no defused
        playbook exceptions left behind."""
        return (self.errors == 0
                and not any(f.outcome == UNRESOLVED for f in self.faults))

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        """Deterministic operator-facing text (byte-stable per seed)."""
        lines = [
            f"chaos campaign: {len(self.faults)} faults over "
            f"{self.nodes} nodes (seed {self.seed}, horizon "
            f"{self.horizon:.0f}s + settle {self.settle:.0f}s)",
            f"{'T_INJECT':>9} {'NODE':<14} {'KIND':<13} {'DETECT':>8} "
            f"{'REPAIR':>8} {'RUNG':<12} OUTCOME",
        ]
        for fault in self.faults:
            detect = (f"{fault.detection_latency:8.1f}"
                      if fault.detection_latency is not None else
                      f"{'-':>8}")
            repair = (f"{fault.recovery_latency:8.1f}"
                      if fault.recovery_latency is not None else
                      f"{'-':>8}")
            lines.append(
                f"{fault.injected_at:9.1f} {fault.subject:<14} "
                f"{fault.kind:<13} {detect} {repair} "
                f"{fault.rung or '-':<12} {fault.outcome}")
        lines.append("outcomes: " + " ".join(
            f"{name}={n}" for name, n in self.outcome_counts().items()))
        for kind, row in sorted(self.by_kind().items()):
            cells = " ".join(f"{name}={n}"
                             for name, n in sorted(row.items()))
            lines.append(f"  {kind:<13} {cells}")
        lines.append(
            f"detection latency {self.mean_detection_latency:.1f}s mean | "
            f"MTTR {self.mttr:.1f}s | recovery rate "
            f"{self.recovery_rate() * 100:.1f}% of detected | "
            f"{self.notifications} quarantine notification(s) | "
            f"{self.errors} defused error(s)")
        return "\n".join(lines)


class ChaosCampaign:
    """Plan, run and score one fault campaign against a facade."""

    #: every node's CPU load for the campaign.
    workload_cpu = 0.7

    def __init__(self, cwx, *, n_faults: int = 50,
                 kinds: Sequence[str] = FaultKind.ALL,
                 start: float = 60.0, horizon: float = 900.0,
                 settle: float = 2700.0, shard_faults: int = 0,
                 shard_kinds: Sequence[str] = (SHARD_KILL,),
                 outage: float = 60.0):
        if n_faults < 0 or shard_faults < 0 or n_faults + shard_faults < 1:
            raise ValueError("need at least one fault")
        if n_faults > len(cwx.cluster.hostnames):
            raise ValueError("need at least one node per fault "
                             "(victims are distinct)")
        # a drained shard's nodes need a survivor to adopt them
        if shard_faults and \
                shard_faults >= len(getattr(cwx.server, "shards", ())):
            raise ValueError("need a surviving shard (victims are "
                             "distinct shards)")
        if not set(shard_kinds) <= set(CONTROL_KINDS):
            raise ValueError(f"shard kinds must be among {CONTROL_KINDS}")
        self.cwx = cwx
        self.n_faults = n_faults
        self.kinds = tuple(kinds)
        self.start = start
        self.horizon = horizon
        self.settle = settle
        self.shard_faults = shard_faults
        self.shard_kinds = tuple(shard_kinds)
        #: how long a shard-hang, link-down or shard-slow lasts.
        self.outage = outage
        self.plane = (FaultPlane(cwx.kernel, federation=cwx.server)
                      if shard_faults else None)
        self.plan: List[FaultOutcome] = []

    # -- execution -------------------------------------------------------
    def execute(self) -> CampaignReport:
        cwx = self.cwx
        cwx.server.self_healing = True
        rng = cwx.streams("chaos")
        hosts = sorted(cwx.cluster.hostnames)
        end = cwx.kernel.now + self.start + self.horizon + self.settle

        # Realistic steady load: hot CPUs are what turns a dead fan
        # into a burned board (the paper's canonical scenario).
        for node in cwx.cluster.nodes:
            node.workload.add(WorkloadSegment(
                start=cwx.kernel.now, duration=end + 3600.0,
                cpu=self.workload_cpu))
        cwx.start()

        # Node faults: distinct victims, mixed kinds, spread times.
        t0 = cwx.kernel.now
        for at, hostname, kind in self._draw(
                rng, t0, hosts, self.n_faults, self.kinds, 0.0,
                self.horizon):
            cwx.cluster.faults.schedule(cwx.cluster.node(hostname), kind,
                                        at)
            self.plan.append(FaultOutcome(subject=hostname, kind=kind,
                                          injected_at=at))
        # Shard faults draw after the node faults, so adding them never
        # moves a seeded node schedule.  They land in the middle half of
        # the horizon: runway both to see the healthy system and to
        # watch a fail-over finish.
        if self.shard_faults:
            active = [shard.index for shard in cwx.server.shards
                      if shard.active]
            for at, index, kind in self._draw(
                    rng, t0, active, self.shard_faults, self.shard_kinds,
                    0.25 * self.horizon, 0.75 * self.horizon):
                if kind == SHARD_KILL:
                    self.plane.kill_shard(index, at)
                else:
                    self.plane.outage(index, at, self.outage, kind)
                self.plan.append(FaultOutcome(
                    subject=cwx.server.shards[index].name, kind=kind,
                    injected_at=at))

        cwx.run(self.start + self.horizon + self.settle)
        return self.score()

    def _draw(self, rng, t0: float, subjects: Sequence, n: int,
              kinds: Sequence[str], low: float, high: float) -> List:
        """``n`` distinct ``subjects``, each with a kind and an
        injection time ``low``..``high`` after the start, by time."""
        victims = rng.choice(len(subjects), size=n, replace=False)
        kind_idx = rng.integers(0, len(kinds), size=n)
        offsets = rng.uniform(low, high, size=n)
        return sorted(
            (float(t0 + self.start + offset), subjects[int(victim)],
             kinds[int(k)])
            for offset, victim, k in zip(offsets, victims, kind_idx))

    # -- scoring ---------------------------------------------------------
    def score(self) -> CampaignReport:
        """Distill health histories + playbook records into the report."""
        cwx = self.cwx
        orchestrator = cwx.server.recovery
        report = CampaignReport(
            seed=cwx.streams.seed, nodes=len(cwx.cluster.hostnames),
            horizon=self.horizon, settle=self.settle,
            notifications=orchestrator.notifications.total,
            errors=orchestrator.errors.total)
        for fault in self.plan:
            if fault.kind in CONTROL_KINDS:
                score_fault(fault,
                            cwx.server.monitor.health.record(fault.subject),
                            _SHARD_DETECT)
            else:
                score_fault(fault, cwx.server.health.record(fault.subject),
                            _NODE_DETECT)
                playbook = None if fault.detected_at is None else \
                    orchestrator.record_since(fault.subject,
                                              fault.detected_at)
                if playbook is not None:
                    fault.rung = playbook.rung_reached
            report.faults.append(fault)
        return report
