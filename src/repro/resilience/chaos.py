"""Chaos campaigns: draw faults against a live cluster, measure MTTR.

A :class:`ChaosCampaign` takes an assembled ``ClusterWorX`` facade (duck
typed — this module never imports :mod:`repro.core`), draws a fault plan
from the dedicated ``"chaos"`` RNG stream (distinct victims, mixed
kinds, injection times spread over ``horizon``), runs the simulation
while the self-healing loop works, and distills the result into a typed
:class:`CampaignReport`:

* per fault — detection latency (injection -> marked ``down``), recovery
  latency (detection -> healthy/quarantined, i.e. the per-fault TTR),
  the escalation rung that ended the playbook, and the outcome;
* aggregate — outcome counts, per-kind breakdown, mean/max detection
  latency and MTTR.

``render()`` is a pure function of the simulation results, so two runs
with the same seed produce byte-identical reports — the determinism
gate ``bench_e15`` and ``make chaos`` both assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hardware.faults import FaultKind
from repro.hardware.workload import WorkloadSegment
from repro.resilience.health import HealthState

__all__ = ["ChaosCampaign", "CampaignReport", "FaultOutcome",
           "ControlFaultOutcome"]

#: outcome labels
RECOVERED = "recovered"
QUARANTINED = "quarantined"
BENIGN = "benign"          # fault never took the node down
UNRESOLVED = "unresolved"  # campaign ended mid-playbook

#: control-plane outcome labels (shard/gateway faults)
FAILED_OVER = "failed-over"    # dead shard drained to survivors
RODE_THROUGH = "rode-through"  # degraded transiently, recovered in place


@dataclass
class FaultOutcome:
    """One injected fault and what the self-healing loop did about it."""

    node: str
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


@dataclass
class ControlFaultOutcome:
    """One *control-plane* fault (shard kill/hang/slow, link
    partition, gateway publication stall) and how the self-healing
    control plane absorbed it.

    Lives here — not in :mod:`repro.faults` — so the report type stays
    at the resilience layer; the fault plane (which imports downward
    into this module) fills the columns in.
    """

    target: str                 # "shard1", "gateway"
    kind: str                   # repro.faults kind label
    injected_at: float
    duration: float = 0.0
    shard: Optional[int] = None
    detected_at: Optional[float] = None      # first suspect/down mark
    failed_over_at: Optional[float] = None   # drain-on-death complete
    nodes_moved: int = 0
    updates_dropped: int = 0
    outcome: str = BENIGN

    @property
    def detection_latency(self) -> Optional[float]:
        """Injection -> the monitor marking the shard suspect/down."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def redistribute_latency(self) -> Optional[float]:
        """Detection -> every node re-owned by a survivor."""
        if self.detected_at is None or self.failed_over_at is None:
            return None
        return self.failed_over_at - self.detected_at


@dataclass
class CampaignReport:
    """Typed outcome of one chaos campaign."""

    seed: int
    nodes: int
    horizon: float
    settle: float
    faults: List[FaultOutcome] = field(default_factory=list)
    #: control-plane faults (shard kills etc.) — empty for the classic
    #: node-only campaigns, so their reports stay byte-identical.
    control_faults: List[ControlFaultOutcome] = field(default_factory=list)
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

    def _latencies(self, attr: str) -> List[float]:
        return [value for fault in self.faults
                if (value := getattr(fault, attr)) is not None]

    @property
    def mean_detection_latency(self) -> float:
        values = self._latencies("detection_latency")
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
                and not any(f.outcome == UNRESOLVED for f in self.faults)
                and not any(f.outcome == UNRESOLVED
                            for f in self.control_faults))

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
                f"{fault.injected_at:9.1f} {fault.node:<14} "
                f"{fault.kind:<13} {detect} {repair} "
                f"{fault.rung or '-':<12} {fault.outcome}")
        counts = self.outcome_counts()
        lines.append(
            "outcomes: " + " ".join(
                f"{name}={counts[name]}"
                for name in (RECOVERED, QUARANTINED, BENIGN, UNRESOLVED)))
        for kind in sorted(self.by_kind()):
            row = self.by_kind()[kind]
            cells = " ".join(f"{name}={n}"
                             for name, n in sorted(row.items()))
            lines.append(f"  {kind:<13} {cells}")
        lines.append(
            f"detection latency {self.mean_detection_latency:.1f}s mean | "
            f"MTTR {self.mttr:.1f}s | recovery rate "
            f"{self.recovery_rate() * 100:.1f}% of detected | "
            f"{self.notifications} quarantine notification(s) | "
            f"{self.errors} defused error(s)")
        if self.control_faults:
            lines.append(
                f"control-plane faults: {len(self.control_faults)}")
            lines.append(
                f"{'T_INJECT':>9} {'TARGET':<14} {'KIND':<13} "
                f"{'DETECT':>8} {'REDIST':>8} {'MOVED':>6} "
                f"{'DROPPED':>8} OUTCOME")
            for fault in self.control_faults:
                detect = (f"{fault.detection_latency:8.1f}"
                          if fault.detection_latency is not None else
                          f"{'-':>8}")
                redist = (f"{fault.redistribute_latency:8.1f}"
                          if fault.redistribute_latency is not None else
                          f"{'-':>8}")
                lines.append(
                    f"{fault.injected_at:9.1f} {fault.target:<14} "
                    f"{fault.kind:<13} {detect} {redist} "
                    f"{fault.nodes_moved:6d} {fault.updates_dropped:8d} "
                    f"{fault.outcome}")
        return "\n".join(lines)


class ChaosCampaign:
    """Plan, run and score one fault campaign against a facade."""

    def __init__(self, cwx, *, n_faults: int = 50,
                 kinds: Sequence[str] = FaultKind.ALL,
                 start: float = 60.0, horizon: float = 900.0,
                 settle: float = 2700.0, workload_cpu: float = 0.7,
                 control_plane=None):
        if n_faults < 0 or (n_faults < 1 and control_plane is None):
            raise ValueError("n_faults must be >= 1")
        if n_faults > len(cwx.cluster.hostnames):
            raise ValueError("need at least one node per fault "
                             "(victims are distinct)")
        self.cwx = cwx
        self.n_faults = n_faults
        self.kinds = tuple(kinds)
        self.start = start
        self.horizon = horizon
        self.settle = settle
        self.workload_cpu = workload_cpu
        #: duck-typed hook (``plan(rng, t0, start, horizon)`` /
        #: ``score() -> List[ControlFaultOutcome]``) — the concrete
        #: implementation lives upstack in :mod:`repro.faults`, so this
        #: layer never imports it.
        self.control_plane = control_plane
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
        if self.workload_cpu > 0:
            for node in cwx.cluster.nodes:
                node.workload.add(WorkloadSegment(
                    start=cwx.kernel.now, duration=end + 3600.0,
                    cpu=self.workload_cpu))
        cwx.start()

        # Draw the plan: distinct victims, mixed kinds, spread times.
        t0 = cwx.kernel.now
        victims = rng.choice(len(hosts), size=self.n_faults,
                             replace=False)
        kind_idx = rng.integers(0, len(self.kinds), size=self.n_faults)
        offsets = rng.uniform(0.0, self.horizon, size=self.n_faults)
        plan = sorted(
            (float(t0 + self.start + offset), hosts[int(victim)],
             self.kinds[int(k)])
            for offset, victim, k in zip(offsets, victims, kind_idx))
        injector = cwx.cluster.faults
        for at, hostname, kind in plan:
            injector.schedule(cwx.cluster.node(hostname), kind, at)
            self.plan.append(FaultOutcome(node=hostname, kind=kind,
                                          injected_at=at))

        # Control-plane faults draw *after* the node plan, so adding a
        # control plan never perturbs the node-fault schedule for a
        # given seed.
        if self.control_plane is not None:
            self.control_plane.plan(rng, t0, self.start, self.horizon)

        cwx.run(self.start + self.horizon + self.settle)
        return self.score()

    # -- scoring ---------------------------------------------------------
    def score(self) -> CampaignReport:
        """Distill tracker histories + playbook records into the report."""
        cwx = self.cwx
        tracker = cwx.server.health
        orchestrator = cwx.server.recovery
        report = CampaignReport(
            seed=cwx.streams.seed, nodes=len(cwx.cluster.hostnames),
            horizon=self.horizon, settle=self.settle,
            notifications=len(orchestrator.notifications),
            errors=len(orchestrator.errors))
        for fault in self.plan:
            record = tracker.record(fault.node)
            if record is not None:
                downs = record.transitions_to(
                    HealthState.DOWN, since=fault.injected_at)
                if downs:
                    fault.detected_at = downs[0]
                    healed = record.transitions_to(
                        HealthState.HEALTHY, since=fault.detected_at)
                    parked = record.transitions_to(
                        HealthState.QUARANTINED, since=fault.detected_at)
                    if parked and (not healed or parked[0] < healed[0]):
                        fault.resolved_at = parked[0]
                        fault.outcome = QUARANTINED
                    elif healed:
                        fault.resolved_at = healed[0]
                        fault.outcome = RECOVERED
                    else:
                        fault.outcome = UNRESOLVED
            if fault.detected_at is not None:
                playbook = orchestrator.record_for(fault.node)
                if playbook is not None:
                    fault.rung = playbook.rung_reached
            report.faults.append(fault)
        if self.control_plane is not None:
            report.control_faults.extend(self.control_plane.score())
        return report
