"""CPU model: utilization, jiffy counters, and identification.

The model is lazy: utilization at time ``t`` comes from the node's workload
demand; the cumulative jiffy counters exposed through ``/proc/stat`` are
integrals of that demand, evaluated in closed form when sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["CPUSpec", "CPU"]

#: Linux USER_HZ: jiffies per second in /proc/stat accounting.
USER_HZ = 100.0


@dataclass(frozen=True)
class CPUSpec:
    """Static identification, mirroring what /proc/cpuinfo would report."""

    model_name: str = "Pentium III (Coppermine)"
    mhz: float = 1000.0
    cores: int = 1
    cache_kb: int = 256
    vendor: str = "GenuineIntel"


class CPU:
    """Per-node CPU with workload-driven utilization.

    ``utilization(t)`` is the aggregate workload CPU demand clamped to the
    core count, normalized to [0, 1].  The split between user and system
    time uses a fixed ratio; idle absorbs the rest.
    """

    #: fraction of busy time accounted as system (kernel) time.
    SYSTEM_SHARE = 0.12

    def __init__(self, node: "SimulatedNode", spec: CPUSpec = CPUSpec()):
        self.node = node
        self.spec = spec
        #: extra demand injected by management tasks (e.g. local cloning
        #: writes, monitoring agents measuring their own footprint).
        self._overhead: Dict[str, float] = {}
        #: their total, kept by :meth:`set_overhead` (every sample adds it).
        self.overhead: float = 0

    # -- management overhead -------------------------------------------
    def set_overhead(self, key: str, fraction: float) -> None:
        """Register a constant management CPU demand (fraction of a core)."""
        if fraction <= 0:
            self._overhead.pop(key, None)
        else:
            self._overhead[key] = float(fraction)
        self.overhead = sum(self._overhead.values())

    # -- dynamic state --------------------------------------------------
    # Each ``*_from`` method is the formula over inputs the caller has
    # already read (the node's running flag, ``workload.demand(t)``); the
    # ``t`` form reads them and delegates.  A sampler that needs a dozen
    # values at one instant reads the inputs once and uses these.
    def demand(self, t: float) -> float:
        """Raw demand in core-equivalents (can exceed ``cores``)."""
        return self.demand_from(self.node.is_running(t),
                                self.node.workload.demand(t))

    def demand_from(self, running: bool,
                    demand: Mapping[str, float]) -> float:
        if not running:
            return 0.0
        return demand["cpu"] + self.overhead

    def utilization(self, t: float) -> float:
        """Fraction of total capacity in use, in [0, 1]."""
        return self.utilization_from(self.demand(t))

    def utilization_from(self, cpu_demand: float) -> float:
        if self.spec.cores <= 0:
            return 0.0
        return min(cpu_demand, float(self.spec.cores)) / self.spec.cores

    def utilization_over(self, running: bool, a: float, b: float) -> float:
        """Utilization throughout ``[a, b)``, an interval between two
        workload change points (demand is constant inside it)."""
        return self.utilization_from(self.demand_from(
            running, self.node.workload.demand((a + b) / 2.0)))

    def loadavg(self, t: float) -> float:
        """1-minute load average approximation.

        Load average counts runnable tasks; with piecewise-constant demand
        the exponentially-weighted average is approximated by the mean
        demand over the trailing minute (exact enough for threshold tests).
        """
        return self.loadavg_from(self.node.is_running(t), t)

    def loadavg_from(self, running: bool, t: float) -> float:
        if not running:
            return 0.0
        window = 60.0
        t0 = max(self.node.boot_completed_at or 0.0, t - window)
        span = max(t - t0, 1e-9)
        demand_integral = self.node.workload.integrate("cpu", t0, t)
        return demand_integral / span + self.overhead

    def jiffies(self, t: float) -> Dict[str, int]:
        """Cumulative jiffy counters since boot, as /proc/stat reports.

        Busy time is the integral of (clamped) utilization; the clamp is
        applied per change-point interval so oversubscribed phases do not
        overcount.
        """
        return self.jiffies_from(self.node.is_running(t), t)

    def jiffies_from(self, running: bool, t: float) -> Dict[str, int]:
        boot = self.node.boot_completed_at
        if boot is None or t <= boot:
            return {"user": 0, "nice": 0, "system": 0, "idle": 0}
        busy = 0.0
        a = boot
        points = self.node.workload.change_points(boot, t)
        points.append(t)
        for b in points:
            busy += self.utilization_over(running, a, b) * (b - a)
            a = b
        busy *= self.spec.cores
        total = (t - boot) * self.spec.cores
        system = busy * self.SYSTEM_SHARE
        user = busy - system
        idle = max(total - busy, 0.0)
        return {
            "user": int(user * USER_HZ),
            "nice": 0,
            "system": int(system * USER_HZ),
            "idle": int(idle * USER_HZ),
        }
