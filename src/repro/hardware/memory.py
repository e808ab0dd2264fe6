"""Memory model: workload-resident set plus kernel baseline plus leaks.

Usage at time ``t`` is ``baseline + workload.memory(t) + leak(t)``, clamped
to physical capacity.  Leaks (fault injection) grow linearly from their
start time — the shape the event engine's memory threshold monitors exist
to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["MemorySpec", "MemoryUsage", "Memory"]


@dataclass(frozen=True)
class MemorySpec:
    total: int = 1 << 30          # 1 GiB, the paper's testbed size
    swap_total: int = 2 << 30


@dataclass
class _Leak:
    start: float
    rate: float  # bytes/second
    cap: int     # never leak more than this

    def amount(self, t: float) -> int:
        if t <= self.start:
            return 0
        return min(int((t - self.start) * self.rate), self.cap)


class MemoryUsage(NamedTuple):
    """Every memory figure at one instant, from one resident-set sum."""

    used: int
    free: int
    cached: int
    swap_used: int
    utilization: float


class Memory:
    """Physical + swap memory with lazy usage evaluation."""

    #: kernel + boot-time baseline usage.
    BASELINE = 96 << 20
    #: buffers/cached follow a fixed fraction of free memory.
    CACHE_FRACTION = 0.35

    def __init__(self, node: "SimulatedNode", spec: MemorySpec = MemorySpec()):
        self.node = node
        self.spec = spec
        self._leaks: List[_Leak] = []

    def inject_leak(self, start: float, rate: float,
                    cap: int | None = None) -> None:
        """Start a linear memory leak of ``rate`` bytes/second at ``start``."""
        if rate <= 0:
            raise ValueError("leak rate must be positive")
        self._leaks.append(_Leak(start=start, rate=rate,
                                 cap=cap if cap is not None
                                 else self.spec.total))

    def clear_leaks(self) -> None:
        """Remove all leaks (models restarting the leaking service)."""
        self._leaks.clear()

    def usage(self, t: float) -> MemoryUsage:
        """All memory figures at ``t``; the single-value reads select."""
        return self.usage_from(self.node.is_running(t),
                               self.node.workload.demand(t), t)

    def usage_from(self, running: bool, demand: Mapping[str, float],
                   t: float) -> MemoryUsage:
        """:meth:`usage` over inputs the caller has already read.

        Swap absorbs demand beyond physical capacity; diskless nodes
        have no swap partition at all."""
        total = self.spec.total
        used = swap = 0
        if running:
            resident = self.BASELINE + demand["memory"]
            for leak in self._leaks:
                resident += leak.amount(t)
            used = min(resident, total)
            if not self.node.diskless:
                swap = max(0, min(resident - total, self.spec.swap_total))
        free = total - used
        return MemoryUsage(used, free, int(free * self.CACHE_FRACTION),
                           swap, used / total)

    def used(self, t: float) -> int:
        return self.usage(t).used

    def free(self, t: float) -> int:
        return self.usage(t).free

    def cached(self, t: float) -> int:
        return self.usage(t).cached

    def swap_used(self, t: float) -> int:
        return self.usage(t).swap_used

    def utilization(self, t: float) -> float:
        return self.usage(t).utilization
