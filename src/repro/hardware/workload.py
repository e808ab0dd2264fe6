"""Synthetic workload model driving node utilization.

The paper's clusters run HPC jobs; the monitoring stack observes their CPU,
memory and network footprints through /proc.  Rather than ticking every node
every second (ruinous at 1000 nodes), a node's workload is a set of
*segments* — piecewise-constant demands with a start time and duration —
and every component model evaluates its state analytically at query time.

:class:`WorkloadGenerator` produces job-shaped segment patterns (bursty MPI
phases, memory ramps) from a named RNG stream, so experiments are
deterministic per seed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["WorkloadSegment", "Workload", "WorkloadGenerator"]

#: What a workload with no segments demands.  One read-only mapping for
#: the whole process: an idle node's ``demand`` allocates nothing.
_ZERO_DEMAND: Mapping[str, float] = MappingProxyType(
    {"cpu": 0.0, "memory": 0, "net_tx": 0.0, "net_rx": 0.0,
     "disk_read": 0.0, "disk_write": 0.0})


@dataclass(frozen=True)
class WorkloadSegment:
    """A constant resource demand over ``[start, start + duration)``.

    ``cpu`` is a fraction of one node's compute capacity in [0, 1+]; values
    above 1 model oversubscription and are clamped by the CPU model.
    ``net_tx``/``net_rx`` are bytes/second offered to the NIC.
    """

    start: float
    duration: float
    cpu: float = 0.0
    memory: int = 0          # bytes resident while active
    net_tx: float = 0.0      # bytes/s
    net_rx: float = 0.0      # bytes/s
    disk_read: float = 0.0   # bytes/s
    disk_write: float = 0.0  # bytes/s
    tag: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class Workload:
    """The set of segments currently attached to one node.

    Segments are kept sorted by start time; demand queries are O(active
    segments) after a bisect, and integrated counters (for /proc/net/dev
    style monotonic counters) are evaluated in closed form.
    """

    def __init__(self) -> None:
        self._segments: List[WorkloadSegment] = []
        self._starts: List[float] = []

    def __len__(self) -> int:
        return len(self._segments)

    def add(self, segment: WorkloadSegment) -> None:
        idx = bisect.bisect(self._starts, segment.start)
        self._segments.insert(idx, segment)
        self._starts.insert(idx, segment.start)

    def extend(self, segments: Iterable[WorkloadSegment]) -> None:
        for seg in segments:
            self.add(seg)

    def remove_tagged(self, tag: str) -> int:
        """Remove all segments with ``tag`` (job cancellation). Returns count."""
        keep = [s for s in self._segments if s.tag != tag]
        removed = len(self._segments) - len(keep)
        self._segments = keep
        self._starts = [s.start for s in keep]
        return removed

    def truncate_tagged(self, tag: str, at: float) -> int:
        """End all segments with ``tag`` at time ``at`` (job completion/kill).

        Segments already finished are untouched; active ones are shortened;
        future ones are dropped.  Returns the number of segments affected.
        """
        changed = 0
        new: List[WorkloadSegment] = []
        for s in self._segments:
            if s.tag != tag or s.end <= at:
                new.append(s)
                continue
            changed += 1
            if s.start < at:
                new.append(WorkloadSegment(
                    start=s.start, duration=at - s.start, cpu=s.cpu,
                    memory=s.memory, net_tx=s.net_tx, net_rx=s.net_rx,
                    disk_read=s.disk_read, disk_write=s.disk_write,
                    tag=s.tag))
        self._segments = sorted(new, key=lambda s: s.start)
        self._starts = [s.start for s in self._segments]
        return changed

    def active(self, t: float) -> List[WorkloadSegment]:
        hi = bisect.bisect(self._starts, t)
        return [s for s in self._segments[:hi] if s.active_at(t)]

    def demand(self, t: float) -> Mapping[str, float]:
        """Aggregate demand at time ``t`` (a read-only mapping)."""
        if not self._segments:
            return _ZERO_DEMAND
        cpu = mem = tx = rx = dr = dw = 0.0
        for s in self.active(t):
            cpu += s.cpu
            mem += s.memory
            tx += s.net_tx
            rx += s.net_rx
            dr += s.disk_read
            dw += s.disk_write
        return MappingProxyType(
            {"cpu": cpu, "memory": int(mem), "net_tx": tx, "net_rx": rx,
             "disk_read": dr, "disk_write": dw})

    def integrate(self, attr: str, t0: float, t1: float) -> float:
        """Integral of one demand attribute over ``[t0, t1]``.

        Exact for the piecewise-constant model: each segment contributes
        ``value * overlap``.
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        for s in self._segments:
            if s.start >= t1:
                break
            overlap = min(s.end, t1) - max(s.start, t0)
            if overlap > 0:
                total += getattr(s, attr) * overlap
        return total

    def change_points(self, t0: float, t1: float) -> List[float]:
        """Times in ``(t0, t1)`` where aggregate demand changes."""
        points = set()
        for s in self._segments:
            for p in (s.start, s.end):
                if t0 < p < t1:
                    points.add(p)
        return sorted(points)


class WorkloadGenerator:
    """Generates deterministic job-like workload patterns.

    The generated shapes mirror the cluster usage the paper's monitoring
    sections care about: compute phases with high CPU, communication phases
    with network traffic, and memory that ramps and holds.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def hpc_job(self, start: float, *, phases: Optional[int] = None,
                phase_duration: Tuple[float, float] = (20.0, 120.0),
                cpu_range: Tuple[float, float] = (0.6, 1.0),
                memory_range: Tuple[int, int] = (256 << 20, 2048 << 20),
                comm_fraction: float = 0.25,
                net_rate: float = 8e6,
                tag: str = "job") -> List[WorkloadSegment]:
        """A bulk-synchronous job: alternating compute and comm phases."""
        if phases is None:
            phases = int(self.rng.integers(3, 9))
        mem = int(self.rng.integers(memory_range[0], memory_range[1] + 1))
        t = start
        segments: List[WorkloadSegment] = []
        for _ in range(phases):
            dur = float(self.rng.uniform(*phase_duration))
            compute = dur * (1.0 - comm_fraction)
            comm = dur * comm_fraction
            cpu = float(self.rng.uniform(*cpu_range))
            segments.append(WorkloadSegment(
                start=t, duration=compute, cpu=cpu, memory=mem, tag=tag))
            segments.append(WorkloadSegment(
                start=t + compute, duration=comm, cpu=cpu * 0.3, memory=mem,
                net_tx=net_rate, net_rx=net_rate, tag=tag))
            t += dur
        return segments

    def background_noise(self, start: float, duration: float,
                         *, level: float = 0.03,
                         tag: str = "system") -> List[WorkloadSegment]:
        """OS daemons: a low constant CPU/memory floor."""
        return [WorkloadSegment(
            start=start, duration=duration, cpu=level,
            memory=64 << 20, tag=tag)]

    def io_heavy_job(self, start: float, *, duration: float = 300.0,
                     write_rate: float = 40e6, read_rate: float = 20e6,
                     tag: str = "io-job") -> List[WorkloadSegment]:
        """A checkpoint-style job dominated by disk traffic."""
        return [WorkloadSegment(
            start=start, duration=duration, cpu=0.2,
            memory=512 << 20, disk_read=read_rate, disk_write=write_rate,
            tag=tag)]

    def memory_ramp(self, start: float, *, steps: int = 8,
                    step_duration: float = 30.0,
                    step_bytes: int = 256 << 20,
                    tag: str = "ramp") -> List[WorkloadSegment]:
        """Memory that grows stepwise — exercises leak-style monitors."""
        return [WorkloadSegment(
            start=start + i * step_duration, duration=step_duration,
            cpu=0.4, memory=(i + 1) * step_bytes, tag=tag)
            for i in range(steps)]
