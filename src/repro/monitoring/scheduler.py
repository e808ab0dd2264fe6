"""Shared agent scheduler: one kernel process drives a whole cohort.

A :class:`~repro.monitoring.agent.NodeAgent` that owns its generator
process costs a kernel entry plus a full generator resume per sample; at
10k nodes on a 5 s interval that is 2000 resumes per simulated second of
pure bookkeeping.  The scheduler collapses a cohort into one process per
interval: each tick it calls ``agent.tick()`` synchronously over the
bucket in registration order — the exact order one process per agent
produces, since agent bootstraps fire in registration order and periodic
timeouts preserve that FIFO order forever — then arms a single shared
timeout.

Agents registered after their bucket started ticking would join
mid-phase; the facade instead starts hot-added agents with their own
driver process (``NodeAgent.start()``: their first sample must land at
the add instant, which in general shares no phase with any existing
bucket).
"""

from __future__ import annotations

from typing import Dict, List

from repro.monitoring.agent import NodeAgent
from repro.sim import SimKernel

__all__ = ["AgentScheduler"]


class _Bucket:
    __slots__ = ("interval", "agents", "alive")

    def __init__(self, interval: float):
        self.interval = interval
        self.agents: List[NodeAgent] = []
        self.alive = True


class AgentScheduler:
    """Drives registered agents from one process per interval."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._buckets: Dict[float, _Bucket] = {}

    @property
    def agent_count(self) -> int:
        return sum(len(b.agents) for b in self._buckets.values()
                   if b.alive)

    @property
    def bucket_count(self) -> int:
        return sum(1 for b in self._buckets.values() if b.alive)

    def register(self, agent: NodeAgent) -> None:
        """Adopt an agent: activate it and drive its sampling.

        The agent's first sample lands on its bucket's next tick — for a
        fresh bucket, immediately (matching ``NodeAgent.start()``).
        """
        agent.scheduled_start()
        bucket = self._buckets.get(agent.interval)
        if bucket is None or not bucket.alive:
            bucket = self._buckets[agent.interval] = _Bucket(agent.interval)
            self.kernel.process(self._drive(bucket),
                                name=f"agent-sched:{agent.interval:g}")
        bucket.agents.append(agent)

    def _drive(self, bucket: _Bucket):
        while True:
            agents = bucket.agents
            prune = False
            for agent in agents:
                if agent.running:
                    agent.tick()
                else:
                    prune = True
            if prune:
                bucket.agents = [a for a in agents if a.running]
                if not bucket.agents:
                    bucket.alive = False
                    return
            yield self.kernel.timeout(bucket.interval)
