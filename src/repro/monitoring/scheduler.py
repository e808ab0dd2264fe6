"""Shared agent scheduler: the one driver of every node agent.

A :class:`~repro.monitoring.agent.NodeAgent` owns no process.  A kernel
process per agent would cost a kernel entry plus a full generator resume
per sample; at 10k nodes on a 5 s interval that is 2000 resumes per
simulated second of pure bookkeeping.  The scheduler drives a whole
cohort from one process: each tick it calls ``agent.tick()``
synchronously over the bucket in registration order — the exact order
one process per agent produces, since agent bootstraps fire in
registration order and periodic timeouts preserve that FIFO order
forever — then arms a single shared timeout.

A bucket is one *phase* of one interval.  An agent registered after its
interval's bucket has ticked (a hot-added node) opens a fresh bucket,
whose process bootstraps at the add instant: the agent's first sample
lands there, whatever phase the cohort is on, and agents added at one
instant share that one process.
"""

from __future__ import annotations

from typing import Dict, List

from repro.monitoring.agent import NodeAgent
from repro.sim import SimKernel

__all__ = ["AgentScheduler"]


class _Bucket:
    __slots__ = ("interval", "agents", "ticked")

    def __init__(self, interval: float):
        self.interval = interval
        #: insertion-ordered set: tick order is registration order.
        self.agents: Dict[NodeAgent, None] = {}
        self.ticked = False


class AgentScheduler:
    """Drives registered agents from one process per interval phase."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        #: interval -> its live buckets, oldest phase first.
        self._buckets: Dict[float, List[_Bucket]] = {}

    @property
    def agent_count(self) -> int:
        return sum(len(b.agents) for buckets in self._buckets.values()
                   for b in buckets)

    @property
    def bucket_count(self) -> int:
        return sum(len(buckets) for buckets in self._buckets.values())

    def register(self, agent: NodeAgent) -> None:
        """Adopt an agent: activate it and drive its sampling.

        Its first sample lands at the registration instant, in a bucket
        shared with every agent of its interval registered at that
        instant.  An agent still listed from an earlier registration
        (stopped, not yet pruned) is re-activated in place, never listed
        twice.
        """
        agent.activate()
        buckets = self._buckets.setdefault(agent.interval, [])
        if any(agent in bucket.agents for bucket in buckets):
            return
        if not buckets or buckets[-1].ticked:
            buckets.append(_Bucket(agent.interval))
            self.kernel.process(self._drive(buckets[-1]),
                                name=f"agent-sched:{agent.interval:g}")
        buckets[-1].agents[agent] = None

    def _drive(self, bucket: _Bucket):
        bucket.ticked = True
        while True:
            agents = bucket.agents
            prune = False
            for agent in agents:
                if agent.running:
                    agent.tick()
                else:
                    prune = True
            if prune:
                bucket.agents = {a: None for a in agents if a.running}
                if not bucket.agents:
                    self._buckets[bucket.interval].remove(bucket)
                    return
            yield self.kernel.timeout(bucket.interval)
