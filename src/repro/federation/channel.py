"""The simulated RPC boundary between the federation and one shard.

Every federation->shard interaction — ingest, each federated read, the
health monitor's heartbeat — asks one question first: does the shard
answer right now?  :attr:`ShardChannel.up` is the one answer, and it
reads two switches the fault plane (:mod:`repro.faults`) and tests
flip; production code never sets them:

* ``killed`` — the shard process is gone until something clears it;
* ``down_until`` — a transient outage (a wedged process, a partitioned
  link, a shard too slow to answer) ends at this sim time.

:meth:`ShardChannel.call` returns ``fn(*args)`` when the shard is up
and the caller's ``default`` when it is not: degraded reads, never an
exception.  ``held`` is the shard's ingest backlog: the federation
router queues agent updates there, in arrival order, while the shard
is down, and releases them when it answers again or its nodes are
drained to survivors.

The simulation charges no time for a call, so the channel keeps no
timeout, retry or breaker state: the switches against sim time are all
a caller can observe.  A federation whose channels never trip is
*observably identical* to one without them, which is what keeps the
flat vs 1-shard golden traces byte-equal.
"""

from __future__ import annotations

from collections import deque

from repro.sim import SimKernel

__all__ = ["ShardChannel"]


class ShardChannel:
    """The fault switches and call path from the federation to one
    shard."""

    __slots__ = ("kernel", "shard", "killed", "down_until", "held",
                 "calls", "dropped_ingests")

    def __init__(self, kernel: SimKernel, shard):
        self.kernel = kernel
        self.shard = shard
        # -- fault switches (fault plane / tests only) --------------------
        #: the shard process is gone until explicitly restored.
        self.killed = False
        #: the shard answers nothing until this sim time.
        self.down_until = 0.0
        #: agent updates waiting for this shard, oldest first; only the
        #: federation router appends to or releases it.
        self.held: deque = deque()
        # -- counters ------------------------------------------------------
        self.calls = 0
        #: held updates that aged past the fail-over deadline before
        #: anyone could apply them: the only ingest loss an outage has.
        self.dropped_ingests = 0

    @property
    def up(self) -> bool:
        """Does the shard answer at this sim instant?"""
        return not self.killed and self.kernel.now >= self.down_until

    def call(self, fn, *args, default=None):
        """``fn(*args)`` when the shard is up, else ``default``."""
        self.calls += 1
        return fn(*args) if self.up else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<ShardChannel {self.shard.name} {state}>"
