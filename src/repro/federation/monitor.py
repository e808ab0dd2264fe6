"""Shard heartbeats: suspect -> dead escalation and drain-on-death.

The paper's design goal of being "tolerant of controller failure" (§6)
applied to the *sharded* control plane: a kernel process probes every
active shard through its :class:`~repro.federation.channel.ShardChannel`
on a fixed cadence, and a shard whose last good heartbeat ages past

* ``suspect_after``  is marked **suspect** (the gateway starts tagging
  responses ``degraded`` and serving that shard's data stale);
* ``down_after``     is marked **dead**, and — when more than one shard
  is still active — automatically **failed over**:
  :meth:`~repro.federation.server.FederationServer.fail_over` drains
  its nodes (state + history migrate to survivors, host-filtered
  watch subscriptions re-home, the agent updates held for the shard
  since it went silent are forwarded) and marks it dead.
  ``down_after + interval`` is therefore also how long the router
  holds an update.

A probe asks the shard's channel, the one judge of whether a shard
answers (``channel.up``): the first probe after the shard is up again
finds it back.  After a probe failure the monitor re-probes that shard
on a fixed backoff (:data:`_REPROBE`: 1 s, 2 s, 4 s, then every
``interval``) instead of waiting a full heartbeat interval, so
detection latency is bounded by the escalation thresholds, not by
probe phase.

Everything runs on the sim kernel, draws no randomness, and mutates no
store state on the healthy path, so an all-healthy monitor is invisible
to the golden traces.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.federation.rollup import _generation
from repro.federation.shard import DEAD, HEALTHY, SUSPECT, Shard

__all__ = ["ShardHealthMonitor"]

#: probe-failure sentinel (a probe result can legitimately be 0).
_FAILED = object()

#: delays before the first re-probes of a failing shard; after them it
#: is probed every ``interval``, and no delay is ever longer.
_REPROBE = (1.0, 2.0, 4.0)


class ShardHealthMonitor:
    """Heartbeat process over a federation's shards."""

    def __init__(self, federation, *, interval: float = 5.0,
                 suspect_after: float = 12.5,
                 down_after: float = 25.0,
                 auto_failover: bool = True):
        if suspect_after > down_after:
            raise ValueError("suspect_after must not exceed down_after")
        self.federation = federation
        self.kernel = federation.kernel
        self.interval = interval
        self.suspect_after = suspect_after
        self.down_after = down_after
        #: drain a dead shard automatically (needs >1 active shard).
        self.auto_failover = auto_failover
        #: (time, shard index, old health, new health) audit trail —
        #: the fault plane scores time-to-detect from these rows.
        self.transitions: List[Tuple[float, int, str, str]] = []
        self.probes = 0
        self._attempts: dict = {}
        self._proc = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            return
        for shard in self.federation.shards:
            shard.last_heartbeat = self.kernel.now
        self._proc = self.kernel.process(self._loop(),
                                         name="shard-health")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- the heartbeat loop ---------------------------------------------------
    def _loop(self):
        due = {shard.index: self.kernel.now
               for shard in self.federation.shards}
        while True:
            now = self.kernel.now
            for shard in self.federation.shards:
                if not shard.active:
                    continue
                when = due.get(shard.index, now)
                if when > now:
                    continue
                due[shard.index] = now + self._probe(shard)
            nxt = min((due.setdefault(shard.index, now)
                       for shard in self.federation.shards
                       if shard.active),
                      default=self.kernel.now + self.interval)
            yield self.kernel.timeout(max(nxt - self.kernel.now,
                                          self.interval * 0.1))

    def _probe(self, shard: Shard) -> float:
        """One heartbeat; returns the delay until this shard's next
        probe (the regular interval, or the re-probe backoff while the
        shard is failing)."""
        self.probes += 1
        now = self.kernel.now
        # The payload is one O(1) read proving the shard answers.
        result = shard.channel.call(_generation, shard, default=_FAILED)
        if result is not _FAILED:
            shard.last_heartbeat = now
            self._attempts[shard.index] = 0
            if shard.health in (SUSPECT, DEAD):
                # A suspect shard answered again — or a dead one came
                # back before anyone could adopt its nodes (the
                # single-survivor case, where fail-over is impossible).
                self._move(shard, HEALTHY)
            return self.interval
        attempts = self._attempts.get(shard.index, 0) + 1
        self._attempts[shard.index] = attempts
        age = now - shard.last_heartbeat
        if age >= self.down_after and shard.health in (HEALTHY, SUSPECT):
            self._move(shard, DEAD)
            self._fail_over(shard)
            return self.interval
        if age >= self.suspect_after and shard.health == HEALTHY:
            self._move(shard, SUSPECT)
        if attempts > len(_REPROBE):
            return self.interval
        return min(_REPROBE[attempts - 1], self.interval)

    def _move(self, shard: Shard, new: str) -> None:
        old = shard.health
        if old == new:
            return
        shard.health = new
        self.transitions.append((self.kernel.now, shard.index, old, new))

    def _fail_over(self, shard: Shard) -> None:
        survivors = sum(1 for s in self.federation.shards
                        if s.active and s.index != shard.index)
        if not self.auto_failover or survivors < 1:
            # Nothing to adopt the nodes; the shard stays dead and the
            # gateway keeps serving its last published state, tagged
            # degraded, until an operator intervenes.
            return
        self.federation.fail_over(shard.index, reason="heartbeat-loss")

    # -- observability --------------------------------------------------------
    def detected_at(self, index: int, state: str,
                    since: float = 0.0) -> Optional[float]:
        """First transition of shard ``index`` into ``state`` at or
        after ``since`` (fault-plane scoring helper)."""
        for time, shard_index, _old, new in self.transitions:
            if shard_index == index and new == state and time >= since:
                return time
        return None
