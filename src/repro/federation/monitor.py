"""Shard heartbeats: suspect -> down escalation and fail-over.

The paper's design goal of being "tolerant of controller failure" (§6)
applied to the *sharded* control plane: a kernel process probes every
active shard through its :class:`~repro.federation.channel.ShardChannel`
on a fixed cadence.  Each shard's health is a record in :attr:`health`,
a node :class:`~repro.resilience.health.HealthTracker` run on
:data:`SHARD_ALLOWED`.  A shard whose last good heartbeat ages past

* ``suspect_after``  is marked **suspect** (the gateway starts tagging
  responses ``degraded`` and serving that shard's data stale);
* ``down_after``     is marked **down**, and the tracker's down
  listener — when fail-over is on and another shard is active —
  calls :meth:`~repro.federation.server.FederationServer.fail_over`:
  it drains the shard's nodes (state + history migrate to survivors,
  host-filtered watch subscriptions re-home, the agent updates held
  for the shard since it went silent are forwarded) and the shard
  ends **drained**, never probed again.  ``down_after + interval`` is
  therefore also how long the router holds an update.

A probe asks the shard's channel, the one judge of whether a shard
answers (``channel.up``): the first probe after it is up again marks
it healthy.  After a probe failure the monitor re-probes that shard
on a fixed backoff (:data:`_REPROBE`: 1 s, 2 s, 4 s, then every
``interval``) instead of waiting a full heartbeat interval, so
detection latency is bounded by the escalation thresholds, not by
probe phase.

Everything runs on the sim kernel, draws no randomness, and mutates no
store state on the healthy path, so an all-healthy monitor is invisible
to the golden traces.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.federation.rollup import _generation
from repro.federation.shard import Shard
from repro.resilience.health import HealthState, HealthTracker

__all__ = ["ShardHealthMonitor", "SHARD_ALLOWED"]

#: the node table without the recovery states, plus a terminal drained.
SHARD_ALLOWED = {
    HealthState.HEALTHY: {HealthState.SUSPECT, HealthState.DOWN,
                          HealthState.DRAINED},
    HealthState.SUSPECT: {HealthState.HEALTHY, HealthState.DOWN,
                          HealthState.DRAINED},
    HealthState.DOWN: {HealthState.HEALTHY, HealthState.DRAINED},
    HealthState.DRAINED: set(),
}

#: probe-failure sentinel (a probe result can legitimately be 0).
_FAILED = object()

#: delays before the first re-probes of a failing shard; after them it
#: is probed every ``interval``, and no delay is ever longer.
_REPROBE = (1.0, 2.0, 4.0)


class ShardHealthMonitor:
    """Heartbeat process over a federation's shards."""

    #: heartbeat period (s), and the silence that marks a shard suspect.
    interval = 5.0
    suspect_after = 12.5

    def __init__(self, federation, *, down_after: float = 25.0,
                 auto_failover: bool = True):
        self.federation = federation
        self.kernel = federation.kernel
        #: fail a down shard over automatically (needs a survivor).
        self.auto_failover = auto_failover
        #: every shard's health record, keyed by shard name; it holds
        #: (and checks) the escalation thresholds.
        self.health = HealthTracker(
            self.kernel, suspect_after=self.suspect_after,
            down_after=down_after,
            allowed=SHARD_ALLOWED)
        self.health.add_listener(self._fail_over)
        for shard in federation.shards:
            shard.tracker = self.health
            # a same-state mark creates the shard's (healthy) record
            self.health.mark_healthy(shard.name, "tracked")
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

    @property
    def down_after(self) -> float:
        return self.health.down_after

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
            # A suspect shard answered again, or a down one whose nodes
            # nobody adopted (no survivor, or fail-over off).
            self.health.mark_healthy(shard.name, "heartbeat answered")
            return self.interval
        attempts = self._attempts.get(shard.index, 0) + 1
        self._attempts[shard.index] = attempts
        age = now - shard.last_heartbeat
        if age >= self.down_after and shard.health is not HealthState.DOWN:
            self.health.mark_down(shard.name, "heartbeat-loss")
            return self.interval
        if age >= self.suspect_after and shard.health is HealthState.HEALTHY:
            self.health.mark_suspect(shard.name, f"silent {age:.1f}s")
        if attempts > len(_REPROBE):
            return self.interval
        return min(_REPROBE[attempts - 1], self.interval)

    def _fail_over(self, name: str, old: HealthState, new: HealthState,
                   reason: str) -> None:
        """Tracker listener: fail a down shard over.  One nobody can
        adopt stays down, served stale, until it answers again."""
        shard = next(s for s in self.federation.shards if s.name == name)
        if new is HealthState.DOWN and self.auto_failover and any(
                s.active for s in self.federation.shards if s is not shard):
            self.federation.fail_over(shard.index, reason=reason)

    # -- observability --------------------------------------------------------
    @property
    def transitions(self) -> List[Tuple[float, int, str, str]]:
        """``(time, shard index, old state, new state)`` rows in time
        order, read off the health records."""
        return sorted(((time, shard.index, old.value, new.value)
                       for shard in self.federation.shards
                       for time, old, new, _reason
                       in self.health.record(shard.name).history),
                      key=lambda row: row[0])
