"""The simulated RPC boundary between the federation and one shard.

Before this module existed every cross-shard read in the federation was
a plain attribute access: correct while a shard is a healthy in-process
object, and exactly the single point of failure the control plane is
supposed to have shed — a dead shard server would have taken every
fan-out read down with it.  :class:`ShardChannel` makes the boundary
explicit:

* **fault switches** (``killed``, ``hung_until``, ``link_down_until``,
  ``latency``) model the shard process dying, wedging, a partitioned
  federation<->shard link, and a slow shard whose responses exceed the
  RPC timeout.  They are flipped only by the fault plane
  (:mod:`repro.faults`) and by tests — production code never sets them;
* **policy** — the channel enforces the
  :class:`~repro.resilience.policy.RetryPolicy` timeout bound (a
  latency above ``policy.timeout`` is a failed call, not a slow one)
  and feeds every outcome to a per-shard
  :class:`~repro.resilience.policy.CircuitBreaker`, so a dead shard is
  fast-failed after ``failure_threshold`` consecutive misses instead of
  being hammered on every federated read;
* **degradation, not exceptions** — callers pass a ``default`` and get
  partial results when the shard is unreachable;
  :exc:`ShardUnavailable` is raised only by callers who explicitly
  opted out of a default;
* **store-and-forward** — ``held`` is the shard's ingest backlog: the
  federation router queues agent updates there, in arrival order,
  while the shard is unreachable, and releases them when the shard
  answers again or its nodes are drained to survivors.

The healthy path is a transparent pass-through (one switch check, one
breaker bookkeeping call): a federation whose channels never trip is
*observably identical* to one without them, which is what keeps the
flat vs 1-shard golden traces byte-equal.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.sim import SimKernel

__all__ = ["ShardChannel", "ShardUnavailable"]

#: sentinel: "no default given — raise on an unreachable shard".
_RAISE = object()


class ShardUnavailable(RuntimeError):
    """A cross-shard call could not reach its shard server."""

    def __init__(self, shard_name: str, reason: str, label: str = ""):
        what = f" ({label})" if label else ""
        super().__init__(f"shard {shard_name} unavailable{what}: "
                         f"{reason}")
        self.shard_name = shard_name
        self.reason = reason
        self.label = label


class ShardChannel:
    """Breaker-guarded call path from the federation to one shard."""

    __slots__ = ("kernel", "shard", "policy", "breaker",
                 "killed", "hung_until", "link_down_until", "latency",
                 "held", "calls", "failures", "fast_fails",
                 "dropped_ingests")

    def __init__(self, kernel: SimKernel, shard, *,
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.kernel = kernel
        self.shard = shard
        #: the RPC envelope: ``timeout`` bounds acceptable latency,
        #: ``backoff``/``multiplier`` pace the health monitor's
        #: re-probes after a failure.
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=2, timeout=2.0, backoff=1.0, multiplier=2.0,
            max_backoff=10.0, jitter=0.0)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            f"shard:{shard.name}", failure_threshold=3,
            reset_timeout=15.0)
        # -- fault switches (fault plane / tests only) --------------------
        #: the shard process is gone until explicitly restored.
        self.killed = False
        #: the shard is wedged (accepts nothing) until this sim time.
        self.hung_until = 0.0
        #: the federation<->shard link is partitioned until this time.
        self.link_down_until = 0.0
        #: per-call latency; above ``policy.timeout`` every call fails.
        self.latency = 0.0
        #: agent updates waiting for this shard, oldest first; only the
        #: federation router appends to or releases it.
        self.held: deque = deque()
        # -- counters ------------------------------------------------------
        self.calls = 0
        self.failures = 0
        #: calls rejected by an open breaker without touching the shard.
        self.fast_fails = 0
        #: held updates that aged past the fail-over deadline before
        #: anyone could apply them: the only ingest loss an outage has.
        self.dropped_ingests = 0

    # -- availability --------------------------------------------------------
    @property
    def up(self) -> bool:
        """Cheap availability check for the ingest hot path: no breaker
        bookkeeping, just the fault switches against sim time."""
        if self.killed or self.latency > self.policy.timeout:
            return False
        now = self.kernel.now
        return now >= self.hung_until and now >= self.link_down_until

    def fault_reason(self) -> str:
        if self.killed:
            return "killed"
        now = self.kernel.now
        if now < self.hung_until:
            return f"hung until t={self.hung_until:.1f}"
        if now < self.link_down_until:
            return f"link down until t={self.link_down_until:.1f}"
        if self.latency > self.policy.timeout:
            return (f"latency {self.latency:.1f}s exceeds "
                    f"{self.policy.timeout:.1f}s timeout")
        return "unreachable"

    def restore(self) -> None:
        """Clear every fault switch (the fault plane's un-fault)."""
        self.killed = False
        self.hung_until = 0.0
        self.link_down_until = 0.0
        self.latency = 0.0

    # -- the call path -------------------------------------------------------
    def call(self, fn, *args, default=_RAISE, label: str = ""):
        """Invoke ``fn(*args)`` on the shard through the guarded path.

        Returns ``fn``'s result on success.  When the shard is
        unreachable — or the breaker is open and fast-failing — returns
        ``default``, or raises :exc:`ShardUnavailable` when no default
        was given.  Every outcome is reported to the breaker, so
        consecutive failures open it and a later success (the
        half-open trial, typically the health monitor's probe) closes
        it again.
        """
        self.calls += 1
        now = self.kernel.now
        if not self.breaker.allow(now):
            self.fast_fails += 1
            return self._unavailable(default, "circuit open", label)
        if not self.up:
            self.failures += 1
            self.breaker.record_failure(now)
            return self._unavailable(default, self.fault_reason(), label)
        result = fn(*args)
        self.breaker.record_success(now)
        return result

    def _unavailable(self, default, reason: str, label: str):
        if default is _RAISE:
            raise ShardUnavailable(self.shard.name, reason, label)
        return default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else self.fault_reason()
        return (f"<ShardChannel {self.shard.name} {state} "
                f"breaker={self.breaker.state}>")
