"""The control-plane fault plane: scheduled faults against the
federation and gateway.

:class:`FaultPlane` is the only production code allowed to flip the
:class:`~repro.federation.channel.ShardChannel` fault switches and the
gateway's publication stall.  Every fault is **scheduled** — a kernel
process sleeps until the injection time and flips the switch *then* —
because ``hung_until`` / ``link_down_until`` are absolute sim times: a
switch set early would start the fault early.

Fault kinds:

========== =========================================================
kind        effect
========== =========================================================
shard-kill  the shard process dies (``channel.killed``); a duration
            clears the switch later, but a shard already failed
            over stays drained (no re-admission path yet)
shard-hang  the shard wedges until ``at + duration``
shard-slow  every call takes ``latency`` seconds; above the channel
            policy timeout calls fail, below it the simulation does
            not model the delay and the fault has no effect
link-down   the federation<->shard link partitions for ``duration``
pub-stall   the gateway republishes nothing until ``at + duration``
            (watchers see heartbeats, polls see the last snapshot)
========== =========================================================

The plane itself draws no randomness — callers (a
:class:`~repro.faults.campaign.ControlPlan`, a test, an operator)
decide *what* to break and *when*; the plane only makes it happen at
the right sim time and keeps the audit trail.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim import SimKernel

__all__ = ["FaultPlane", "SHARD_KILL", "SHARD_HANG", "SHARD_SLOW",
           "LINK_DOWN", "PUBLISH_STALL", "CONTROL_KINDS"]

#: control-plane fault kind labels.
SHARD_KILL = "shard-kill"
SHARD_HANG = "shard-hang"
SHARD_SLOW = "shard-slow"
LINK_DOWN = "link-down"
PUBLISH_STALL = "pub-stall"

#: the shard-targeting kinds (PUBLISH_STALL targets the gateway).
CONTROL_KINDS: Tuple[str, ...] = (SHARD_KILL, SHARD_HANG, SHARD_SLOW,
                                  LINK_DOWN)


class FaultPlane:
    """Deterministic, sim-clock-driven control-plane fault injector."""

    def __init__(self, kernel: SimKernel, *, federation=None,
                 gateway_state=None):
        self.kernel = kernel
        self.federation = federation
        self.gateway_state = gateway_state
        #: audit trail: (at, kind, target, duration-or-None).
        self.injections: List[Tuple[float, str, str, Optional[float]]] = []

    # -- scheduling ----------------------------------------------------------
    def _at(self, at: float, fn, name: str) -> None:
        """Run ``fn`` at sim time ``at`` (immediately if in the past)."""
        def proc():
            yield self.kernel.timeout(max(at - self.kernel.now, 0.0))
            fn()
        self.kernel.process(proc(), name=name)

    def _channel(self, index: int):
        if self.federation is None:
            raise ValueError("fault plane has no federation attached")
        return self.federation.shards[index].channel

    def _record(self, at: float, kind: str, target: str,
                duration: Optional[float]) -> None:
        self.injections.append((at, kind, target, duration))

    # -- shard faults --------------------------------------------------------
    def kill_shard(self, index: int, at: float,
                   duration: Optional[float] = None) -> None:
        """The shard process dies at ``at``.  With a ``duration`` the
        kill switch clears at ``at + duration``: a shard revived before
        the monitor fails it over resumes in place, but one already
        failed over stays drained — inactive, ``dead``, owning no
        nodes and never probed — because nothing re-admits a drained
        shard yet."""
        channel = self._channel(index)
        self._record(at, SHARD_KILL, channel.shard.name, duration)

        def kill():
            channel.killed = True
        self._at(at, kill, f"fault-kill-{index}")
        if duration is not None:
            def revive():
                channel.killed = False
            self._at(at + duration, revive, f"fault-revive-{index}")

    def hang_shard(self, index: int, at: float, duration: float) -> None:
        """The shard wedges (accepts nothing) for ``duration``."""
        channel = self._channel(index)
        self._record(at, SHARD_HANG, channel.shard.name, duration)

        def hang():
            channel.hung_until = max(channel.hung_until, at + duration)
        self._at(at, hang, f"fault-hang-{index}")

    def slow_shard(self, index: int, at: float, duration: float, *,
                   latency: float) -> None:
        """Every call to the shard takes ``latency`` seconds for
        ``duration``; above the channel policy timeout this is a dead
        shard in slow motion, below it a no-op (call latency is not
        simulated)."""
        channel = self._channel(index)
        self._record(at, SHARD_SLOW, channel.shard.name, duration)

        def slow():
            channel.latency = latency
        self._at(at, slow, f"fault-slow-{index}")

        def recover():
            channel.latency = 0.0
        self._at(at + duration, recover, f"fault-unslow-{index}")

    def partition_link(self, index: int, at: float,
                       duration: float) -> None:
        """Partition the federation<->shard link for ``duration``."""
        channel = self._channel(index)
        self._record(at, LINK_DOWN, channel.shard.name, duration)

        def cut():
            channel.link_down_until = max(channel.link_down_until,
                                          at + duration)
        self._at(at, cut, f"fault-link-{index}")

    def restore_shard(self, index: int, at: float) -> None:
        """Clear every fault switch on the shard at ``at``."""
        channel = self._channel(index)
        self._record(at, "restore", channel.shard.name, None)
        self._at(at, channel.restore, f"fault-restore-{index}")

    # -- gateway faults ------------------------------------------------------
    def stall_gateway(self, at: float, duration: float) -> None:
        """Freeze gateway snapshot publication until ``at + duration``;
        requests keep being served from the last published view."""
        if self.gateway_state is None:
            raise ValueError("fault plane has no gateway state attached")
        self._record(at, PUBLISH_STALL, "gateway", duration)
        state = self.gateway_state

        def stall():
            state.stall(at + duration)
        self._at(at, stall, "fault-pub-stall")
