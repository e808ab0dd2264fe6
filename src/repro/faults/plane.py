"""The control-plane fault plane: scheduled faults against the
federation and gateway.

:class:`FaultPlane` is the only production code allowed to flip the
:class:`~repro.federation.channel.ShardChannel` fault switches and the
gateway's publication stall.  Every fault is **scheduled** — a kernel
process sleeps until the injection time and flips the switch *then* —
because ``down_until`` is an absolute sim time: a switch set early
would start the fault early.

Fault kinds:

=========== =========================================================
kind        effect
=========== =========================================================
shard-kill  the shard process dies: ``channel.killed`` is set and the
            shard's sweep stops, so it publishes nothing of its own; a
            duration clears the switch later and restarts the sweep of
            a shard not yet failed over, but a shard already failed
            over stays drained (no re-admission path yet)
shard-hang  one mechanism under three labels — :meth:`FaultPlane.outage`
link-down   sets ``channel.down_until = at + duration``: a wedged
shard-slow  process, a partitioned link and a shard too slow for its
            callers all look the same from the federation
pub-stall   the gateway republishes nothing until ``at + duration``
            (watchers see heartbeats, polls see the last snapshot)
=========== =========================================================

The plane itself draws no randomness — callers (a
:class:`~repro.faults.campaign.ChaosCampaign`, a test, an operator)
decide *what* to break and *when*; the plane only makes it happen at
the right sim time and keeps the audit trail.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

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

#: the labels :meth:`FaultPlane.outage` accepts.
_OUTAGE_KINDS: Tuple[str, ...] = (SHARD_HANG, SHARD_SLOW, LINK_DOWN)

#: injections a plane logs (the newest).
INJECTIONS_KEPT = 10_000


class FaultPlane:
    """Deterministic, sim-clock-driven control-plane fault injector."""

    def __init__(self, kernel: SimKernel, *, federation=None,
                 gateway_state=None):
        self.kernel = kernel
        self.federation = federation
        self.gateway_state = gateway_state
        #: audit trail: (at, kind, target, duration-or-None).
        self.injections = RecordLog(INJECTIONS_KEPT)

    # -- scheduling ----------------------------------------------------------
    def _at(self, at: float, fn, name: str) -> None:
        """Run ``fn`` at sim time ``at`` (immediately if in the past)."""
        def proc():
            yield self.kernel.timeout(max(at - self.kernel.now, 0.0))
            fn()
        self.kernel.process(proc(), name=name)

    def _shard(self, index: int):
        if self.federation is None:
            raise ValueError("fault plane has no federation attached")
        return self.federation.shards[index]

    def _record(self, at: float, kind: str, target: str,
                duration: Optional[float]) -> None:
        self.injections.append((at, kind, target, duration))

    # -- shard faults --------------------------------------------------------
    def kill_shard(self, index: int, at: float,
                   duration: Optional[float] = None) -> None:
        """The shard process dies at ``at``: its channel stops
        answering and its server stops sweeping.  With a ``duration``
        the kill switch clears at ``at + duration``: a shard revived
        before the monitor fails it over (down -> drained) resumes in
        place, sweep and all, but a drained one stays drained — owning
        no nodes and never probed — because nothing re-admits a
        drained shard yet."""
        shard = self._shard(index)
        channel = shard.channel
        self._record(at, SHARD_KILL, shard.name, duration)

        def kill():
            channel.killed = True
            shard.server.stop_sweep()
        self._at(at, kill, f"fault-kill-{index}")
        if duration is not None:
            def revive():
                channel.killed = False
                if shard.active:
                    shard.server.start_sweep()
            self._at(at + duration, revive, f"fault-revive-{index}")

    def outage(self, index: int, at: float, duration: float,
               kind: str) -> None:
        """The shard answers nothing from ``at`` for ``duration``.
        ``kind`` (``shard-hang``, ``link-down`` or ``shard-slow``) only
        labels the audit row: the three are one outage to the
        federation."""
        if kind not in _OUTAGE_KINDS:
            raise ValueError(f"unknown outage kind {kind!r}")
        channel = self._shard(index).channel
        self._record(at, kind, channel.shard.name, duration)

        def down():
            channel.down_until = max(channel.down_until, at + duration)
        self._at(at, down, f"fault-{kind}-{index}")

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
