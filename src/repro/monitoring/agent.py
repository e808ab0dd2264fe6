"""The per-node monitoring agent: gather → consolidate → transmit (§5.3).

One :class:`NodeAgent` runs on each node, driven by the cluster's
:class:`~repro.monitoring.scheduler.AgentScheduler`.  Every ``interval``
seconds it evaluates the monitor registry, feeds the result through its
:class:`~repro.monitoring.consolidation.Consolidator`, and transmits
the surviving delta to the management node (and/or hands it to a direct
server callback — the in-process fast path the ClusterWorX server uses).

The agent also *charges itself* to the node: the measured per-sample CPU
cost (E1/E2 territory — ~110 us across the standard proc files at rung 4)
is registered as CPU overhead, so the monitoring system observes its own
footprint.  At the paper's example rate of 50 samples/s that works out to
the quoted "approximately 5 seconds of CPU time per hour".
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Optional

from repro.hardware.node import NodeState, SimulatedNode
from repro.monitoring.consolidation import Consolidator
from repro.monitoring.gathering import GATHER_PATHS, make_gatherer
from repro.monitoring.monitors import MonitorContext, MonitorRegistry
from repro.monitoring.records import Update
from repro.monitoring.transmission import Transmitter
from repro.network.fabric import NetworkFabric
from repro.procfs import ProcFilesystem
from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["ERRORS_KEPT", "NodeAgent", "PER_SAMPLE_CPU_SECONDS"]

#: CPU seconds per full sample at gathering rung 4 (sum of the per-file
#: costs measured in E2, plus sensor reads).
PER_SAMPLE_CPU_SECONDS = 110e-6

#: failed monitor evaluations an agent keeps (the newest): a plug-in
#: that fails every tick must not grow the agent without bound.
ERRORS_KEPT = 256


class NodeAgent:
    """The on-node half of the monitoring system."""

    def __init__(self, kernel: SimKernel, node: SimulatedNode,
                 registry: MonitorRegistry, *,
                 interval: float = 5.0,
                 deadband: float = 0.0,
                 fabric: Optional[NetworkFabric] = None,
                 server_node: Optional[SimulatedNode] = None,
                 on_sample: Optional[Callable[[Update], None]] = None,
                 codec=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.kernel = kernel
        self.node = node
        self.registry = registry
        self.interval = interval
        self.consolidator = Consolidator(deadband=deadband)
        self.transmitter = Transmitter(fabric, node, server_node,
                                       codec=codec)
        #: typed callback: receives the same :class:`Update` the
        #: transmitter ships (the server's ``ingest`` plugs in here).
        self.on_sample = on_sample
        self._seq = 0
        #: (time, monitor name, error text) for the newest failed monitor
        #: evaluations.
        self.errors = RecordLog(ERRORS_KEPT)
        self.samples_taken = 0
        self._running = False

    @cached_property
    def procfs(self) -> ProcFilesystem:
        """The node's simulated /proc, built on first use: only the
        validation path (:meth:`gather_proc`) reads it."""
        return ProcFilesystem(self.node)

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the agent is active (an
        :class:`~repro.monitoring.scheduler.AgentScheduler` calls
        :meth:`tick` while it is)."""
        return self._running

    def activate(self) -> None:
        """Mark the agent active and charge its sampling cost to the
        node.  The agent owns no process: ``AgentScheduler.register``
        calls this and drives :meth:`tick`."""
        self._running = True
        self.node.cpu.set_overhead(
            "monitoring", PER_SAMPLE_CPU_SECONDS / self.interval)

    def stop(self) -> None:
        self._running = False
        self.node.cpu.set_overhead("monitoring", 0.0)

    def tick(self) -> None:
        """One scheduled sample (skipped while the node is down or hung:
        of the running states, only UP samples)."""
        if self.node.state is NodeState.UP:
            self.sample_once()

    # -- one sample ---------------------------------------------------------
    def evaluate(self) -> Dict[str, object]:
        """Evaluate every registered monitor: the built-in sample, then
        the registry's plug-ins.  A failing monitor is recorded in
        :attr:`errors` and skipped rather than killing the sample."""
        ctx = MonitorContext(node=self.node, t=self.kernel.now)
        try:
            values = self.registry.sample(ctx)
        except Exception as exc:  # the plug-ins must still report
            self._failed("builtin", exc)
            values = {}
        if self.registry.overlaid:
            self.registry.overlay(ctx, values, self._failed)
        return values

    def _failed(self, name: str, exc: Exception) -> None:
        self.errors.append((self.kernel.now, name, str(exc)))

    def sample_once(self) -> Dict[str, object]:
        """Gather, consolidate, transmit. Returns the transmitted delta."""
        now = self.kernel.now
        values = self.evaluate()
        delta = self.consolidator.update(values, now)
        self.samples_taken += 1
        if delta:
            self._seq += 1
            update = Update(hostname=self.node.hostname, time=now,
                            values=delta, source="agent",
                            seq=self._seq)
            self.transmitter.transmit_update(update)
            if self.on_sample is not None:
                self.on_sample(update)
        return delta

    # -- validation path -----------------------------------------------------
    def gather_proc(self) -> Dict[str, Dict]:
        """Gather every standard proc file through the real (rung 4)
        gathering code.  Used by tests to prove the text path agrees with
        the direct model reads the fast path uses."""
        out: Dict[str, Dict] = {}
        for path in GATHER_PATHS:
            gatherer = make_gatherer("persistent", self.procfs, path)
            try:
                out[path] = gatherer.sample()
            finally:
                gatherer.close()
        return out
