"""ClusterWorX Lite — the entry-level variant.

The product line shipped a "Lite" edition: monitoring and event handling
for clusters *without* the ICE Box hardware.  Functionally that means:

* same agents, monitors, history and threshold rules;
* **no out-of-band control** — actions degrade to their soft forms (a
  crashed node cannot be power-cycled, only noticed);
* no image cloning (no clone environment to netboot into);
* single-tier: the in-process store is queried directly, no auth layer.

Useful both as the small-deployment API and as the built-in baseline
showing what the ICE Box adds (see tests/test_lite.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.statestore import StateStore, Update
from repro.events.actions import ActionDispatcher
from repro.events.engine import EventEngine, FiredEvent
from repro.events.notification import EmailGateway, SmartNotifier
from repro.events.rules import ThresholdRule
from repro.firmware.bios import LinuxBIOS, install_firmware
from repro.hardware.node import NodeState, SimulatedNode
from repro.monitoring.agent import NodeAgent
from repro.monitoring.history import HistoryStore
from repro.monitoring.monitors import MonitorRegistry, builtin_registry
from repro.monitoring.scheduler import AgentScheduler
from repro.sim import RandomStreams, SimKernel

__all__ = ["ClusterWorXLite"]


class ClusterWorXLite:
    """Monitoring + events for an unmanaged pile of nodes."""

    def __init__(self, n_nodes: int = 8, *, seed: int = 0,
                 name: str = "lite", monitor_interval: float = 5.0,
                 registry: Optional[MonitorRegistry] = None):
        self.kernel = SimKernel()
        self.streams = RandomStreams(seed)
        self.name = name
        self.registry = registry if registry is not None \
            else builtin_registry()
        self.nodes: List[SimulatedNode] = []
        for i in range(n_nodes):
            node = SimulatedNode(self.kernel, f"{name}-n{i:03d}",
                                 node_id=i + 1)
            install_firmware(node, LinuxBIOS())
            self.nodes.append(node)
        self.history = HistoryStore()
        self.email = EmailGateway()
        self.notifier = SmartNotifier(self.kernel, name,
                                      gateways=[self.email])
        # No resolver: there is no ICE Box. Soft actions only.
        self.engine = EventEngine(
            self.kernel, dispatcher=ActionDispatcher(resolver=None),
            notifier=self.notifier)
        # Same typed store as the full server — Lite keeps the single
        # tier but still gets O(1) rollups and the subscription bus.
        self.store = StateStore()
        for node in self.nodes:
            self.store.track(node.hostname)
        self.store.subscribe(self.history.ingest, name="history")
        self.store.subscribe(self._feed_engine, name="events")
        self.agents: Dict[str, NodeAgent] = {
            node.hostname: NodeAgent(
                self.kernel, node, self.registry,
                interval=monitor_interval,
                on_sample=self.store.apply)
            for node in self.nodes}
        self.scheduler = AgentScheduler(self.kernel)
        self._started = False

    # ------------------------------------------------------------------
    def _feed_engine(self, update: Update) -> None:
        self.engine.feed(self.node(update.hostname), update.values)

    def node(self, hostname: str) -> SimulatedNode:
        for node in self.nodes:
            if node.hostname == hostname:
                return node
        raise KeyError(hostname)

    @property
    def hostnames(self) -> List[str]:
        return [n.hostname for n in self.nodes]

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.power_on()
        self.kernel.run(self.kernel.all_of(
            [n.wait_state(NodeState.UP, NodeState.CRASHED)
             for n in self.nodes]))
        for agent in self.agents.values():
            self.scheduler.register(agent)

    def run(self, seconds: float) -> None:
        self.kernel.run(until=self.kernel.now + seconds)

    # -- the Lite feature set --------------------------------------------------
    def add_threshold(self, name: str, *, metric: str, op: str,
                      threshold: object, action: str = "none",
                      severity: str = "warning") -> ThresholdRule:
        rule = ThresholdRule(name=name, metric=metric, op=op,
                             threshold=threshold, action=action,
                             severity=severity)
        self.engine.add_rule(rule)
        return rule

    def current(self, hostname: str):
        return self.store.get(hostname)

    def cluster_summary(self) -> Dict[str, object]:
        """The same O(1) rollup the full server serves."""
        summary = self.store.summary()
        summary["events_active"] = self.engine.active_count()
        return summary

    def fired_events(self) -> List[FiredEvent]:
        return list(self.engine.fired)

    def emails(self) -> List:
        return list(self.email.inbox)
