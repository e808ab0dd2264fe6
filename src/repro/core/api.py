"""The public facade: one object that assembles the whole framework.

    from repro import ClusterWorX

    cwx = ClusterWorX(n_nodes=40, seed=7)
    cwx.start()                      # boot + agents + sweep
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=70.0, action="power_down")
    cwx.run(300)                     # five simulated minutes
    session = cwx.client()
    print(session.cluster_view()[cwx.cluster.hostnames[0]])

Everything the paper's GUI exposes is reachable from here: monitoring,
historical graphs, event rules, ICE Box power control, serial consoles,
image cloning, and fault injection for drills.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.auth import Role
from repro.core.client import ClientSession, connect
from repro.core.cluster import Cluster
from repro.core.server import ClusterWorXServer
from repro.events.notification import EmailGateway, SmartNotifier
from repro.events.rules import ThresholdRule
from repro.imaging.multicast_clone import CloneReport
from repro.monitoring.agent import NodeAgent
from repro.monitoring.monitors import MonitorRegistry, builtin_registry
from repro.monitoring.plugins import load_plugin_dir
from repro.monitoring.scheduler import AgentScheduler
from repro.sim import RandomStreams, SimKernel

__all__ = ["ClusterWorX", "register_topology"]

#: topology name -> builder(kernel, cluster, *, registry, notifier,
#: shards, partition, **server_kwargs) -> server-like object.  ``flat``
#: registers below; core never imports the packages providing the
#: other topologies (the layer DAG points down), they register here on
#: import — the top-level :mod:`repro` package pulls
#: :mod:`repro.federation` in, so ``ClusterWorX(topology="federation")``
#: always finds its builder.
_TOPOLOGY_BUILDERS: Dict[str, Callable] = {}


def register_topology(name: str, builder: Callable) -> None:
    """Register a control-plane topology builder under ``name``."""
    _TOPOLOGY_BUILDERS[name] = builder


def _build_flat(kernel: SimKernel, cluster: Cluster, *, registry,
                notifier, shards: int, partition, **server_kwargs
                ) -> ClusterWorXServer:
    """The single-server topology.  Deliberately *not* a federation of
    one: the flat server is the reference the 1-shard golden replay is
    compared against."""
    return ClusterWorXServer(kernel, cluster, registry=registry,
                             notifier=notifier, **server_kwargs)


register_topology("flat", _build_flat)


class ClusterWorX:
    """The integrated cluster-management framework on a simulated cluster."""

    def __init__(self, n_nodes: int = 20, *, seed: int = 0,
                 name: str = "cluster",
                 firmware: str = "linuxbios",
                 monitor_interval: float = 5.0,
                 deadband: float = 0.0,
                 segment_capacity: float = 12.5e6,
                 plugin_dir: Optional[str] = None,
                 self_healing: bool = False,
                 topology: str = "flat",
                 shards: int = 1,
                 partition: Optional[Dict[str, str]] = None,
                 topology_options: Optional[Dict[str, object]] = None):
        # ``topology="federation"`` swaps the single server for N
        # partition shards under repro.federation's coordinator; the
        # facade surface is identical either way, and flat vs 1-shard
        # federation is golden-trace byte-identical.
        if topology == "flat" and (shards != 1 or partition is not None
                                   or topology_options):
            raise ValueError(
                "shards/partition/topology_options require "
                "topology='federation'")
        self.topology = topology
        self.kernel = SimKernel()
        self.streams = RandomStreams(seed)
        self.cluster = Cluster(self.kernel, n_nodes, name=name,
                               streams=self.streams, firmware=firmware,
                               segment_capacity=segment_capacity)
        self.registry: MonitorRegistry = builtin_registry()
        if plugin_dir is not None:
            load_plugin_dir(self.registry, plugin_dir)
        self.email = EmailGateway()
        self.notifier = SmartNotifier(self.kernel, name,
                                      gateways=[self.email])
        # Staleness thresholds scale with the agent cadence: a couple of
        # missed reports is suspicious, five is evidence (hard state
        # changes are still caught at sweep cadence regardless).
        builder = _TOPOLOGY_BUILDERS.get(topology)
        if builder is None:
            raise ValueError(
                f"unknown topology {topology!r} (registered: "
                f"{sorted(_TOPOLOGY_BUILDERS)})")
        self.server = builder(
            self.kernel, self.cluster,
            registry=self.registry, notifier=self.notifier,
            shards=shards, partition=partition,
            self_healing=self_healing,
            suspect_after=2.5 * monitor_interval,
            down_after=5.0 * monitor_interval,
            **(topology_options or {}))
        #: the one driver of every agent, cohort and hot-added alike.
        self.scheduler = AgentScheduler(self.kernel)
        self.monitor_interval = monitor_interval
        self.deadband = deadband
        self.agents: Dict[str, NodeAgent] = {}
        for node in self.cluster.nodes:
            self.agents[node.hostname] = NodeAgent(
                self.kernel, node, self.registry,
                interval=monitor_interval, deadband=deadband,
                fabric=self.cluster.fabric,
                server_node=self.cluster.management,
                on_sample=self.server.ingest)
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self, *, boot: bool = True) -> None:
        """Boot the cluster, start every agent and the connectivity sweep."""
        if self._started:
            return
        self._started = True
        if boot:
            self.cluster.boot_all()
        for agent in self.agents.values():
            self.scheduler.register(agent)
        self.server.start_sweep()

    def run(self, seconds: float) -> None:
        """Advance simulated time."""
        self.kernel.run(until=self.kernel.now + seconds)

    # -- configuration ---------------------------------------------------------
    def add_threshold(self, name: str, *, metric: str, op: str,
                      threshold: object, action: str = "none",
                      notify: bool = True, severity: str = "warning",
                      hold_time: float = 0.0,
                      clear_band: float = 0.0,
                      hosts: Optional[List[str]] = None) -> ThresholdRule:
        """Define a threshold rule; ``hosts`` restricts it to a node group."""
        rule = ThresholdRule(name=name, metric=metric, op=op,
                             threshold=threshold, action=action,
                             notify=notify, severity=severity,
                             hold_time=hold_time, clear_band=clear_band,
                             scope=frozenset(hosts) if hosts else None)
        self.server.add_rule(rule)
        return rule

    def add_user(self, username: str, password: str,
                 role: str = Role.OBSERVER) -> None:
        self.server.auth.add_user(username, password, role)

    # -- clients ---------------------------------------------------------------
    def client(self, username: str = "admin",
               password: str = "admin") -> ClientSession:
        return connect(self.server, username, password)

    # -- parallel remote execution -------------------------------------------
    @property
    def remote(self):
        """The fan-out :class:`~repro.remote.engine.TaskEngine`."""
        return self.server.remote

    def nodeset(self, pattern: str):
        """Parse ``pattern`` with this cluster's @group resolver."""
        from repro.remote.nodeset import NodeSet
        return NodeSet(pattern, resolver=self.cluster.group_resolver())

    def remote_run(self, command, targets: str = "@all", **options):
        """Fan ``command`` out over ``targets`` and run to completion.

        Returns the finished :class:`~repro.remote.engine.TaskRun`;
        ``task.report()`` is the ``clush -b`` view.
        """
        return self.remote.run_sync(command, self.nodeset(targets)
                                    if isinstance(targets, str) else targets,
                                    **options)

    # -- high-level operations ----------------------------------------------------
    def clone(self, image_name: str,
              hostnames: Optional[List[str]] = None, *,
              reboot: bool = True) -> CloneReport:
        """Clone an image and run the simulation until it completes."""
        process = self.server.clone_image(image_name, hostnames,
                                          reboot=reboot)
        return self.kernel.run(process)

    def inject_fault(self, hostname: str, kind: str, **detail):
        """Inject a fault now (drills, tests, demos)."""
        node = self.cluster.node(hostname)
        return self.cluster.faults.inject_now(node, kind, **detail)

    def add_node(self, *, power_on: bool = True) -> str:
        """Hot-add a node: wired, leased, powered, monitored.

        Returns the new hostname.  The paper's GUI equivalent: "adding a
        node to the cluster becomes as simple as a few mouse clicks".
        """
        node = self.cluster.add_node()
        self.agents[node.hostname] = agent = NodeAgent(
            self.kernel, node, self.registry,
            interval=self.monitor_interval, deadband=self.deadband,
            fabric=self.cluster.fabric,
            server_node=self.cluster.management,
            on_sample=self.server.ingest)
        self.server.track_node(node)
        box, port = self.cluster.locate(node)
        if power_on:
            box.power.power_on(port)
        if self._started:
            # The first sample lands at the add instant: once the
            # cohort's bucket has ticked the scheduler opens a fresh
            # phase for the newcomer.
            self.scheduler.register(agent)
        return node.hostname

    def remove_node(self, hostname: str) -> None:
        """Decommission a node and stop monitoring it.

        Beyond powering it off and freeing its ICE Box port, the server
        forgets all its state — current values, rollup contributions,
        history series, console archive, event-engine state — so a
        removed node cannot leak into summaries or client views."""
        node = self.cluster.node(hostname)
        agent = self.agents.pop(hostname, None)
        if agent is not None:
            agent.stop()
        self.cluster.remove_node(node)
        self.server.forget_node(hostname)

    # -- convenience views ------------------------------------------------------
    def emails(self) -> List:
        return list(self.email.inbox)

    def fired_events(self) -> List:
        return list(self.server.engine.fired)
