"""The ClusterWorX server — the middle of the 3-tier design (§5.1).

Tier 1 is the node agents, tier 3 the (multiple, concurrent) clients; this
server sits between: it receives typed monitoring updates, owns the
:class:`~repro.core.statestore.StateStore` (current view, incremental
rollups, versioned snapshots), runs the event engine over every update,
performs the UDP-echo connectivity sweep, and exposes query/command entry
points that client sessions call.

"The 3-tier design allows multiple clients to access the ClusterWorX
server at the same time without conflict" — queries are O(1) reads of
the store's running aggregates and copy-on-write snapshots; history and
the event engine consume updates through the store's subscription bus
rather than being hard-wired into the receive path; commands serialize
through the single simulation timeline.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Mapping, Optional

from repro.core.auth import AuthManager, Role
from repro.core.cluster import Cluster
from repro.core.statestore import Snapshot, StateStore, Subscription, Update
from repro.events.actions import ActionContext, ActionDispatcher
from repro.events.engine import EventEngine
from repro.events.notification import SmartNotifier
from repro.events.rules import ThresholdRule
from repro.hardware.node import NodeState, SimulatedNode
from repro.imaging.manager import ImageManager
from repro.imaging.multicast_clone import MulticastCloner
from repro.monitoring.history import HistoryStore
from repro.monitoring.monitors import MonitorRegistry, builtin_registry
from repro.remote.engine import TaskEngine
from repro.resilience.health import HealthState, HealthTracker
from repro.resilience.orchestrator import (RecoveryChannels,
                                           RecoveryOrchestrator)
from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["CONSOLE_KEPT", "ClusterWorXServer", "ServerSurface"]

#: console writes the server archives per node (the newest).
CONSOLE_KEPT = 2000


class ServerSurface:
    """The tier-3 surface (§5.1) both topologies answer, written once.

    It builds the client-facing organs (:attr:`remote`, :attr:`auth`,
    :attr:`images`, :attr:`cloner`), which reach nodes over the fabric
    whichever server monitors them.  A subclass provides ``store`` and
    ``engine`` (the flat organs or their federated views) and
    ``managed_nodes``; the methods read only those, the organs and
    ``cluster``.
    """

    def __init__(self, kernel: SimKernel, cluster: Cluster,
                 images: Optional[ImageManager]):
        self.kernel = kernel
        self.cluster = cluster
        #: parallel fan-out engine over the managed nodes (repro.remote);
        #: its jitter draws from the dedicated "remote" stream.
        self.remote = TaskEngine(kernel, cluster=cluster,
                                 rng=cluster.streams("remote"))
        self.auth = AuthManager()
        self.auth.add_user("admin", "admin", Role.ADMIN)
        #: image catalog; federation passes one shared manager so an
        #: image registered once is clonable from every shard.
        self.images = images if images is not None else ImageManager()
        self.cloner = MulticastCloner(
            kernel, cluster.fabric, cluster.management,
            rng=cluster.streams("clone"))

    # -- tier-3 queries ------------------------------------------------------
    def current(self, hostname: str) -> Mapping[str, object]:
        """One node's merged current values (immutable, zero-copy)."""
        return self.store.get(hostname)

    def current_all(self) -> Snapshot:
        """The versioned all-nodes view.  O(1): snapshots share state
        copy-on-write instead of deep-copying per query."""
        return self.store.snapshot()

    def subscribe(self, callback, *, name: str = "client",
                  hosts: Optional[List[str]] = None,
                  metrics: Optional[List[str]] = None) -> Subscription:
        """Register a consumer for pushed deltas (tier-3 watch API)."""
        return self.store.subscribe(callback, name=name, hosts=hosts,
                                    metrics=metrics)

    def last_seen(self, hostname: str) -> Optional[float]:
        return self.store.last_seen(hostname)

    def cluster_summary(self) -> Dict[str, object]:
        """Cluster-level rollup for the main monitoring screen (§5.1
        "view cluster use and performance trends").  An O(1) read of the
        store's running aggregates — no per-node rescan."""
        summary = self.store.summary()
        summary["events_active"] = self.engine.active_count()
        return summary

    # -- tier-3 commands ----------------------------------------------------
    def add_rule(self, rule: ThresholdRule) -> None:
        self.engine.add_rule(rule)

    def power(self, hostname: str, operation: str) -> str:
        """Out-of-band power control through the node's ICE Box.

        Issued over NIMP from the management host — the exact wire path
        the product used (§3.4: "native command protocols which can be
        used with ClusterWorX ... NIMP uses the onboard ethernet").
        """
        node = self.cluster.node(hostname)
        located = self.cluster.locate(node)
        if located is None:
            return "ERR: node has no ICE Box"
        box, port = located
        commands = {"on": f"POWER ON {port}", "off": f"POWER OFF {port}",
                    "cycle": f"POWER CYCLE {port}",
                    "reset": f"RESET {port}"}
        command = commands.get(operation.lower())
        if command is None:
            return f"ERR: unknown power operation {operation!r}"
        nimp = self.cluster.nimp[box.name]
        response = nimp.handle_request(self.cluster.management.ip,
                                       f"{nimp.VERSION} {command}\n")
        # Strip the NIMP framing back off for the caller.
        return response.rstrip("\n").split(" ", 1)[1]

    def console_tail(self, hostname: str, lines: int = 20) -> List[str]:
        """Post-mortem view of a node's serial buffer via its ICE Box."""
        node = self.cluster.node(hostname)
        located = self.cluster.locate(node)
        if located is None:
            return []
        box, port = located
        return box.console(port).tail(lines)

    def clone_image(self, image_name: str,
                    hostnames: Optional[List[str]] = None, *,
                    reboot: bool = True):
        """Start a multicast clone; returns the clone process (yieldable).

        The caller runs the kernel to completion (or past it) and reads the
        process value — a :class:`~repro.imaging.multicast_clone.CloneReport`.
        One stream reaches every target, shard boundaries or not.
        """
        image = self.images.get(image_name)
        if hostnames is None:
            targets = self.managed_nodes
        else:
            targets = [self.cluster.node(h) for h in hostnames]
        self.images.assign(targets, image_name)
        return self.cloner.clone(targets, image, reboot=reboot)



class ClusterWorXServer(ServerSurface):
    """Tier 2: state store, history, events, commands.

    A server manages a set of nodes *exclusively*: by default the whole
    cluster (the classic flat topology), or — under
    :mod:`repro.federation` — one partition of it, passed as ``nodes``.
    Every loop and default target (the connectivity sweep, staleness
    queries, whole-cluster clones) ranges over the managed set, never
    the raw cluster, so shards sharing one :class:`Cluster` never
    double-observe a node.
    """

    #: connectivity-sweep period (s).
    sweep_interval = 10.0
    #: the image a reclone rung restores when none is assigned.
    recovery_image = "compute-harddisk"
    #: the probe rung's echo deadline (s).
    probe_timeout = 15.0

    def __init__(self, kernel: SimKernel, cluster: Cluster, *,
                 registry: Optional[MonitorRegistry] = None,
                 notifier: Optional[SmartNotifier] = None,
                 self_healing: bool = False,
                 suspect_after: float = 30.0,
                 down_after: float = 60.0,
                 nodes: Optional[List[SimulatedNode]] = None,
                 images: Optional[ImageManager] = None):
        super().__init__(kernel, cluster, images)
        self.registry = registry if registry is not None \
            else builtin_registry()
        self.history = HistoryStore()
        self.notifier = notifier if notifier is not None \
            else SmartNotifier(kernel, cluster.name)
        self.dispatcher = ActionDispatcher(
            resolver=cluster.locate,
            context=ActionContext(cluster=cluster, remote=self.remote,
                                  resolver=cluster.group_resolver()))
        self.engine = EventEngine(kernel, dispatcher=self.dispatcher,
                                  notifier=self.notifier)
        #: the typed current-state store every consumer hangs off.
        self.store = StateStore()
        self.store.subscribe(self.history.ingest, name="history")
        self.store.subscribe(self._feed_engine, name="events")
        # -- self-healing loop (repro.resilience) ------------------------
        #: gate for the whole loop: with it off (the default) the tracker
        #: never observes evidence and behavior is identical to before.
        self.self_healing = self_healing
        self.health = HealthTracker(kernel, suspect_after=suspect_after,
                                    down_after=down_after)
        self.health.add_listener(self._on_health_transition)
        self.recovery = RecoveryOrchestrator(
            kernel, self.health,
            RecoveryChannels(
                node=cluster.node,
                probe=self._probe_node,
                ice_reset=self._ice_reset,
                power_cycle=self._power_cycle,
                reclone=self._reclone_node,
                drain=self._drain_node,
                notify=self._notify_quarantine))
        self.engine.add_listener(self._on_event_fired)
        #: optional resource manager (quarantine drains through it).
        self._slurm = None
        #: staleness baseline for nodes whose agent has never reported.
        self._health_epoch: Optional[float] = None
        self.updates_received = 0
        self._sweep_seq = 0
        #: the running sweep loop, killed by stop_sweep.
        self._sweep_proc = None
        # §3.3: console output "is captured and logged through the ICE
        # Box" — the server archives every port's serial stream beyond
        # the box's own 16 KiB buffer.
        self._console_archive: Dict[str, RecordLog] = {}
        self._console_hosts: List[str] = []
        #: hostname -> node for the nodes this server manages; insertion
        #: order is tracking order, which is the sweep order (it must be
        #: deterministic for golden-trace parity).
        self._managed: Dict[str, SimulatedNode] = {}
        #: hostname -> (console, sink) so forget_node can detach the
        #: archive subscription instead of leaking it on the ICE Box.
        self._console_subs: Dict[str, tuple] = {}
        for node in (cluster.nodes if nodes is None else nodes):
            self.track_node(node)

    # -- node membership ---------------------------------------------------
    def track_node(self, node: SimulatedNode) -> None:
        """Start managing a node: registered in the store's rollup and
        its serial console archived.  Called for every managed node at
        construction, by the facade on hot add, and by the federation
        layer when rebalancing hands this server a node."""
        if self.store.is_tracked(node.hostname):
            return
        self.store.track(node.hostname)
        self._managed[node.hostname] = node
        located = self.cluster.locate(node)
        if located is not None:
            box, port = located
            console = box.console(port)
            sink = self._make_console_sink(node.hostname)
            console.subscribe(sink)
            self._console_subs[node.hostname] = (console, sink)

    def forget_node(self, hostname: str) -> None:
        """Drop every server-side trace of a removed node: current
        state and rollup contributions, freshness, history series,
        console archive (and its ICE Box subscription), and per-node
        event-engine state.  Without this a hot-removed node leaks
        into summaries and queries forever."""
        self.recovery.forget(hostname)   # abort any live playbook first
        self.health.forget(hostname)
        self.store.forget(hostname)
        self.history.forget(hostname)
        if self._console_archive.pop(hostname, None) is not None:
            del self._console_hosts[
                bisect_left(self._console_hosts, hostname)]
        sub = self._console_subs.pop(hostname, None)
        if sub is not None:
            console, sink = sub
            console.unsubscribe(sink)
        self._managed.pop(hostname, None)
        self.engine.forget_node(hostname)

    @property
    def managed_nodes(self) -> List[SimulatedNode]:
        """The nodes this server manages, in tracking order."""
        return list(self._managed.values())

    @property
    def managed_hostnames(self) -> List[str]:
        return sorted(self._managed)

    def _make_console_sink(self, hostname: str):
        def _sink(text: str) -> None:
            archive = self._console_archive.get(hostname)
            if archive is None:
                archive = self._console_archive[hostname] = \
                    RecordLog(CONSOLE_KEPT)
                insort(self._console_hosts, hostname)
            archive.append((self.kernel.now, text))
        return _sink

    # -- console archive -----------------------------------------------------
    def console_archive(self, hostname: str, *,
                        since: float = 0.0) -> List[tuple[float, str]]:
        """The server-side permanent console log for one node."""
        return [(t, text) for t, text in
                self._console_archive.get(hostname, [])
                if t >= since]

    def console_search(self, pattern: str
                       ) -> List[tuple[str, float, str]]:
        """Find ``pattern`` across every node's archived console output.

        Walks a sorted host list maintained on first archive write (no
        per-call re-sort of the archive dict) and skips hosts whose
        archive is empty."""
        hits = []
        for hostname in self._console_hosts:
            entries = self._console_archive[hostname]
            if not entries:
                continue
            for t, text in entries:
                if pattern in text:
                    hits.append((hostname, t, text.strip()))
        return hits

    # -- tier-1 entry point -------------------------------------------------
    def ingest(self, update: Update) -> None:
        """Apply one typed update: the store merges it, maintains the
        rollup, and pushes it to every subscriber (history, events,
        watching clients)."""
        self.updates_received += 1
        self.store.apply(update)

    def _feed_engine(self, update: Update) -> None:
        """Store subscriber: evaluate threshold rules on each update,
        against the row the store has just merged it into (the store
        replaces a host's row on every write and never mutates one)."""
        try:
            node = self.cluster.node(update.hostname)
        except KeyError:
            return
        self.engine.feed(node, update.values,
                         self.store.get(update.hostname))

    # -- connectivity sweep (the UDP echo check, §5.1) -------------------------
    def start_sweep(self) -> None:
        if self._sweep_proc is not None and self._sweep_proc.is_alive:
            return
        if self._health_epoch is None:
            self._health_epoch = self.kernel.now
        self._sweep_proc = self.kernel.process(self._sweep_loop(),
                                               name="cwx-sweep")

    def stop_sweep(self) -> None:
        """End the sweep loop now, not at its next wake-up: a restart
        inside one ``sweep_interval`` must not leave two loops."""
        if self._sweep_proc is not None:
            self._sweep_proc.kill()
        self._sweep_proc = None

    def _sweep_loop(self):
        while True:
            now = self.kernel.now
            # Each sentinel update is ingested the instant the pass
            # finds it: under self-healing the event firings it causes
            # are health evidence for the ``evaluate`` just below.
            # So the membership is snapshotted: a health transition
            # observed mid-sweep can trigger forget_node from a
            # subscriber.
            for node in list(self._managed.values()):
                if not self.store.is_tracked(node.hostname):
                    continue  # hot-removed earlier in this same pass
                reachable = 1 if (node.is_running()
                                  and node.state is not NodeState.HUNG
                                  and node.nic.health > 0.05) else 0
                current = self.store.get(node.hostname)
                if (current.get("udp_echo") != reachable
                        or current.get("node_state")
                        != node.state.value):
                    self._sweep_seq += 1
                    self.ingest(Update(
                        hostname=node.hostname, time=now,
                        values={"udp_echo": reachable,
                                "node_state": node.state.value},
                        source="sweep", seq=self._sweep_seq))
                if self.self_healing:
                    self.health.evaluate(
                        node.hostname,
                        age=self._staleness_age(node.hostname),
                        reachable=bool(reachable),
                        node_state=node.state.value)
            yield self.kernel.timeout(self.sweep_interval)

    def _staleness_age(self, hostname: str) -> float:
        """Seconds since the node's agent last reported; agents that
        never reported age from the sweep epoch."""
        last = self.store.last_agent_seen(hostname)
        if last is None:
            last = self._health_epoch if self._health_epoch is not None \
                else self.kernel.now
        return max(self.kernel.now - last, 0.0)

    # -- topology questions (the federation's answers, for one server) -----
    def stale_nodes(self, max_age: float) -> List[str]:
        """Nodes whose agents have gone quiet for longer than ``max_age``."""
        now = self.kernel.now
        out = []
        for hostname in self.managed_hostnames:
            t = self.store.last_seen(hostname)
            if t is None or now - t > max_age:
                out.append(hostname)
        return out

    def degraded_info(self) -> Dict[str, object]:
        """The gateway's degradation verdict.  A flat server has no
        shard to lose, so it is never degraded."""
        return {"degraded": False, "stale_shards": [], "staleness_s": 0.0}

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard observability rows (the gateway's /v1/shards): the
        flat server reports itself as one synthetic shard, so the
        endpoint shape is topology-independent."""
        return [{
            "index": 0,
            "name": "flat",
            "active": True,
            "health": "healthy",
            "heartbeat_age": 0.0,
            "nodes": len(self.store),
            "updates_received": self.updates_received,
            "generation": self.store.generation,
            "events_active": self.engine.active_count(),
        }]

    # -- self-healing loop (repro.resilience wiring) -------------------------
    def attach_slurm(self, controller) -> None:
        """Connect a resource manager so quarantine can drain nodes."""
        self._slurm = controller

    def _on_health_transition(self, hostname: str, old: HealthState,
                              new: HealthState, reason: str) -> None:
        """HealthTracker listener: publish degradations as synthetic
        monitoring updates and hand ``down`` nodes to the orchestrator."""
        if new in (HealthState.SUSPECT, HealthState.DOWN):
            self._sweep_seq += 1
            self.ingest(Update(
                hostname=hostname, time=self.kernel.now,
                values={"health_state": new.value,
                        "last_seen_age": self._staleness_age(hostname)},
                source="health", seq=self._sweep_seq))
        if new is HealthState.DOWN and self.self_healing:
            self.recovery.recover(hostname, reason)

    def _on_event_fired(self, event, rule) -> None:
        """EventEngine listener: critical firings are health evidence."""
        if self.self_healing:
            self.health.note_event(event.node, event.rule, rule.severity)

    # -- recovery channels (what a playbook may do to a node) ----------------
    def _probe_node(self, hostname: str):
        """Playbook rung 1: one fan-out echo against the node."""
        task = self.remote.run("echo alive", [hostname],
                               timeout=self.probe_timeout, retries=0)
        yield task.done
        result = task.results.get(hostname)
        return bool(result is not None and result.ok)

    def _ice_reset(self, hostname: str) -> str:
        """Playbook rung 2: assert the ICE Box reset line."""
        return self.power(hostname, "reset")

    def _power_cycle(self, hostname: str) -> str:
        """Playbook rung 3: power-cycle the node's outlet."""
        return self.power(hostname, "cycle")

    def _reclone_node(self, hostname: str):
        """Playbook rung 4: reclone the node's assigned (or the default
        recovery) image and reboot it into it."""
        node = self.cluster.node(hostname)
        image = self.images.assigned_image(node)
        if image is None:
            try:
                image = self.images.get(self.recovery_image)
            except KeyError:
                return (False, "no recovery image available")
        if not node.is_running():
            # The clone stream needs a running OS buffering it; try to
            # bring the node up first (the rung fails if it can't boot).
            # The cycle takes the other rungs' path, so a dead ICE Box
            # fails the rung here.
            answer = self.power(hostname, "cycle")
            if not answer.startswith("OK"):
                return (False, answer)
            up = node.wait_state(NodeState.UP)
            fired = yield self.kernel.any_of(
                [up, self.kernel.timeout(120.0)])
            if up not in fired:
                return (False, "node failed to boot for recloning")
        report = yield self.clone_image(image.name, [hostname])
        if hostname in report.cloned:
            return (True, f"recloned {image.name}")
        return (False, "reclone did not complete")

    def _drain_node(self, hostname: str, reason: str) -> None:
        """Quarantine step: detach the node from the resource manager."""
        if self._slurm is not None:
            self._slurm.drain(hostname, reason)

    def _notify_quarantine(self, hostname: str, reason: str) -> None:
        """Quarantine step: page the operator (deduplicated upstream by
        the smart notifier until the event clears)."""
        self.notifier.event_triggered("node-quarantined", hostname,
                                      "quarantine", "critical")

