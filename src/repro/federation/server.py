"""The federation layer: N partition shards behind one server surface.

The BNL scalability argument (PAPERS.md) is that a single control-plane
owner dies at scale: every update, every sweep pass, every query lands
on one process.  The federation splits the cluster into shards — each a
full :class:`~repro.core.server.ClusterWorXServer` owning its nodes
exclusively — and keeps the coordination layer *thin*:

* **ingest routing** is one dict lookup per update (the owner map);
  updates for an unreachable shard wait on its channel and are
  forwarded, in order, when it answers again or is drained;
* **summaries** merge per-shard O(1) rollups through the
  :class:`~repro.federation.rollup.RollupCache` — O(shards), never
  O(N);
* **queries and watch subscriptions** route to owning shards by
  NodeSet and merge at the edge;
* **drain** rebalances a shard's nodes onto the surviving shards,
  migrating current state, agent freshness and history series.

The surface both topologies answer — the tier-3 queries and commands,
and the remote engine, auth, image catalog and multicast cloner that
ride the fabric whichever shard monitors a node — is written once, as
:class:`~repro.core.server.ServerSurface`, over the federated ``store``
and ``engine`` and :attr:`FederationServer.managed_nodes`.  What stays
per topology is here: ``stale_nodes``, the console archive and search,
``degraded_info``, ``shard_stats``, ``attach_slurm``, membership,
``ingest`` and the sweep.  A 1-shard federation is *observably
identical* to the flat topology (the golden-trace suite proves it
byte-for-byte).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.core.cluster import Cluster
from repro.core.server import ServerSurface
from repro.core.statestore import Update
from repro.federation.channel import ShardChannel
from repro.federation.monitor import ShardHealthMonitor
from repro.federation.shard import Shard, _first_active
from repro.federation.views import (FederatedEvents, FederatedHealth,
                                    FederatedHistory, FederatedRecovery,
                                    FederatedStore)
from repro.hardware.node import SimulatedNode
from repro.imaging.manager import ImageManager
from repro.resilience.health import HealthState
from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["FederationServer"]

#: drains and fail-overs a federation logs, each log its newest.
REBALANCES_KEPT = 100


class FederationServer(ServerSurface):
    """Thin coordinator over per-partition ClusterWorX shards."""

    def __init__(self, kernel: SimKernel, cluster: Cluster,
                 shards: List[Shard], *, registry=None, notifier=None,
                 images: Optional[ImageManager] = None,
                 shard_down_after: float = 25.0,
                 auto_failover: bool = True):
        if not shards:
            raise ValueError("a federation needs at least one shard")
        super().__init__(kernel, cluster, images)
        self.shards = shards
        #: heartbeats, the shards' health records, fail-over on down.
        self.monitor = ShardHealthMonitor(
            self, down_after=shard_down_after, auto_failover=auto_failover)
        self.registry = registry
        self.notifier = notifier
        self.topology = "federation"
        #: hostname -> owning shard.  Replaced wholesale on membership
        #: changes (never mutated in place) so an in-flight iteration
        #: over it can never observe a half-applied rebalance.
        self._owner: Dict[str, Shard] = {}
        for shard in shards:
            for node in shard.server.managed_nodes:
                self._owner[node.hostname] = shard
        # -- the flat-server surface, federated --------------------------
        self.store = FederatedStore(shards, self.owner_of)
        self.engine = FederatedEvents(shards, self.owner_of)
        self.history = FederatedHistory(shards, self.owner_of)
        self.health = FederatedHealth(shards, self.owner_of)
        self.recovery = FederatedRecovery(shards, self.owner_of)
        #: ingests that found no owner and were dropped.
        self.unrouted_updates = 0
        #: every drain, for observability: (shard index, moved map).
        self.rebalances = RecordLog(REBALANCES_KEPT)
        #: automatic fail-overs: (time, shard index, reason, nodes moved).
        self.failovers = RecordLog(REBALANCES_KEPT)
        #: last good per-shard counter row, served while unreachable.
        self._last_stats: Dict[int, Dict[str, int]] = {}

    # -- ownership -----------------------------------------------------------
    def owner_of(self, hostname: str) -> Optional[Shard]:
        """The shard that owns ``hostname`` (O(1)), or None."""
        return self._owner.get(hostname)

    def _least_loaded(self) -> Shard:
        """Deterministic assignment target: the active shard managing
        the fewest nodes, ties broken by shard index."""
        return min((s for s in self.shards if s.active),
                   key=lambda s: (s.n_nodes, s.index))

    @property
    def updates_received(self) -> int:
        return sum(s.server.updates_received for s in self.shards)

    # -- node membership ------------------------------------------------------
    def track_node(self, node: SimulatedNode) -> None:
        """Assign a new node to the least-loaded active shard."""
        if node.hostname in self._owner:
            return
        shard = self._least_loaded()
        shard.server.track_node(node)
        owner = dict(self._owner)
        owner[node.hostname] = shard
        self._owner = owner

    def forget_node(self, hostname: str) -> None:
        """Drop the node from its owning shard and the owner map."""
        shard = self._owner.get(hostname)
        if shard is None:
            return
        shard.server.forget_node(hostname)
        owner = dict(self._owner)
        del owner[hostname]
        self._owner = owner

    def drain(self, index: int) -> Dict[str, int]:
        """Deactivate one shard and rebalance its nodes.

        The shard ends ``drained``.  Every node it owned moves to the
        least-loaded surviving shard, carrying its current values, its
        agent freshness (so the adopting health tracker does not
        instantly declare it stale) and its history series.  Event-rule
        state and the console archive intentionally start fresh on the
        new owner: the node's next update there evaluates every rule
        against the migrated row — so a breach that change suppression
        never re-sends fires on the adopter at that update — and console
        capture re-subscribes going forward.  Updates held for the
        shard while it was unreachable are then ingested, oldest first,
        by the adopters.  Returns ``{hostname: new shard index}``.
        """
        return self._drain(index, "operator drain")

    def _drainable(self, shard: Shard) -> bool:
        """False for a drained shard; raises, changing nothing, for the
        last active one."""
        if not shard.active:
            return False
        if sum(1 for s in self.shards if s.active) <= 1:
            raise ValueError("cannot drain the last active shard")
        return True

    def _drain(self, index: int, reason: str) -> Dict[str, int]:
        shard = self.shards[index]
        if not self._drainable(shard):
            return {}
        shard.server.stop_sweep()
        self.monitor.health.mark_drained(shard.name, reason)
        moved: Dict[str, int] = {}
        owner = dict(self._owner)
        source = shard.server
        for node in source.managed_nodes:
            hostname = node.hostname
            values = dict(source.store.get(hostname))
            seen = source.store.last_seen(hostname)
            agent_seen = source.store.last_agent_seen(hostname)
            series = source.history.export_host(hostname)
            source.forget_node(hostname)
            target = self._least_loaded()
            target.server.track_node(node)
            if values:
                target.server.store.restore(
                    hostname, values,
                    time=seen if seen is not None else self.kernel.now,
                    agent_time=agent_seen)
            if series:
                target.server.history.adopt_host(hostname, series)
            owner[hostname] = target
            moved[hostname] = target.index
        self._owner = owner
        self.rebalances.append((index, dict(moved)))
        # Re-home live watch subscriptions whose host filter bound them
        # to the drained shard's bus: their hosts now publish on the
        # adopting shards.  Because ``restore`` above is a silent write,
        # subscribers see no duplicate deltas; the updates held while
        # the shard was unreachable follow, in order, through the new
        # owners — so a watch resumes without duplicate or lost deltas.
        self.store.rehome(shard, self.owner_of)
        self._release(shard.channel)
        return moved

    def fail_over(self, index: int, *,
                  reason: str = "manual") -> Dict[str, int]:
        """Dead-shard recovery: mark the shard down, :meth:`drain` it
        (down -> drained) and log the ``failovers`` row.

        The monitor's down listener calls this, so an operator's call
        on a live shard re-enters here.  State and history migrate
        through :meth:`drain`; in the simulation they are read from the
        dead shard's in-process store, standing in for the durable-store
        recovery a real deployment would run.  Remote runs are not
        touched: they ride the fabric from :attr:`remote`, and the
        nodes and the fabric are up — only a monitoring shard is down.
        Returns the drain's ``{hostname: new shard index}`` map.
        """
        shard = self.shards[index]
        if not self._drainable(shard):
            return {}
        self.monitor.health.mark_down(shard.name, reason)
        if not shard.active:  # the down listener failed it over
            return self.rebalances[-1][1]
        moved = self._drain(index, f"failed over ({reason})")
        self.failovers.append((self.kernel.now, index, reason, len(moved)))
        return moved

    def degraded_info(self) -> Dict[str, object]:
        """The gateway's degradation verdict: which shards' data is
        stale, and how stale.  A shard is stale while it still owns
        nodes and is suspect, or down (no survivor could adopt them); a
        completed fail-over or drain clears it — the survivors' data is
        current, so responses stop carrying the degraded tag.
        """
        now = self.kernel.now
        stale: List[str] = []
        worst = 0.0
        for shard in self.shards:
            if shard.health is not HealthState.HEALTHY and shard.n_nodes:
                stale.append(shard.name)
                worst = max(worst, now - shard.last_heartbeat)
        return {"degraded": bool(stale), "stale_shards": stale,
                "staleness_s": worst if stale else 0.0}

    # -- tier-1 entry point ----------------------------------------------------
    def ingest(self, update: Update) -> None:
        """Route one agent update to its owning shard (O(1)).

        Updates for hosts no shard owns are *dropped*, not guessed at:
        applying them to an arbitrary shard would resurrect state for a
        forgotten node (the flat store's known wart — its subscribers
        may still see raw deltas after a forget).  Dropping here is what
        makes a forgotten node vanish from every federated view — the
        summary *and* live watch streams — within one slice.

        Updates for an owner that cannot be reached are *held*, not
        dropped, until it answers again or is drained (:meth:`_release`).
        Only a held update older than the fail-over deadline — one
        heartbeat past ``down_after``, by when the monitor has drained
        the shard unless fail-over is off or has no survivor — is
        dropped, and counted in ``channel.dropped_ingests``."""
        shard = self._owner.get(update.hostname)
        if shard is None:
            self.unrouted_updates += 1
            return
        channel = shard.channel
        if channel.held or not channel.up:
            # While the owner is unreachable, or still has a backlog,
            # the update queues behind the backlog so none overtakes an
            # older one.  The ``up`` check and the empty-queue test are
            # all the healthy hot path pays.
            held = channel.held
            held.append(update)
            if channel.up:
                self._release(channel)
                return
            cutoff = self.kernel.now - (self.monitor.down_after
                                        + self.monitor.interval)
            while held and held[0].time < cutoff:
                held.popleft()
                channel.dropped_ingests += 1
            return
        shard.server.ingest(update)

    def _release(self, channel: ShardChannel) -> None:
        """Re-route every held update, oldest first, through
        :meth:`ingest`: to the shard itself once it answers again, to
        the adopters once it is drained, and to ``unrouted_updates``
        for a host forgotten meanwhile."""
        # Swapped out first: an update re-ingested while the backlog
        # were still on the channel would queue behind it again.
        held, channel.held = channel.held, deque()
        for update in held:
            self.ingest(update)

    # -- sweep lifecycle -------------------------------------------------------
    def start_sweep(self) -> None:
        for shard in self.shards:
            if shard.active:
                shard.server.start_sweep()
        # The health monitor rides the sweep lifecycle: it probes
        # through the channels only (no store writes, no RNG), so an
        # all-healthy run with it on is golden-trace identical to one
        # without it.
        self.monitor.start()

    def stop_sweep(self) -> None:
        self.monitor.stop()
        for shard in self.shards:
            shard.server.stop_sweep()

    #: the flat server's knob, fanned out so harness code that flips
    #: it (chaos campaigns) works unchanged.
    @property
    def self_healing(self) -> bool:
        return any(s.server.self_healing for s in self.shards)

    @self_healing.setter
    def self_healing(self, value: bool) -> None:
        for shard in self.shards:
            shard.server.self_healing = value

    # -- topology questions --------------------------------------------------
    def stale_nodes(self, max_age: float) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            out.extend(shard.server.stale_nodes(max_age))
        return sorted(out)

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard observability rows (the gateway's /v1/shards).

        Server-side counters are read through the shard channel: an
        unreachable shard's row reuses its last good numbers instead of
        failing the whole listing, and carries the live ``health`` /
        ``heartbeat_age`` columns that say *why* they are stale.
        """
        now = self.kernel.now
        rows: List[Dict[str, object]] = []
        for shard in self.shards:
            stats = shard.channel.call(self._read_stats, shard)
            if stats is None:
                stats = self._last_stats.get(shard.index, {
                    "updates_received": 0, "generation": 0,
                    "events_active": 0})
            else:
                self._last_stats[shard.index] = stats
            rows.append({
                "index": shard.index,
                "name": shard.name,
                "active": shard.active,
                "health": shard.health.value,
                "heartbeat_age": round(now - shard.last_heartbeat, 3),
                "nodes": shard.n_nodes,
                "updates_received": stats["updates_received"],
                "generation": stats["generation"],
                "events_active": stats["events_active"],
            })
        return rows

    @staticmethod
    def _read_stats(shard: Shard) -> Dict[str, int]:
        return {
            "updates_received": shard.server.updates_received,
            "generation": shard.server.store.generation,
            "events_active": shard.server.engine.active_count(),
        }

    @property
    def managed_nodes(self) -> List[SimulatedNode]:
        """Every shard's nodes, shard by shard, each in tracking order."""
        return [node for shard in self.shards
                for node in shard.server.managed_nodes]

    @property
    def managed_hostnames(self) -> List[str]:
        return sorted(self._owner)

    def console_archive(self, hostname: str, *,
                        since: float = 0.0) -> List[tuple]:
        shard = self._owner.get(hostname) or _first_active(self.shards)
        return shard.server.console_archive(hostname, since=since)

    def console_search(self, pattern: str) -> List[tuple]:
        hits: List[tuple] = []
        for shard in self.shards:
            hits.extend(shard.server.console_search(pattern))
        return sorted(hits, key=lambda hit: (hit[0], hit[1]))

    def attach_slurm(self, controller) -> None:
        """Every shard drains quarantined nodes through the same
        resource manager."""
        for shard in self.shards:
            shard.server.attach_slurm(controller)
