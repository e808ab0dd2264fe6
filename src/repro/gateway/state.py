"""The sim-side publication point the gateway serves from.

The cardinal rule of the gateway is that serving **never** touches the
simulation thread's hot path.  :class:`GatewayState` enforces it
structurally:

* the *sim thread* calls :meth:`refresh` between kernel slices.  That
  is the only place the store/engine are read: one O(1) copy-on-write
  :class:`~repro.core.statestore.Snapshot`, the O(1) rollup summary,
  and the active-event list are captured into a single immutable
  :class:`PublishedView` and swapped in with one reference assignment;
* the *serving thread* reads ``self.view`` — an atomic attribute load
  — and answers every hot endpoint (summary, hosts, per-host values,
  NodeSet queries, events) from that frozen view.  Ten thousand
  concurrent requests share one snapshot at one generation; the store
  counters prove it (``full_copies`` stays 0, bench_e17 asserts it).

Snapshots make this thread-safe by construction: the store forks its
host map copy-on-write at the next write after a snapshot is taken, so
the map a published view holds is never mutated again — the sim thread
moves on, readers keep a stable world.  When :meth:`refresh` finds the
generation unchanged it republishes the same view object
(``publish_reuses``), which is the same zero-copy discipline E14
measured, now spanning threads.

Cold paths that genuinely need live structures (history ranges, the
event log) go through :meth:`locked`, which serializes with the sim
driver's slice lock — a bounded stall on a rare endpoint, never on the
hot ones.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.server import ClusterWorXServer
from repro.core.statestore import Snapshot
from repro.gateway.wire import FrameTable
from repro.remote.nodeset import NodeSet

__all__ = ["PublishedView", "GatewayState"]


class PublishedView:
    """One immutable, generation-stamped world the gateway serves.

    Everything a hot endpoint can answer is on this object; once
    constructed it is never mutated, so any number of serving-side
    readers share it without locks: its containers are read-only by
    construction (``repro.faults.invariants.published_view_immutable``).
    """

    __slots__ = ("snapshot", "summary", "events", "sim_time",
                 "generation", "hostnames", "degraded", "stale_shards",
                 "staleness_s")

    def __init__(self, snapshot: Snapshot,
                 hostnames: Tuple[str, ...],
                 summary: Mapping[str, object],
                 events: Tuple[Tuple[str, str], ...],
                 sim_time: float, *,
                 degraded: bool = False,
                 stale_shards: Tuple[str, ...] = (),
                 staleness_s: float = 0.0):
        self.snapshot = snapshot
        self.summary = summary
        self.events = events
        self.sim_time = sim_time
        self.generation = snapshot.generation
        #: the snapshot's hosts, sorted — the same tuple object from
        #: view to view for as long as the membership does not change.
        self.hostnames = hostnames
        #: True while any shard's contribution to this view is stale
        #: (suspect, mid-drain, or dead-with-nodes); the data served is
        #: that shard's last good snapshot, and responses say so.
        self.degraded = degraded
        self.stale_shards = stale_shards
        #: worst heartbeat age among the stale shards at capture time.
        self.staleness_s = staleness_s


class GatewayState:
    """Bridge between the simulation thread and the serving loop."""

    def __init__(self, server: ClusterWorXServer, *,
                 lock: Optional[threading.Lock] = None,
                 resolver=None):
        self.server = server
        #: the sim driver's slice lock; cold endpoints serialize on it.
        self.lock = lock if lock is not None else threading.Lock()
        #: @group resolver for NodeSet-filtered queries (optional).
        self.resolver = resolver
        self.publishes = 0
        #: refreshes that found the generation unchanged and republished
        #: the existing view object — the cross-thread snapshot reuse.
        self.publish_reuses = 0
        #: (hostnames tuple, its folded nodeset) for the membership view.
        self._folded: Optional[Tuple[Tuple[str, ...], str]] = None
        #: snapshot-publication stall (fault plane): while kernel time
        #: is before this, refresh() republishes the existing view.
        self.stalled_until = 0.0
        self.publish_stalls = 0
        with self.lock:
            self.view: PublishedView = self._capture()

    # -- sim-thread side -----------------------------------------------------
    def _capture(  # worx: holds lock
            self, previous: Optional[PublishedView] = None
            ) -> PublishedView:
        summary = self.server.cluster_summary()
        summary["sim_time"] = round(self.server.kernel.now, 3)
        # Degradation verdict (a flat server is never degraded).  The
        # degraded keys are added to payloads ONLY while degraded, so a
        # healthy run's responses stay byte-identical to the
        # pre-failover wire format.
        info = self.server.degraded_info()
        degraded = bool(info["degraded"])
        stale: Tuple[str, ...] = ()
        staleness = 0.0
        if degraded:
            stale = tuple(info["stale_shards"])
            staleness = round(float(info["staleness_s"]), 3)
            summary["degraded"] = True
            summary["stale_shards"] = ",".join(stale)
            summary["staleness_s"] = staleness
        snapshot = self.server.store.snapshot()
        if previous is not None and \
                previous.snapshot.membership == snapshot.membership:
            hostnames = previous.hostnames
        else:
            hostnames = tuple(sorted(snapshot))
        return PublishedView(
            snapshot=snapshot, hostnames=hostnames,
            summary=MappingProxyType(summary),
            events=tuple(self.server.engine.active_events()),
            sim_time=self.server.kernel.now,
            degraded=degraded, stale_shards=stale,
            staleness_s=staleness)

    def refresh(self) -> PublishedView:  # worx: holds lock
        """Publish the current world.  **Sim thread only**, under the
        slice lock (the driver holds it across the kernel step and
        this publish).

        O(1) when nothing changed (the old view is republished) and
        O(1)+COW bookkeeping when it did — never a value copy, and a
        per-node scan (sorting the hostnames) only when the membership
        changed.
        """
        view = self.view
        if self.server.kernel.now < self.stalled_until:
            # Publication stalled (fault plane): the world may have
            # moved on, but the gateway keeps serving the last
            # published view — stale, never wrong, never a 500.
            self.publish_stalls += 1
            return view
        if view.generation == self.server.store.generation \
                and view.sim_time == self.server.kernel.now:
            self.publish_reuses += 1
            return view
        view = self._capture(view)
        self.view = view  # atomic reference swap; readers see old or new
        self.publishes += 1
        return view

    def stall(self, until: float) -> None:
        """Suspend publication until sim time ``until`` (fault plane:
        the "gateway snapshot publication" fault class).  Serving
        continues off the last published view throughout."""
        self.stalled_until = until

    # -- serving side (all reads off the frozen view) ------------------------
    def summary(self) -> Tuple[float, Mapping[str, object]]:
        view = self.view
        return view.sim_time, view.summary

    def host(self, hostname: str
             ) -> Optional[Tuple[float, Mapping[str, object]]]:
        view = self.view
        if hostname not in view.snapshot:
            return None
        return view.sim_time, view.snapshot[hostname]

    def hostnames(self) -> Tuple[str, ...]:
        return self.view.hostnames

    def folded_hosts(self) -> str:
        """The membership as folded NodeSet range algebra
        (``node[001-400]``), folded once per hostnames tuple — which a
        publish carries forward until the membership changes; folding
        ten thousand names per request, or per publish, would be the
        exact scan the gateway exists to avoid."""
        hostnames = self.view.hostnames
        cached = self._folded
        if cached is not None and cached[0] is hostnames:
            return cached[1]
        folded = NodeSet(",".join(hostnames)).fold() if hostnames else ""
        self._folded = (hostnames, folded)
        return folded

    def query(self, nodes: Optional[str] = None,
              metrics: Optional[List[str]] = None) -> FrameTable:
        """NodeSet-filtered bulk read: ``nodes`` is range algebra
        (``node[001-016]``, ``@rack2``), ``metrics`` projects columns.
        One ``host`` row per node, read off the view's snapshot as the
        response is written — nothing per row is built here."""
        view = self.view
        if nodes:
            wanted = tuple(h for h in NodeSet(nodes, resolver=self.resolver)
                           if h in view.snapshot)
        else:
            wanted = view.hostnames
        return FrameTable("host", view.sim_time, wanted, view.snapshot,
                          tuple(sorted(set(metrics))) if metrics else None)

    def active_events(self) -> Tuple[float, Tuple[Tuple[str, str], ...]]:
        view = self.view
        return view.sim_time, view.events

    def shards(self) -> List[Dict[str, object]]:
        """Per-shard control-plane rows (a flat server reports itself
        as a single synthetic shard).

        This is a *cold* endpoint: the rows read live control-plane
        counters (update totals, active-event counts), so it
        serializes with the sim driver's slice lock like the other
        cold paths — WORX201 caught the original lock-free version
        reading them mid-slice.
        """
        with self.lock:
            return self.server.shard_stats()

    # -- serving side, cold (serialized with the sim slice lock) -------------
    def history_graph(self, hostname: str, metric: str, *,
                      buckets: int = 60
                      ) -> List[Tuple[float, float, float, float]]:
        """Downsampled (center, mean, min, max) rows for one series."""
        with self.lock:
            centers, mean, lo, hi = self.server.history.graph(
                hostname, metric, buckets)
            return [(float(c), float(m), float(a), float(b))
                    for c, m, a, b in zip(centers, mean, lo, hi)]

    def history_window(self, hostname: str, metric: str,
                       t0: float, t1: float
                       ) -> List[Tuple[float, float]]:
        with self.lock:
            times, values = self.server.history.window(
                hostname, metric, t0, t1)
            return [(float(t), float(v))
                    for t, v in zip(times, values)]

    def event_log(self, *, since: float = 0.0,
                  node: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, object]]:
        with self.lock:
            fired = self.server.engine.event_log(
                since=since, node=node, limit=limit)
            return [{"rule": e.rule, "node": e.node, "action": e.action,
                     "value": e.value, "action_ok": e.action_ok,
                     "time": e.time}
                    for e in fired]
