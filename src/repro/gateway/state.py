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

Cold paths that genuinely need live structures (history, the event
log, the shard rows) take the sim driver's slice lock around their
read — a bounded stall on a rare endpoint, never on the hot ones.  The
history routes hold it for the copy-out of one series only; bucketing,
windowing and the rows run on the fresh copy after it is released.

Each published view carries its publish number.  For the field set of
the last projected all-hosts query the state keeps a change log — one
bus subscription, fed on the sim thread — so :meth:`changed_since` can
name the hosts a published update changed between two views, and the
all-hosts body is rewritten from those rows alone.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.core.server import ClusterWorXServer
from repro.core.statestore import Snapshot, Update
from repro.gateway.wire import FrameTable
from repro.remote.nodeset import NodeSet
from repro.util.ringbuffer import downsample_bytes, window

__all__ = ["PublishedView", "GatewayState"]


class PublishedView(NamedTuple):
    """One immutable, generation-stamped world the gateway serves.

    Everything a hot endpoint can answer is on this object; once
    constructed it is never mutated, so any number of serving-side
    readers share it without locks: its containers are read-only by
    construction (``repro.faults.invariants.published_view_immutable``).
    """

    snapshot: Snapshot
    #: the snapshot's hosts, sorted — the same tuple object from view
    #: to view for as long as the membership does not change.
    hostnames: Tuple[str, ...]
    summary: Mapping[str, object]
    events: Tuple[Tuple[str, str], ...]
    sim_time: float
    generation: int
    #: the state's publish count when this view was published.
    number: int
    #: the number of the newest complete view up to this one (-1 before
    #: the first): a part this view re-serves frozen lacks only updates
    #: applied after that view.
    base: int
    #: True while any shard's contribution to this view is stale
    #: (suspect, or down with nodes); the data served is that shard's
    #: last good snapshot, and responses say so.
    degraded: bool = False
    stale_shards: Tuple[str, ...] = ()
    #: worst heartbeat age among the stale shards at capture time.
    staleness_s: float = 0.0

    def degraded_keys(self) -> Dict[str, object]:
        """What the summary, ``/v1/hosts`` and a watch heartbeat add
        while this view is degraded (scalars: the binary wire packs no
        lists) — nothing otherwise, so a healthy run's responses stay
        byte-identical to the pre-failover wire format."""
        if not self.degraded:
            return {}
        return {"degraded": True, "stale_shards": ",".join(self.stale_shards),
                "staleness_s": self.staleness_s}


class _ChangeLog(NamedTuple):
    """What the bus published on ``fields`` since view ``first``: one
    ``(stamp, hostname)`` entry per update, ``stamp`` the number of the
    newest view published when it was applied, so stamps never fall.
    Only the sim thread appends to ``entries``; the log is replaced
    whole, and only under the slice lock."""

    fields: Tuple[str, ...]
    first: int
    entries: List[Tuple[int, str]]


class GatewayState:
    """Bridge between the simulation thread and the serving loop."""

    def __init__(self, server: ClusterWorXServer, *, resolver=None):
        self.server = server
        #: the sim driver's slice lock; cold endpoints serialize on it.
        self.lock = threading.Lock()
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
        #: the base of the last projected all-hosts query's view: the
        #: oldest view a kept body needs the change log from.
        self._needed = 0
        self._changes: Optional[_ChangeLog] = None
        #: the bus subscription feeding ``_changes``.
        self._tracking = None
        with self.lock:
            self.view: PublishedView = self._capture()

    # -- sim-thread side -----------------------------------------------------
    def _capture(  # worx: holds lock
            self, previous: Optional[PublishedView] = None
            ) -> PublishedView:
        summary = self.server.cluster_summary()
        summary["sim_time"] = round(self.server.kernel.now, 3)
        # Degradation verdict (a flat server is never degraded).
        info = self.server.degraded_info()
        degraded = bool(info["degraded"])
        stale = tuple(info["stale_shards"]) if degraded else ()
        staleness = round(float(info["staleness_s"]), 3) if degraded \
            else 0.0
        snapshot = self.server.store.snapshot()
        if previous is not None and \
                previous.snapshot.membership == snapshot.membership:
            hostnames = previous.hostnames
        else:
            hostnames = tuple(sorted(snapshot))
        base = self.publishes if snapshot.complete \
            else -1 if previous is None else previous.base
        view = PublishedView(
            snapshot=snapshot, hostnames=hostnames,
            summary=MappingProxyType(summary),
            events=tuple(self.server.engine.active_events()),
            sim_time=self.server.kernel.now,
            generation=snapshot.generation, number=self.publishes,
            base=base, degraded=degraded, stale_shards=stale,
            staleness_s=staleness)
        summary.update(view.degraded_keys())
        return view

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
        self.publishes += 1
        view = self._capture(view)
        if self._changes is not None:
            self._trim(view, self._needed)
        self.view = view  # atomic reference swap; readers see old or new
        return view

    def _note_change(self, update: Update) -> None:
        """The change log's bus callback.  **Sim thread.**"""
        self._changes.entries.append((self.publishes, update.hostname))

    def _trim(self, view: PublishedView, needed: int) -> None:
        """Replace the change log by a copy without the entries no
        view from ``needed`` on asks for; drop it whole once it names
        more than half ``view``'s hosts, so that it is exact from
        ``view`` on only: past half the rows, writing the body whole
        costs less than finding and patching each changed one.  The
        hosts are counted only once the entries pass that half, so a
        publish below it pays nothing; a log longer than the body has
        rows is dropped uncounted, so one no query trims stays bounded
        by the fleet."""
        log = self._changes
        if needed > log.first:
            cut = bisect_left(log.entries, (needed,))
            log = _ChangeLog(log.fields, needed, log.entries[cut:])
        entries, hosts = log.entries, len(view.hostnames)
        if 2 * len(entries) > hosts and (
                len(entries) > hosts
                or 2 * len(set(map(itemgetter(1), entries))) > hosts):
            log = _ChangeLog(log.fields, view.number, [])
        self._changes = log

    def close(self) -> None:
        """Cancel the change log's bus subscription."""
        with self.lock:
            if self._tracking is not None:
                self._tracking.cancel()
            self._tracking = self._changes = None

    def stall(self, until: float) -> None:
        """Suspend publication until sim time ``until`` (fault plane:
        the "gateway snapshot publication" fault class).  Serving
        continues off the last published view throughout."""
        self.stalled_until = until

    # -- serving side (all reads off the frozen view) ------------------------
    def folded_hosts(self, hostnames: Optional[Tuple[str, ...]] = None
                     ) -> str:
        """A view's membership (``hostnames``, the current view's when
        None) as folded NodeSet range algebra (``node[001-400]``),
        folded once per hostnames tuple — which a publish carries
        forward until the membership changes; folding ten thousand
        names per request, or per publish, would be the exact scan the
        gateway exists to avoid.  Each name is taken literally, never
        parsed as range syntax."""
        if hostnames is None:
            hostnames = self.view.hostnames
        cached = self._folded
        if cached is not None and cached[0] is hostnames:
            return cached[1]
        folded = NodeSet(hostnames).fold()
        self._folded = (hostnames, folded)
        return folded

    def query(self, nodes: Optional[str] = None,
              metrics: Optional[List[str]] = None) -> FrameTable:
        """NodeSet-filtered bulk read: ``nodes`` is range algebra
        (``node[001-016]``, ``@rack2``), ``metrics`` projects columns.
        One ``host`` row per node, read off the view's snapshot as the
        response is written — nothing per row is built here.  An
        all-hosts table carries the view's number and base; a projected
        one also its :meth:`changed_since`, and its fields are the ones
        the change log follows."""
        view = self.view
        fields = tuple(sorted(set(metrics))) if metrics else None
        if nodes:
            wanted = tuple(h for h in NodeSet(nodes, resolver=self.resolver)
                           if h in view.snapshot)
            return FrameTable("host", view.sim_time, wanted, view.snapshot,
                              fields)
        changed = None
        if fields is not None:
            self._needed = view.base
            log = self._changes
            if log is None or log.fields != fields:
                self._follow(fields)
            changed = partial(self.changed_since, view=view, fields=fields)
        return FrameTable("host", view.sim_time, view.hostnames,
                          view.snapshot, fields,
                          number=view.number, base=view.base,
                          changed_since=changed)

    def _follow(self, fields: Tuple[str, ...]) -> None:
        """Start the change log on ``fields`` if the slice lock is free:
        a projected query never waits for a slice.  While the sim thread
        holds it the next projected query tries again."""
        if not self.lock.acquire(blocking=False):
            return
        try:
            self._start_log(fields)
        finally:
            self.lock.release()

    def _start_log(  # worx: holds lock
            self, fields: Tuple[str, ...]) -> None:
        """Start the change log on ``fields`` — one bus subscription,
        replacing the last — if the published view is complete and the
        world as it is: then nothing was applied since its capture, and
        the log is exact from it on.  The store re-serves one snapshot
        object while nothing is applied, flat or federated, so the
        view's snapshot being the store's says so; a generation does
        not: a federated store's still counts a drained shard's writes,
        which its snapshot has dropped.  Else the next projected query
        tries again."""
        view = self.view
        if not view.snapshot.complete \
                or self.server.store.snapshot() is not view.snapshot \
                or self.server.kernel.now != view.sim_time:
            return
        if self._tracking is not None:
            self._tracking.cancel()
        self._changes = _ChangeLog(fields, view.number, [])
        self._tracking = self.server.subscribe(
            self._note_change, name="gateway-changes", metrics=fields)

    def changed_since(self, number: int, view: PublishedView,
                      fields: Tuple[str, ...]) -> Optional[Set[str]]:
        """The hosts whose ``fields`` a published update changed after
        view ``number`` and before ``view``: every update stamped ``s``
        with ``number <= s < view.number``, those a part re-served
        frozen lacks among them when ``number`` is at most ``view``'s
        base.  None when the log cannot say exactly: it follows other
        fields, was dropped or started after view ``number``, or
        ``view`` is older."""
        log = self._changes
        if log is None or log.fields != fields or number < log.first \
                or view.number < number:
            return None
        entries = log.entries
        start = bisect_left(entries, (number,))
        stop = bisect_left(entries, (view.number,), start)
        return set(map(itemgetter(1), entries[start:stop]))

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
                      buckets: int = 60) -> List[List[float]]:
        """Downsampled center, mean, min and max columns for one series;
        ``buckets`` outside 1 to the history's capacity is a
        ``ValueError``.  The lock covers one ``bytes`` copy of the
        series only; ``downsample_bytes`` bins it after, a plain loop
        equal to ``downsample`` to the bit, because numpy's some twenty
        calls run cold after each sim slice."""
        with self.lock:
            history = self.server.history
            if not 1 <= buckets <= history.capacity:
                raise ValueError(f"buckets must be 1 to {history.capacity}"
                                 f": {buckets}")
            series = history.series_bytes(hostname, metric)
        return downsample_bytes(series, buckets)

    def history_window(self, hostname: str, metric: str,
                       t0: float, t1: float) -> List[List[float]]:
        """The t and value columns of one series's samples with ``t0 <=
        t <= t1``; the lock covers the copy-out of the series only."""
        with self.lock:
            times, values = self.server.history.series(hostname, metric)
        return [column.tolist() for column in window(times, values, t0, t1)]

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
