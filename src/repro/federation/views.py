"""Federated read-side facades over the shard servers.

Every tier-3 consumer of the flat server — client sessions, the
gateway, the chaos harness, the CLI — reads ``server.store``,
``.engine``, ``.history``, ``.health`` and ``.recovery``.  This module
reproduces each surface over N shards as a **declared table**: an entry
names the flat organ method it mirrors (and so takes its signature),
one of three verbs, and what an unreachable shard answers.  One
function, :meth:`_View._ask`, makes every cross-shard read through the
shard's :class:`~repro.federation.channel.ShardChannel`, so "a read on
a dead shard degrades to its declared default, never raises" is a
property of that function, fenced by the routing-table check in
``tests/test_federation.py``, not an idiom per method.

* **owner** routes ``f(hostname, ...)`` to the owning shard: an O(1)
  lookup plus the flat cost.  An unreachable owner answers the default
  (the flat "unknown host" shape) or, store only, from the shard's last
  good snapshot part.
* **each** asks every shard and merges — ``sum``, concat,
  sorted-concat, (sorted-)union, by-time (``heapq.merge``),
  sum-of-dicts, discard for broadcasts — an unreachable shard giving
  its default or last good part.  O(shards), never O(N).
* **any-one** serves what every shard holds identically
  (``engine.rules``): active shards are tried in index order until one
  answers.

A hostname *no* shard owns meets one of three policies, kept as the
hand-written views had them: store, engine, recovery and
``health.record`` answer the default without asking; ``history.*`` and
``health.state`` ask shard 0 (``via_first``) for the flat organ's own
unknown-host answer; subscriptions fall to the first active shard.
Remote runs are not a view: ``server.remote`` is the flat
:class:`~repro.remote.engine.TaskEngine`, reaching every node over the
fabric whichever shard monitors it.  Callers learn *why* a read degraded from
:meth:`FederationServer.degraded_info`, not from exceptions.  Ownership
is injected as a lookup callable: the views never hold the owner map.
"""

from __future__ import annotations

import heapq
import inspect
import math
from collections import Counter
from collections.abc import Mapping as MappingABC
from functools import wraps
from itertools import chain, groupby
from operator import attrgetter, contains, itemgetter, methodcaller
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.core.statestore import (Snapshot, StateStore, Subscription,
                                   Update)
from repro.events.engine import EventEngine, FiredEvent, newest
from repro.events.rules import ThresholdRule
from repro.federation.rollup import RollupCache, _generation
from repro.federation.shard import Shard, _group_by_owner
from repro.monitoring.history import HistoryStore
from repro.resilience.health import HealthTracker
from repro.resilience.orchestrator import RecoveryOrchestrator

__all__ = ["FederatedSnapshot", "FederatedSubscription",
           "FederatedStore", "FederatedEvents", "FederatedHistory",
           "FederatedHealth", "FederatedRecovery"]

_EMPTY: Mapping[str, object] = MappingProxyType({})

#: what an unreachable shard contributes to a federated snapshot when
#: it has never published a part before (no last-good to re-serve).
_EMPTY_SNAPSHOT = Snapshot({}, 0, 0.0, 0)

#: guard defaults for history reads on an unreachable owner — the same
#: shapes the flat HistoryStore returns for an unknown host.
_EMPTY_SERIES: Tuple[np.ndarray, np.ndarray] = (np.empty(0),
                                                np.empty(0))
_EMPTY_GRAPH: Tuple[np.ndarray, ...] = (np.empty(0), np.empty(0),
                                        np.empty(0), np.empty(0))

#: what :meth:`_View._ask` answers for an unreachable shard, so that a
#: real answer of ``None``/``False``/``0`` is never mistaken for "down".
_DOWN = object()

#: hostname -> owning shard (or None for unknown hosts).
OwnerLookup = Callable[[str], Optional[Shard]]


def _snapshot(shard: Shard) -> Snapshot:
    return shard.server.store.snapshot()


class FederatedSnapshot(MappingABC):
    """An immutable all-shards view: one COW snapshot per shard.

    Taking one is O(shards) — each per-shard snapshot is the store's
    O(1) copy-on-write view — and it is exactly as stable: every shard
    forks its host map on the next write, so this view never changes
    under the caller regardless of how the simulation moves on.
    """

    __slots__ = ("_parts", "generation", "time", "membership")

    def __init__(self, parts: Sequence[Snapshot]):
        self._parts = tuple(parts)
        #: sum of shard generations (monotone, like the flat stamp).
        self.generation = sum(p.generation for p in self._parts)
        #: every part's membership stamp: equal only while no shard
        #: gained, lost or handed over a host.
        self.membership = tuple(p.membership for p in self._parts)
        #: simulation time of the newest applied update across shards.
        self.time = max((p.time for p in self._parts), default=0.0)

    def __getitem__(self, hostname: str) -> Mapping[str, object]:
        for part in self._parts:
            if hostname in part:
                return part[hostname]
        raise KeyError(hostname)

    def __iter__(self) -> Iterator[str]:
        for part in self._parts:
            yield from part

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __contains__(self, hostname: object) -> bool:
        return any(hostname in part for part in self._parts)

    def select(self, hostnames: Iterable[str],
               fields: Optional[Tuple[str, ...]] = None
               ) -> Iterator[Tuple[Tuple[str, ...], Tuple[object, ...]]]:
        """:meth:`Snapshot.select` over the parts.  Ownership is
        exclusive and sorted hosts meet a shard's in runs, so the part
        that held the last host is asked first: O(1) a host, no walk."""
        parts = self._parts
        last = 0

        def holder(hostname: str) -> int:
            nonlocal last
            if hostname in parts[last]:
                return last
            for last, part in enumerate(parts):
                if hostname in part:
                    return last
            raise KeyError(hostname)

        for index, run in groupby(hostnames, holder):
            yield from parts[index].select(run, fields)

    def __repr__(self) -> str:
        return (f"FederatedSnapshot(gen={self.generation}, "
                f"shards={len(self._parts)}, hosts={len(self)})")


class FederatedSubscription:
    """One logical subscription spanning several shard buses.

    Matches the :class:`~repro.core.statestore.Subscription` surface a
    consumer touches (``cancel``, ``active``, ``delivered``, ``name``);
    cancelling detaches every underlying shard subscription.  The parts
    list is *mutable*: a drain re-homes parts bound to the drained
    shard onto the adopting shards (:meth:`FederatedStore.rehome`), and
    the consumer's handle keeps working across the move.
    """

    __slots__ = ("parts", "name", "_listed_in")

    def __init__(self, parts: Sequence[Subscription], name: str):
        self.parts = list(parts)
        self.name = name
        #: the FederatedStore's set of live handles this one is in.
        self._listed_in: Optional[Dict[FederatedSubscription, None]] = None

    @property
    def active(self) -> bool:
        return any(part.active for part in self.parts)

    @property
    def delivered(self) -> int:
        return sum(part.delivered for part in self.parts)

    def cancel(self) -> None:
        for part in self.parts:
            part.cancel()
        if self._listed_in is not None:
            self._listed_in.pop(self, None)


# -- the routing core ---------------------------------------------------------
class _View:
    """One server organ over N shards: the single guarded read and the
    three verbs over it.  A subclass names its ``organ`` and declares
    its surface with :func:`_owner`, :func:`_each`, :func:`_each_attr`."""

    def __init_subclass__(cls, organ: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._organ = organ

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of

    def _ask(self, shard, read, default=_DOWN, last_good=None, *key):
        """THE cross-shard read: ``read`` (an ``attrgetter`` or
        ``methodcaller``) applied to the shard's organ through its
        channel.  An unreachable shard answers from its last good
        snapshot part when the entry says how (``last_good(part,
        *key)``, store only), else ``default``."""
        answer = shard.channel.call(
            lambda: read(getattr(shard.server, self._organ)), default=_DOWN)
        if answer is not _DOWN:
            return answer
        if last_good is None:
            return default
        return last_good(self._last_part(shard), *key)

    def _to_owner(self, hostname, read, default=None, *,
                  via_first=False, last_good=None):
        shard = self._owner_of(hostname)
        if shard is None:
            if not via_first:
                return default
            shard = self._shards[0]
        return self._ask(shard, read, default, last_good, hostname)

    def _from_each(self, read, merge, default=(), *, last_good=None):
        return merge([self._ask(shard, read, default, last_good)
                      for shard in self._shards])

    def _from_any(self, read, default):
        """A killed shard stays ``active`` for the whole detection
        window, so stopping at the first active shard would take an
        answer the healthy ones still hold down with it."""
        for shard in self._shards:
            if shard.active:
                answer = self._ask(shard, read)
                if answer is not _DOWN:
                    return answer
        return default


def _owner(flat, default=None, **policy):
    """Table entry: ``flat``'s call, routed to its ``hostname``'s owner.
    It takes ``flat``'s signature: what the shard will be handed."""
    name = flat.__name__
    at = list(inspect.signature(flat).parameters).index("hostname") - 1

    @wraps(flat)
    def method(self, *args, **kwargs):
        hostname = kwargs["hostname"] if "hostname" in kwargs else args[at]
        read = methodcaller(name, *args, **kwargs)
        return self._to_owner(hostname, read, default, **policy)
    method.route = ("owner", default, policy)
    return method


def _each(flat, merge, default=(), **policy):
    """Table entry: ``flat``'s call, made on every shard and merged."""
    name = flat.__name__

    @wraps(flat)
    def method(self, *args, **kwargs):
        read = methodcaller(name, *args, **kwargs)
        return self._from_each(read, merge, default, **policy)
    method.route = ("each", merge, default, policy)
    return method


def _each_attr(name: str, merge, default=(), **policy) -> property:
    """Table entry: attribute ``name`` read on every shard, merged."""
    read = attrgetter(name)

    def fget(self):
        return self._from_each(read, merge, default, **policy)
    fget.route = ("each", merge, default, policy)
    return property(fget)


# -- the merge vocabulary: a list of per-shard answers -> one answer ----------
def _flat(collect):
    """Per-shard collections chained into one ``collect``-ed whole."""
    return lambda parts: collect(chain.from_iterable(parts))


def _by_time(key):
    """Ordered by ``key`` (a time), stable by shard index on ties."""
    return lambda parts: list(heapq.merge(*parts, key=key))


_concat, _sorted_concat, _union = _flat(list), _flat(sorted), _flat(set)
_sorted_union = _flat(lambda names: sorted(set(names)))
_by_event_time = _by_time(attrgetter("time"))
_by_row_time = _by_time(itemgetter(0))


def _sum_dicts(parts) -> Dict[str, int]:
    merged: Counter = Counter()
    for part in parts:
        merged.update(part)
    return dict(merged)


def _discard(parts) -> None:
    """A broadcast: every reachable shard was told, nothing to merge."""


class FederatedStore(_View, organ="store"):
    """The ``server.store`` surface, merged across shards."""

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        super().__init__(shards, owner_of)
        self.rollups = RollupCache(shards)
        #: (shard-generations, snapshot) cache so a quiescent
        #: federation re-serves one FederatedSnapshot object.
        self._snap_cache: Optional[Tuple[Tuple[int, ...],
                                         FederatedSnapshot]] = None
        #: per-shard last good snapshot part, re-served while the shard
        #: is unreachable (the degraded-mode read path).
        self._last_parts: Dict[int, Snapshot] = {}
        #: live logical subscriptions (an ordered set), so a drain can
        #: re-home the parts that were bound to the drained shard's bus.
        self._federated_subs: Dict[FederatedSubscription, None] = {}

    def _last_part(self, shard: Shard) -> Snapshot:
        """The shard's last good snapshot part (degraded reads serve
        from it while the shard is unreachable).  A drained shard
        contributes nothing — its nodes live on the adopters now, and
        the stale part would double-count them."""
        if not shard.active:
            return _EMPTY_SNAPSHOT
        return self._last_parts.get(shard.index, _EMPTY_SNAPSHOT)

    # -- membership / routing ------------------------------------------------
    tracked = _each_attr("tracked", _union, last_good=set)
    hostnames = _each_attr("hostnames", _sorted_concat, last_good=list)

    is_tracked = _owner(StateStore.is_tracked, False, last_good=contains)
    get = _owner(StateStore.get, _EMPTY, last_good=lambda part, hostname:
                 part.get(hostname, _EMPTY))
    last_seen = _owner(StateStore.last_seen)
    last_agent_seen = _owner(StateStore.last_agent_seen)
    __contains__ = _owner(StateStore.__contains__, False,
                          last_good=contains)
    __len__ = _each(StateStore.__len__, sum, last_good=len)

    # -- read path: hand-written (cached; the gateway's publish path) --------
    @property
    def generation(self) -> int:
        return self.rollups.generation

    def summary(self) -> Dict[str, object]:
        return self.rollups.summary()

    def snapshot(self) -> FederatedSnapshot:
        """O(shards) federated view; an unreachable shard contributes
        its last good part unchanged (frozen generation, so the cache
        key stays stable and quiescent reuse still works)."""
        gens: List[int] = []
        for shard in self._shards:
            gen = shard.channel.call(_generation, shard)
            if gen is None:
                gen = self._last_part(shard).generation
            gens.append(gen)
        key = tuple(gens)
        cached = self._snap_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        parts: List[Snapshot] = []
        for shard in self._shards:
            part = shard.channel.call(_snapshot, shard)
            if part is None:
                part = self._last_part(shard)
            else:
                self._last_parts[shard.index] = part
            parts.append(part)
        snap = FederatedSnapshot(parts)
        self._snap_cache = (key, snap)
        return snap

    # -- subscription bus ------------------------------------------------------
    def _subscribe_on(self, shares, callback, name, metrics
                      ) -> List[Subscription]:
        """One bus registration per ``(shard, hosts)`` share, reachable
        or not: not a read, it delivers once the shard answers again."""
        return [shard.server.store.subscribe(callback, name=name,
                                             hosts=share, metrics=metrics)
                for shard, share in shares]

    def subscribe(self, callback: Callable[[Update], None], *,
                  name: str = "?",
                  hosts: Optional[Iterable[str]] = None,
                  metrics: Optional[Iterable[str]] = None
                  ) -> FederatedSubscription:
        """Register on the owning shards' buses.

        A host-filtered subscription lands only on the shards that own
        the requested hosts (filtered to each shard's share); an
        unfiltered one spans every shard bus — the gateway's watch hub
        fan-in.  Hosts no shard owns yet fall to the first active shard
        so a later ``track_node`` there starts delivering.
        """
        if hosts is None:
            shares = [(shard, None) for shard in self._shards]
        else:
            shares = _group_by_owner(hosts, self._owner_of, self._shards)
        fsub = FederatedSubscription(
            self._subscribe_on(shares, callback, name, metrics), name)
        # Forgotten when cancelled, not at the next drain — else every
        # ClientSession.watch that ever closed piles up here.
        fsub._listed_in = self._federated_subs
        self._federated_subs[fsub] = None
        return fsub

    def rehome(self, source: Shard,
               owner_of: Optional[OwnerLookup] = None) -> int:
        """Move live subscription parts off a drained shard's bus.

        Called by :meth:`FederationServer.drain` after the owner map
        has been rewritten.  Host-filtered parts re-subscribe their
        hosts on the adopting shards (the watch stream's "resume from
        the new owner"); unfiltered parts are simply dropped — the
        logical subscription already spans every other shard's bus.
        Because drain's state migration writes silently, the first
        delta a re-homed subscriber sees is the host's oldest update
        not yet applied (drain releases the shard's held updates right
        after this): no duplicates, nothing lost.  Returns the number
        of parts moved or dropped.
        """
        lookup = owner_of if owner_of is not None else self._owner_of
        # Identity anchor for "was this part on the drained shard" —
        # a deliberate direct read of the shard being drained.
        store = source.server.store
        moved = 0
        for fsub in [f for f in self._federated_subs if not f.active]:
            del self._federated_subs[fsub]  # in place: handles hold it
        for fsub in self._federated_subs:
            for part in list(fsub.parts):
                if part.store is not store or not part.active:
                    continue
                part.cancel()
                fsub.parts.remove(part)
                moved += 1
                if part.hosts is not None:
                    fsub.parts.extend(self._subscribe_on(
                        _group_by_owner(part.hosts, lookup,
                                        self._shards),
                        part.callback, part.name, part.metrics))
        return moved

    # -- merged bus and observability reads -----------------------------------
    subscriptions = _each_attr("subscriptions", _concat)
    updates_applied = _each_attr("updates_applied", sum, 0)
    full_copies = _each_attr("full_copies", sum, 0)
    cow_forks = _each_attr("cow_forks", sum, 0)
    snapshots_taken = _each_attr("snapshots_taken", sum, 0)
    snapshot_reuses = _each_attr("snapshot_reuses", sum, 0)
    notifications = _each_attr("notifications", sum, 0)
    errors = _each_attr("errors", _concat)
    detached = _each_attr("detached", _concat)


class FederatedEvents(_View, organ="engine"):
    """The ``server.engine`` surface, merged across shards."""

    # -- rule management (broadcast: rules are global) ------------------------
    add_rule = _each(EventEngine.add_rule, _discard, None)
    remove_rule = _each(EventEngine.remove_rule, _discard, None)
    add_listener = _each(EventEngine.add_listener, _discard, None)
    forget_node = _owner(EventEngine.forget_node)

    @property
    def rules(self) -> List[ThresholdRule]:
        return self._from_any(attrgetter("rules"), [])

    # -- merged event reads ----------------------------------------------------
    #: every shard's fired events — the flat ``engine.fired`` shape.
    fired = _each_attr("fired", _by_event_time)
    active_events = _each(EventEngine.active_events, _sorted_concat)
    active_count = _each(EventEngine.active_count, sum, 0)
    is_triggered = _owner(EventEngine.is_triggered, False)
    mark_fixed = _owner(EventEngine.mark_fixed)

    def event_log(self, *, since: float = 0.0,
                  rule: Optional[str] = None,
                  node: Optional[str] = None,
                  limit: Optional[int] = None) -> List[FiredEvent]:
        merged = self._from_each(methodcaller(
            "event_log", since=since, rule=rule, node=node),
            _by_event_time)
        # ``limit`` bounds the merged log, not each shard's share.
        return newest(merged, limit)


class FederatedHistory(_View, organ="history"):
    """The ``server.history`` surface: per-host series live with the
    owning shard; cross-node queries route per host and merge.

    Reads on an unreachable owner return the flat store's unknown-host
    shapes (empty series, ``nan`` statistics) rather than raising —
    history is append-only telemetry, so "no data" is always a valid
    degraded answer.
    """

    series = _owner(HistoryStore.series, _EMPTY_SERIES, via_first=True)
    window = _owner(HistoryStore.window, _EMPTY_SERIES, via_first=True)
    latest = _owner(HistoryStore.latest, via_first=True)
    graph = _owner(HistoryStore.graph, _EMPTY_GRAPH, via_first=True)
    correlate = _owner(HistoryStore.correlate, math.nan, via_first=True)
    trend = _owner(HistoryStore.trend, (math.nan, math.nan),
                   via_first=True)
    forecast = _owner(HistoryStore.forecast, math.nan, via_first=True)
    forget = _owner(HistoryStore.forget, via_first=True)

    def compare_nodes(self, hostnames: Sequence[str], metric: str
                      ) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for hostname in hostnames:
            result.update(self._to_owner(
                hostname,
                methodcaller("compare_nodes", [hostname], metric), {},
                via_first=True))
        return result

    metric_names = _each_attr("metric_names", _sorted_union)
    hostnames = _each_attr("hostnames", _sorted_union)


class FederatedHealth(_View, organ="health"):
    """The ``server.health`` read surface (per-host routing)."""

    record = _owner(HealthTracker.record)
    state = _owner(HealthTracker.state, via_first=True)
    counts = _each(HealthTracker.counts, _sum_dicts, _EMPTY)
    add_listener = _each(HealthTracker.add_listener, _discard, None)


class FederatedRecovery(_View, organ="recovery"):
    """The ``server.recovery`` read surface (merged logs, routed
    records) — what the chaos harness scores against."""

    notifications = _each_attr("notifications", _by_row_time)
    errors = _each_attr("errors", _by_row_time)
    record_for = _owner(RecoveryOrchestrator.record_for)
    forget = _owner(RecoveryOrchestrator.forget)
