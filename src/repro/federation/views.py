"""Federated read-side facades over the shard servers.

Every tier-3 consumer of the flat server — client sessions, the
gateway, the chaos harness, the CLI — reads through a small surface:
``server.store``, ``server.engine``, ``server.history``,
``server.health``, ``server.recovery``.  This module reproduces each of
those surfaces over N shards, with the same shapes and the same cost
discipline:

* reads that were O(1) on the flat server stay O(shards) here (summary
  via the :class:`~repro.federation.rollup.RollupCache`, active-event
  counts, snapshot stamping) — never O(N);
* per-host reads route straight to the owning shard (O(1) owner lookup
  plus the flat cost);
* merge-reads (fired events, recovery logs) are O(total results), paid
  only by the caller who asked for the whole list.

Every cross-shard read goes through the owning shard's
:class:`~repro.federation.channel.ShardChannel` (``shard.call``) — the
WORX107 lint forbids bare ``.server.`` access in this module — and
degrades instead of raising: an unreachable shard contributes its
last-good snapshot (or nothing) to merged reads, per-host reads on a
dead owner return the flat store's "unknown host" shape, and callers
learn *why* from :meth:`FederationServer.degraded_info`, not from
exceptions.

Ownership is injected as a lookup callable so these views never hold —
or mutate — the federation's owner map.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping as MappingABC
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from repro.core.statestore import Snapshot, Subscription, Update
from repro.events.engine import FiredEvent
from repro.events.rules import ThresholdRule
from repro.federation.rollup import RollupCache
from repro.federation.shard import Shard

__all__ = ["FederatedSnapshot", "FederatedSubscription",
           "FederatedStore", "FederatedEvents", "FederatedHistory",
           "FederatedHealth", "FederatedRecovery"]

_EMPTY: Mapping[str, object] = MappingProxyType({})

#: what an unreachable shard contributes to a federated snapshot when
#: it has never published a part before (no last-good to re-serve).
_EMPTY_SNAPSHOT = Snapshot({}, 0, 0.0)

#: guard defaults for history reads on an unreachable owner — the same
#: shapes the flat HistoryStore returns for an unknown host.
_EMPTY_SERIES: Tuple[np.ndarray, np.ndarray] = (np.empty(0),
                                                np.empty(0))
_EMPTY_GRAPH: Tuple[np.ndarray, ...] = (np.empty(0), np.empty(0),
                                        np.empty(0), np.empty(0))

#: hostname -> owning shard (or None for unknown hosts).
OwnerLookup = Callable[[str], Optional[Shard]]


class FederatedSnapshot(MappingABC):
    """An immutable all-shards view: one COW snapshot per shard.

    Taking one is O(shards) — each per-shard snapshot is the store's
    O(1) copy-on-write view — and it is exactly as stable: every shard
    forks its host map on the next write, so this view never changes
    under the caller regardless of how the simulation moves on.
    """

    __slots__ = ("_parts", "generation", "time")

    def __init__(self, parts: Sequence[Snapshot]):
        self._parts = tuple(parts)
        #: sum of shard generations (monotone, like the flat stamp).
        self.generation = sum(p.generation for p in self._parts)
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

    __slots__ = ("parts", "name")

    def __init__(self, parts: Sequence[Subscription], name: str):
        self.parts = list(parts)
        self.name = name

    @property
    def active(self) -> bool:
        return any(part.active for part in self.parts)

    @property
    def delivered(self) -> int:
        return sum(part.delivered for part in self.parts)

    def cancel(self) -> None:
        for part in self.parts:
            part.cancel()


class FederatedStore:
    """The ``server.store`` surface, merged across shards."""

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of
        self.rollups = RollupCache(shards)
        #: (shard-generations, snapshot) cache so a quiescent
        #: federation re-serves one FederatedSnapshot object.
        self._snap_cache: Optional[Tuple[Tuple[int, ...],
                                         FederatedSnapshot]] = None
        #: per-shard last good snapshot part, re-served while the shard
        #: is unreachable (the degraded-mode read path).
        self._last_parts: Dict[int, Snapshot] = {}
        #: live logical subscriptions, so a drain can re-home the parts
        #: that were bound to the drained shard's bus.
        self._federated_subs: List[FederatedSubscription] = []

    def _fallback(self) -> Shard:
        return next((s for s in self._shards if s.active),
                    self._shards[0])

    def _last_part(self, shard: Shard) -> Snapshot:
        """The shard's last good snapshot part (degraded reads serve
        from it while the shard is unreachable).  A drained shard
        contributes nothing — its nodes live on the adopters now, and
        the stale part would double-count them."""
        if not shard.active:
            return _EMPTY_SNAPSHOT
        return self._last_parts.get(shard.index, _EMPTY_SNAPSHOT)

    # -- membership / routing ------------------------------------------------
    @property
    def tracked(self) -> Set[str]:
        out: Set[str] = set()
        for shard in self._shards:
            part = shard.call(lambda: shard.server.store.tracked,
                              default=None, label="tracked")
            if part is None:
                out |= set(self._last_part(shard))
            else:
                out |= part
        return out

    def is_tracked(self, hostname: str) -> bool:
        shard = self._owner_of(hostname)
        if shard is None:
            return False
        found = shard.call(
            lambda: shard.server.store.is_tracked(hostname),
            default=None, label="is_tracked")
        if found is None:
            return hostname in self._last_part(shard)
        return found

    def get(self, hostname: str) -> Mapping[str, object]:
        shard = self._owner_of(hostname)
        if shard is None:
            return _EMPTY
        values = shard.call(lambda: shard.server.store.get(hostname),
                            default=None, label="get")
        if values is None:
            return self._last_part(shard).get(hostname, _EMPTY)
        return values

    def last_seen(self, hostname: str) -> Optional[float]:
        shard = self._owner_of(hostname)
        if shard is None:
            return None
        return shard.call(
            lambda: shard.server.store.last_seen(hostname),
            default=None, label="last_seen")

    def last_agent_seen(self, hostname: str) -> Optional[float]:
        shard = self._owner_of(hostname)
        if shard is None:
            return None
        return shard.call(
            lambda: shard.server.store.last_agent_seen(hostname),
            default=None, label="last_agent_seen")

    @property
    def hostnames(self) -> List[str]:
        out: List[str] = []
        for shard in self._shards:
            names = shard.call(
                lambda: shard.server.store.hostnames,
                default=None, label="hostnames")
            out.extend(list(self._last_part(shard))
                       if names is None else names)
        return sorted(out)

    def __contains__(self, hostname: str) -> bool:
        shard = self._owner_of(hostname)
        if shard is None:
            return False
        found = shard.call(lambda: hostname in shard.server.store,
                           default=None, label="contains")
        if found is None:
            return hostname in self._last_part(shard)
        return found

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            n = shard.call(lambda: len(shard.server.store),
                           default=None, label="len")
            total += len(self._last_part(shard)) if n is None else n
        return total

    # -- read path -----------------------------------------------------------
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
            gen = shard.call(
                lambda: shard.server.store.generation,
                default=None, label="generation")
            if gen is None:
                gen = self._last_part(shard).generation
            gens.append(gen)
        key = tuple(gens)
        cached = self._snap_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        parts: List[Snapshot] = []
        for shard in self._shards:
            part = shard.call(
                lambda: shard.server.store.snapshot(),
                default=None, label="snapshot")
            if part is None:
                part = self._last_part(shard)
            else:
                self._last_parts[shard.index] = part
            parts.append(part)
        snap = FederatedSnapshot(parts)
        self._snap_cache = (key, snap)
        return snap

    # -- subscription bus ------------------------------------------------------
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
        parts: List[Subscription] = []
        if hosts is None:
            for shard in self._shards:
                part = shard.call(
                    lambda: shard.server.store.subscribe(
                        callback, name=name, metrics=metrics),
                    default=None, label="subscribe")
                if part is not None:
                    parts.append(part)
        else:
            by_shard: Dict[int, List[str]] = {}
            fallback = self._fallback()
            for hostname in hosts:
                shard = self._owner_of(hostname)
                if shard is None:
                    shard = fallback
                by_shard.setdefault(shard.index, []).append(hostname)
            for index, share in sorted(by_shard.items()):
                shard = self._shards[index]
                part = shard.call(
                    lambda: shard.server.store.subscribe(
                        callback, name=name, hosts=share,
                        metrics=metrics),
                    default=None, label="subscribe")
                if part is not None:
                    parts.append(part)
        fsub = FederatedSubscription(parts, name)
        self._federated_subs.append(fsub)
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
        delta a re-homed subscriber sees is the host's next agent
        update: no duplicates, nothing lost.  Returns the number of
        parts moved or dropped.
        """
        lookup = owner_of if owner_of is not None else self._owner_of
        # Identity anchor for "was this part on the drained shard" —
        # a deliberate direct read of the shard being drained.
        store = source.server.store  # worx: ok WORX107
        moved = 0
        alive: List[FederatedSubscription] = []
        for fsub in self._federated_subs:
            if not fsub.active:
                continue
            alive.append(fsub)
            for part in list(fsub.parts):
                if part.store is not store or not part.active:
                    continue
                part.cancel()
                fsub.parts.remove(part)
                moved += 1
                if part.hosts is None:
                    continue
                by_shard: Dict[int, List[str]] = {}
                for hostname in part.hosts:
                    shard = lookup(hostname)
                    if shard is None or not shard.active:
                        shard = self._fallback()
                    by_shard.setdefault(shard.index,
                                        []).append(hostname)
                for index, share in sorted(by_shard.items()):
                    shard = self._shards[index]
                    repl = shard.call(
                        lambda: shard.server.store.subscribe(
                            part.callback, name=part.name,
                            hosts=share, metrics=part.metrics),
                        default=None, label="rehome")
                    if repl is not None:
                        fsub.parts.append(repl)
        self._federated_subs = alive
        return moved

    @property
    def subscriptions(self) -> List[Subscription]:
        out: List[Subscription] = []
        for shard in self._shards:
            out.extend(shard.call(
                lambda: shard.server.store.subscriptions,
                default=(), label="subscriptions"))
        return out

    # -- merged observability counters ----------------------------------------
    @property
    def updates_applied(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.updates_applied,
            default=0, label="counters") for shard in self._shards)

    @property
    def full_copies(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.full_copies,
            default=0, label="counters") for shard in self._shards)

    @property
    def cow_forks(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.cow_forks,
            default=0, label="counters") for shard in self._shards)

    @property
    def snapshots_taken(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.snapshots_taken,
            default=0, label="counters") for shard in self._shards)

    @property
    def snapshot_reuses(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.snapshot_reuses,
            default=0, label="counters") for shard in self._shards)

    @property
    def notifications(self) -> int:
        return sum(shard.call(
            lambda: shard.server.store.notifications,
            default=0, label="counters") for shard in self._shards)

    @property
    def errors(self) -> List[Tuple[str, str, str]]:
        out: List[Tuple[str, str, str]] = []
        for shard in self._shards:
            out.extend(shard.call(
                lambda: shard.server.store.errors,
                default=(), label="errors"))
        return out

    @property
    def detached(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for shard in self._shards:
            out.extend(shard.call(
                lambda: shard.server.store.detached,
                default=(), label="detached"))
        return out


class FederatedEvents:
    """The ``server.engine`` surface, merged across shards."""

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of

    def _first_active(self) -> Shard:
        return next((s for s in self._shards if s.active),
                    self._shards[0])

    # -- rule management (fan-out: rules are global) --------------------------
    def add_rule(self, rule: ThresholdRule) -> None:
        for shard in self._shards:
            shard.call(lambda: shard.server.engine.add_rule(rule),
                       default=None, label="add_rule")

    def remove_rule(self, name: str) -> None:
        for shard in self._shards:
            shard.call(lambda: shard.server.engine.remove_rule(name),
                       default=None, label="remove_rule")

    def add_listener(self, listener) -> None:
        for shard in self._shards:
            shard.call(
                lambda: shard.server.engine.add_listener(listener),
                default=None, label="add_listener")

    def forget_node(self, hostname: str) -> None:
        shard = self._owner_of(hostname)
        if shard is not None:
            shard.call(
                lambda: shard.server.engine.forget_node(hostname),
                default=None, label="forget_node")

    @property
    def rules(self) -> List[ThresholdRule]:
        shard = self._first_active()
        return shard.call(lambda: shard.server.engine.rules,
                          default=[], label="rules")

    # -- merged event reads ----------------------------------------------------
    @property
    def fired(self) -> List[FiredEvent]:
        """All shards' fired events, merged by firing time (stable by
        shard index on ties) — the flat ``engine.fired`` shape."""
        return list(heapq.merge(
            *(shard.call(lambda: shard.server.engine.fired,
                         default=(), label="fired")
              for shard in self._shards),
            key=lambda event: event.time))

    def active_events(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for shard in self._shards:
            out.extend(shard.call(
                lambda: shard.server.engine.active_events(),
                default=(), label="active_events"))
        return sorted(out)

    def active_count(self) -> int:
        return sum(shard.call(
            lambda: shard.server.engine.active_count(),
            default=0, label="active_count")
            for shard in self._shards)

    def is_triggered(self, rule_name: str, hostname: str) -> bool:
        shard = self._owner_of(hostname)
        if shard is None:
            return False
        return shard.call(
            lambda: shard.server.engine.is_triggered(rule_name,
                                                     hostname),
            default=False, label="is_triggered")

    def event_log(self, *, since: float = 0.0,
                  rule: Optional[str] = None,
                  node: Optional[str] = None,
                  limit: Optional[int] = None) -> List[FiredEvent]:
        merged = list(heapq.merge(
            *(shard.call(
                lambda: shard.server.engine.event_log(
                    since=since, rule=rule, node=node),
                default=(), label="event_log")
              for shard in self._shards),
            key=lambda event: event.time))
        if limit is not None:
            merged = merged[-limit:]
        return merged

    def mark_fixed(self, rule_name: str, hostname: str) -> None:
        shard = self._owner_of(hostname)
        if shard is not None:
            shard.call(
                lambda: shard.server.engine.mark_fixed(rule_name,
                                                       hostname),
                default=None, label="mark_fixed")


class FederatedHistory:
    """The ``server.history`` surface: per-host series live with the
    owning shard; cross-node queries route per host and merge.

    Reads on an unreachable owner return the flat store's unknown-host
    shapes (empty series, ``nan`` statistics) rather than raising —
    history is append-only telemetry, so "no data" is always a valid
    degraded answer.
    """

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of

    def _route(self, hostname: str) -> Shard:
        shard = self._owner_of(hostname)
        return shard if shard is not None else self._shards[0]

    def series(self, hostname: str, metric: str):
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.series(hostname, metric),
            default=_EMPTY_SERIES, label="series")

    def window(self, hostname: str, metric: str, t0: float, t1: float):
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.window(hostname, metric,
                                                t0, t1),
            default=_EMPTY_SERIES, label="window")

    def latest(self, hostname: str, metric: str):
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.latest(hostname, metric),
            default=None, label="latest")

    def graph(self, hostname: str, metric: str, buckets: int = 60):
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.graph(hostname, metric,
                                               buckets),
            default=_EMPTY_GRAPH, label="graph")

    def correlate(self, hostname: str, metric_a: str, metric_b: str
                  ) -> float:
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.correlate(hostname, metric_a,
                                                   metric_b),
            default=math.nan, label="correlate")

    def trend(self, hostname: str, metric: str, *,
              window: Optional[float] = None):
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.trend(hostname, metric,
                                               window=window),
            default=(math.nan, math.nan), label="trend")

    def forecast(self, hostname: str, metric: str, at: float, *,
                 window: Optional[float] = None) -> float:
        shard = self._route(hostname)
        return shard.call(
            lambda: shard.server.history.forecast(hostname, metric,
                                                  at, window=window),
            default=math.nan, label="forecast")

    def compare_nodes(self, hostnames: Sequence[str], metric: str
                      ) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for hostname in hostnames:
            shard = self._route(hostname)
            result.update(shard.call(
                lambda: shard.server.history.compare_nodes(
                    [hostname], metric),
                default={}, label="compare_nodes"))
        return result

    def forget(self, hostname: str) -> None:
        shard = self._route(hostname)
        shard.call(lambda: shard.server.history.forget(hostname),
                   default=None, label="forget")

    @property
    def metric_names(self) -> List[str]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.call(
                lambda: shard.server.history.metric_names,
                default=(), label="metric_names"))
        return sorted(names)

    @property
    def hostnames(self) -> List[str]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.call(
                lambda: shard.server.history.hostnames,
                default=(), label="hostnames"))
        return sorted(names)


class FederatedHealth:
    """The ``server.health`` read surface (per-host routing)."""

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of

    def record(self, hostname: str):
        shard = self._owner_of(hostname)
        if shard is None:
            return None
        return shard.call(
            lambda: shard.server.health.record(hostname),
            default=None, label="record")

    def state(self, hostname: str):
        shard = self._owner_of(hostname)
        if shard is None:
            shard = self._shards[0]
        return shard.call(
            lambda: shard.server.health.state(hostname),
            default=None, label="state")

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for shard in self._shards:
            part = shard.call(
                lambda: shard.server.health.counts(),
                default=_EMPTY, label="counts")
            for state, count in part.items():
                merged[state] = merged.get(state, 0) + count
        return merged

    def add_listener(self, listener) -> None:
        for shard in self._shards:
            shard.call(
                lambda: shard.server.health.add_listener(listener),
                default=None, label="add_listener")


class FederatedRecovery:
    """The ``server.recovery`` read surface (merged logs, routed
    records) — what the chaos harness scores against."""

    def __init__(self, shards: Sequence[Shard], owner_of: OwnerLookup):
        self._shards = list(shards)
        self._owner_of = owner_of

    @property
    def notifications(self) -> List[Tuple[float, str, str]]:
        return list(heapq.merge(
            *(shard.call(lambda: shard.server.recovery.notifications,
                         default=(), label="notifications")
              for shard in self._shards),
            key=lambda row: row[0]))

    @property
    def errors(self) -> List[Tuple[float, str, str, str]]:
        return list(heapq.merge(
            *(shard.call(lambda: shard.server.recovery.errors,
                         default=(), label="errors")
              for shard in self._shards),
            key=lambda row: row[0]))

    def record_for(self, hostname: str):
        shard = self._owner_of(hostname)
        if shard is None:
            return None
        return shard.call(
            lambda: shard.server.recovery.record_for(hostname),
            default=None, label="record_for")

    def forget(self, hostname: str) -> None:
        shard = self._owner_of(hostname)
        if shard is not None:
            shard.call(
                lambda: shard.server.recovery.forget(hostname),
                default=None, label="forget")
