"""The tier-2 state store: typed updates, O(delta) rollups, versioned
copy-on-write snapshots, and a subscription bus (§5.1).

The paper's 3-tier claim is that "multiple clients access the ClusterWorX
server at the same time without conflict" with a near-real-time view.
That only scales if the *read* path costs nothing per query: a summary
screen polled by every client must not rescan N nodes, and a cluster view
must not deep-copy the whole state.  This module is the datapath that
makes both true:

* :class:`Update` — the typed value that replaces bare ``(hostname, t,
  dict)`` triples end-to-end: agents emit it, the wire carries its
  values, the server applies it, subscribers receive it.  It is defined
  in :mod:`repro.monitoring.records` (producers sit below this server
  in the layer DAG) and re-exported here for tier-2 consumers.
* :class:`StateStore` — owns current state.  Every :meth:`~StateStore.
  apply` maintains the cluster rollup *incrementally* (running up/down
  counts, CPU/mem/temp aggregates), so :meth:`~StateStore.summary` is an
  O(1) read regardless of cluster size.
* :class:`Snapshot` — an immutable, generation-stamped view.  Taking one
  is O(1); the store forks its top-level map copy-on-write on the next
  write instead of copying values per query (``full_copies`` stays 0).
* :class:`Subscription` — server-side consumers (history, event engine)
  and tier-3 clients register for pushed deltas instead of being
  hard-wired inline in the receive path.

"""

from __future__ import annotations

import logging
from collections.abc import Mapping as MappingABC
from operator import itemgetter
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from repro.monitoring.records import Sample, Update

__all__ = ["Update", "Sample", "Snapshot", "Subscription", "StateStore",
           "summarize"]

_log = logging.getLogger("repro.core.statestore")

_EMPTY: Mapping[str, object] = MappingProxyType({})


def summarize(rollup: Mapping[str, object]) -> Dict[str, object]:
    """The summary screen's numbers from a :meth:`StateStore.rollup`
    shaped dict — one store's, or several stores' merged."""
    total = rollup["nodes_total"]
    up = rollup["nodes_up"]
    cpu_n = rollup["cpu_n"]
    return {
        "nodes_total": total,
        "nodes_up": up,
        "nodes_down": total - up,
        "cpu_util_mean_pct": rollup["cpu_sum"] / cpu_n if cpu_n else 0.0,
        "mem_used_bytes": int(rollup["mem_used"]),
        "mem_total_bytes": int(rollup["mem_total"]),
        "cpu_temp_max_c": rollup["temp_max"],
        "generation": rollup["generation"],
    }


class Snapshot(MappingABC):
    """An immutable hostname -> values view at one store generation.

    Creation is O(1): the snapshot captures the store's live host map by
    reference and the store forks that map (a shallow, pointer-level
    copy) only if a later write arrives — classic copy-on-write.  The
    per-host value mappings are never mutated by the store (writes
    replace them), so the whole view is stable for as long as the caller
    holds it, across any number of concurrent receives.
    """

    __slots__ = ("_hosts", "generation", "time", "membership")

    def __init__(self, hosts: Dict[str, Mapping[str, object]],
                 generation: int, time: float, membership: int):
        self._hosts = hosts
        #: store generation this view is stamped with (monotone).
        self.generation = generation
        #: simulation time of the last applied update.
        self.time = time
        #: the store's membership stamp: two snapshots of one store with
        #: equal stamps hold the same hostnames.
        self.membership = membership

    def __getitem__(self, hostname: str) -> Mapping[str, object]:
        return MappingProxyType(self._hosts[hostname])

    def __iter__(self) -> Iterator[str]:
        return iter(self._hosts)

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, hostname: object) -> bool:
        return hostname in self._hosts

    def select(self, hostnames: Iterable[str],
               fields: Optional[Tuple[str, ...]] = None
               ) -> Iterator[Tuple[Tuple[str, ...], Tuple[object, ...]]]:
        """Per listed host, ``(names, values)``: the (distinct) ``fields``
        it holds, or all its values by sorted name when ``fields`` is
        None.  No proxy; each tuple is built at its final size, as one
        resized on the way stays counted as a collector allocation.  Given
        ``fields``, one getter serves every row."""
        pick = (itemgetter(*fields) if fields is not None and len(fields) > 1
                else None)
        for hostname in hostnames:
            values = self._hosts[hostname]
            names, get = fields, pick
            if names is None:
                names = tuple(sorted(values))
                get = itemgetter(*names) if len(names) > 1 else None
            try:
                row = (get(values) if get is not None
                       else tuple([values[name] for name in names]))
            except KeyError:
                names = tuple([name for name in names if name in values])
                row = tuple([values[name] for name in names])
            yield names, row

    def __repr__(self) -> str:
        return (f"Snapshot(gen={self.generation}, "
                f"hosts={len(self._hosts)})")


class Subscription:
    """A registered consumer of pushed deltas. ``cancel()`` to detach."""

    __slots__ = ("store", "callback", "name", "hosts", "metrics",
                 "delivered", "active", "consecutive_errors")

    def __init__(self, store: "StateStore",
                 callback: Callable[[Update], None], *,
                 name: str = "?",
                 hosts: Optional[Iterable[str]] = None,
                 metrics: Optional[Iterable[str]] = None):
        self.store = store
        self.callback = callback
        self.name = name
        self.hosts: Optional[Set[str]] = set(hosts) if hosts else None
        self.metrics: Optional[Set[str]] = \
            set(metrics) if metrics else None
        self.delivered = 0
        self.active = True
        #: errors since the last successful delivery; the store detaches
        #: the subscription when this crosses its error limit.
        self.consecutive_errors = 0

    def wants(self, update: Update) -> bool:
        if self.hosts is not None and update.hostname not in self.hosts:
            return False
        if self.metrics is not None and \
                self.metrics.isdisjoint(update.values):
            return False
        return True

    def cancel(self) -> None:
        self.active = False
        self.store.unsubscribe(self)


class StateStore:
    """Current cluster state with O(delta) writes and O(1) reads.

    The rollup tracks the exact aggregates the main monitoring screen
    shows (§5.1 "view cluster use and performance trends"): node
    up/down counts (from ``udp_echo``), mean CPU utilisation, total
    memory used/installed, and hottest CPU.  Each :meth:`apply` adjusts
    them by subtracting the host's old contribution and adding the new
    one — cost proportional to the delta, never to the cluster.

    ``max`` is the one aggregate that cannot be decremented; the store
    keeps the arg-max cached and rescans the per-host temperature table
    only when the current hottest host cools (``temp_rescans`` counts
    how rarely that happens).
    """

    #: metric the up/down rollup watches (1 == reachable).
    UP_METRIC = "udp_echo"

    def __init__(self):
        self._hosts: Dict[str, Dict[str, object]] = {}
        self._last_update: Dict[str, float] = {}
        #: freshness of *tier-1* (agent) updates only.  Sweep echoes and
        #: server-synthesized metrics must not be able to keep a dead
        #: node looking fresh — the health tracker reads this map.
        self._last_agent: Dict[str, float] = {}
        self._tracked: Set[str] = set()
        self._generation = 0
        #: moves only when the host map gains or loses a key (a host's
        #: first write, ``forget``), unlike the generation, which moves
        #: with every update.
        self._membership = 0
        self._time = 0.0
        self._snapshot: Optional[Snapshot] = None
        #: replaced, never mutated, on (un)subscribe: a publish iterates
        #: the tuple it started with, so a callback may cancel or
        #: subscribe mid-publish and no publish pays for a copy.
        self._subs: Tuple[Subscription, ...] = ()
        # -- incremental rollup state --
        self._up: Set[str] = set()
        self._cpu_sum = 0.0
        self._cpu_n = 0
        self._mem_used = 0.0
        self._mem_total = 0.0
        self._temps: Dict[str, float] = {}
        self._temp_max = 0.0
        self._temp_argmax: Optional[str] = None
        # -- observability counters --
        self.updates_applied = 0
        self.snapshots_taken = 0
        self.snapshot_reuses = 0
        self.cow_forks = 0
        #: whole-state value copies performed by the read path — the
        #: legacy per-query behaviour this store exists to eliminate;
        #: stays 0 (bench_e14 asserts it).
        self.full_copies = 0
        self.temp_rescans = 0
        self.notifications = 0
        #: (subscriber name, hostname, error text) for callbacks that
        #: raised; one bad consumer must not stall the datapath.
        self.errors: List[Tuple[str, str, str]] = []
        #: consecutive callback failures a subscriber is allowed before
        #: the store detaches it.  A consumer that raises on *every*
        #: delivery would otherwise silently tax each publish forever —
        #: the gateway's bounded-queue adapter relies on misbehaving
        #: consumers being cut off rather than degrading the datapath.
        self.subscriber_error_limit = 5
        #: (subscriber name, error text) for subscriptions the store
        #: force-detached after ``subscriber_error_limit`` failures.
        self.detached: List[Tuple[str, str]] = []

    # -- membership ---------------------------------------------------------
    def track(self, hostname: str) -> None:
        """Declare a host part of the cluster (counts as down until its
        first reachable update)."""
        if hostname not in self._tracked:
            self._tracked.add(hostname)
            self._generation += 1

    def forget(self, hostname: str) -> None:
        """Drop every trace of a host: state, rollup contributions,
        freshness — the hot-remove path."""
        was_tracked = hostname in self._tracked
        self._tracked.discard(hostname)
        self._last_update.pop(hostname, None)
        self._last_agent.pop(hostname, None)
        old = self._hosts.get(hostname)
        if old is None:
            # A silent host left ``nodes_total``: a cached rollup must see
            self._generation += was_tracked
            return
        self._rollup_remove(hostname, old)
        self._fork_if_frozen()
        del self._hosts[hostname]
        self._generation += 1
        self._membership += 1

    @property
    def tracked(self) -> Set[str]:
        return set(self._tracked)

    def is_tracked(self, hostname: str) -> bool:
        """O(1) membership test (the sweep's hot-remove guard)."""
        return hostname in self._tracked

    # -- write path ---------------------------------------------------------
    def apply(self, update: Update) -> Update:
        """Merge one typed delta and publish it to the subscribers;
        O(len(update.values) + host metrics)."""
        if not update.values:
            return update
        self._merge(update.hostname, update.values, update.time,
                    update.time if update.source == "agent" else None)
        self.updates_applied += 1
        self._publish(update)
        return update

    def restore(self, hostname: str, values: Mapping[str, object], *,
                time: float, agent_time: Optional[float] = None) -> None:
        """Seed a host's state wholesale, without notifying subscribers.

        This is the shard-rebalance migration path: when a drained
        shard's node moves to a new owner, the new store adopts the
        node's last-known values (and agent freshness, so the health
        tracker does not immediately declare it stale) as a silent
        write.  Subscribers are deliberately *not* published to — the
        values are not new observations, and replaying them would
        double-count history points and re-send deltas watchers already
        saw.  Event rules read the seeded row from the host's next
        update on.
        """
        self.track(hostname)
        if values:
            self._merge(hostname, values, time, agent_time)

    def _merge(self, host: str, values: Mapping[str, object],
               time: float, agent_time: Optional[float]) -> None:
        """The one write: rollup delta, merged value dict, copy-on-write
        fork, freshness (``agent_time`` only for tier-1 evidence),
        generation."""
        old = self._hosts.get(host)
        old_values: Mapping[str, object] = old if old is not None \
            else _EMPTY
        if old is None:
            self._membership += 1
        self._rollup_delta(host, old_values, values)
        merged = dict(old_values)
        merged.update(values)
        self._fork_if_frozen()
        self._hosts[host] = merged
        self._last_update[host] = time
        if agent_time is not None:
            self._last_agent[host] = agent_time
        if time > self._time:
            self._time = time
        self._generation += 1

    def _fork_if_frozen(self) -> None:
        """Copy-on-write: if a live snapshot references the host map,
        replace it with a shallow (pointer-level) copy before writing."""
        if self._snapshot is not None:
            self._hosts = dict(self._hosts)
            self._snapshot = None
            self.cow_forks += 1

    # -- incremental rollup --------------------------------------------------
    def _rollup_delta(self, host: str, old: Mapping[str, object],
                      new: Mapping[str, object]) -> None:
        if self.UP_METRIC in new:
            if new[self.UP_METRIC] == 1:
                self._up.add(host)
            else:
                self._up.discard(host)
        if "cpu_util_pct" in new:
            if "cpu_util_pct" in old:
                self._cpu_sum -= float(old["cpu_util_pct"])
            else:
                self._cpu_n += 1
            self._cpu_sum += float(new["cpu_util_pct"])
        if "mem_used_bytes" in new:
            self._mem_used += (float(new["mem_used_bytes"])
                               - float(old.get("mem_used_bytes", 0)))
        if "mem_total_bytes" in new:
            self._mem_total += (float(new["mem_total_bytes"])
                                - float(old.get("mem_total_bytes", 0)))
        if "cpu_temp_c" in new:
            temp = float(new["cpu_temp_c"])
            self._temps[host] = temp
            if temp >= self._temp_max or self._temp_argmax is None:
                self._temp_max = temp
                self._temp_argmax = host
            elif host == self._temp_argmax:
                self._rescan_temps()

    def _rollup_remove(self, host: str,
                       old: Mapping[str, object]) -> None:
        self._up.discard(host)
        if "cpu_util_pct" in old:
            self._cpu_sum -= float(old["cpu_util_pct"])
            self._cpu_n -= 1
        self._mem_used -= float(old.get("mem_used_bytes", 0))
        self._mem_total -= float(old.get("mem_total_bytes", 0))
        if self._temps.pop(host, None) is not None \
                and host == self._temp_argmax:
            self._rescan_temps()

    def _rescan_temps(self) -> None:
        self.temp_rescans += 1
        if self._temps:
            self._temp_argmax = max(self._temps, key=self._temps.get)
            self._temp_max = self._temps[self._temp_argmax]
        else:
            self._temp_argmax = None
            self._temp_max = 0.0

    # -- read path ----------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def get(self, hostname: str) -> Mapping[str, object]:
        """One host's merged current values (immutable, zero-copy)."""
        values = self._hosts.get(hostname)
        return MappingProxyType(values) if values is not None else _EMPTY

    def last_seen(self, hostname: str) -> Optional[float]:
        return self._last_update.get(hostname)

    def last_agent_seen(self, hostname: str) -> Optional[float]:
        """When the node's *agent* last reported (staleness source)."""
        return self._last_agent.get(hostname)

    def snapshot(self) -> Snapshot:
        """The versioned all-hosts view; O(1), shared until a write."""
        if self._snapshot is None:
            self._snapshot = Snapshot(self._hosts, self._generation,
                                      self._time, self._membership)
            self.snapshots_taken += 1
        else:
            self.snapshot_reuses += 1
        return self._snapshot

    def rollup(self) -> Dict[str, object]:
        """The *raw* additive aggregates behind :meth:`summary`.

        Cross-shard federation needs the pre-division numbers: a mean of
        means is wrong, a sum of sums is right.  Everything here merges
        by addition except ``temp_max`` (merge by max) and
        ``generation`` (a per-store version, used by the federation
        cache to detect which shard's contribution went stale).
        """
        total = len(self._tracked) if self._tracked else len(self._hosts)
        return {
            "nodes_total": total,
            "nodes_up": len(self._up),
            "cpu_sum": self._cpu_sum,
            "cpu_n": self._cpu_n,
            "mem_used": self._mem_used,
            "mem_total": self._mem_total,
            "temp_max": self._temp_max,
            "generation": self._generation,
        }

    def summary(self) -> Dict[str, object]:
        """The cluster rollup, read straight off the running aggregates."""
        return summarize(self.rollup())

    @property
    def hostnames(self) -> List[str]:
        return sorted(self._hosts)

    def __contains__(self, hostname: str) -> bool:
        return hostname in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    # -- subscription bus -----------------------------------------------------
    def subscribe(self, callback: Callable[[Update], None], *,
                  name: str = "?",
                  hosts: Optional[Iterable[str]] = None,
                  metrics: Optional[Iterable[str]] = None
                  ) -> Subscription:
        """Register for pushed deltas.  ``hosts``/``metrics`` restrict
        delivery; the callback always receives the full Update."""
        sub = Subscription(self, callback, name=name, hosts=hosts,
                           metrics=metrics)
        self._subs += (sub,)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        self._subs = tuple(s for s in self._subs if s is not sub)

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subs)

    def _publish(self, update: Update) -> None:
        for sub in self._subs:
            if not sub.active or not sub.wants(update):
                continue
            try:
                sub.callback(update)
            except Exception as exc:  # consumer code is arbitrary
                self._note_failure(sub, update, exc)
                continue
            sub.delivered += 1
            sub.consecutive_errors = 0
            self.notifications += 1

    def _note_failure(self, sub: Subscription, update: Update,
                      exc: Exception) -> None:
        """Record one callback failure; detach the subscriber once it
        has failed ``subscriber_error_limit`` consecutive deliveries.

        Error isolation alone is not enough: a consumer whose callback
        raises on *every* update would keep costing one exception per
        publish, forever, and nobody would notice.  Past the limit the
        store cancels the subscription and logs a warning — the
        slow/broken consumer is cut off, the datapath stays clean.
        """
        self.errors.append((sub.name, update.hostname, str(exc)))
        sub.consecutive_errors += 1
        if sub.consecutive_errors >= self.subscriber_error_limit:
            sub.active = False
            self.unsubscribe(sub)
            self.detached.append((sub.name, str(exc)))
            _log.warning(
                "detaching subscriber %r after %d consecutive callback "
                "errors (last: %s)", sub.name, sub.consecutive_errors,
                exc)
