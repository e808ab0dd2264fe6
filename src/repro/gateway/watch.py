"""Live watch streams: the subscription bus fanned out to real clients.

The store's subscription bus delivers every matching
:class:`~repro.core.statestore.Update` synchronously, on the simulation
thread, inside the publish loop.  A real network client cannot be
allowed anywhere near that loop — a stalled socket would stall the
cluster.  The hub decouples the two worlds:

* :class:`WatchHub` holds **one** bus subscription total.  Its callback
  does O(matching clients) work per update: look the hostname up in a
  host index, append to each matching client's bounded buffer, fire the
  client's edge-triggered wakeup.  Nothing in it blocks, allocates per
  byte, or writes to the store; the store delivers one update at a
  time, so the hub sees the updates in the order every other
  subscriber does.  The bus's slow-consumer detach contract backstops
  it: were the hub callback ever to start raising, the store cuts it
  off rather than degrading every publish.
* :class:`WatchClient` owns a two-stage bounded buffer.  Stage one is a
  FIFO of verbatim deltas (``queue_limit``).  When a consumer falls
  behind, overflow **coalesces**: later deltas merge per-host into a
  "latest values" map, so a recovering client gets one merged delta per
  host instead of the full backlog — bounded memory, newest data, in
  exactly the change-suppression spirit of §5.3.2.  A consumer that
  stays behind past ``evict_backlog`` merged hosts is **evicted**: the
  buffers drop, an eviction notice is queued, and the serving shell
  closes the stream.  One slow reader costs one notice, never a queue
  that grows with the cluster.

The hub is deterministic and loop-agnostic: wakeups are injected
callables (the asyncio shell passes ``loop.call_soon_threadsafe``), so
every policy decision here is unit-testable without a socket.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import (Callable, Deque, Dict, List, Mapping, Optional, Set,
                    Tuple)

from repro.core.server import ClusterWorXServer
from repro.core.statestore import Update

__all__ = ["WatchPolicy", "WatchClient", "WatchHub"]


class WatchPolicy:
    """Backpressure knobs shared by every client of one hub."""

    __slots__ = ("queue_limit", "evict_backlog")

    def __init__(self, *, queue_limit: int = 128,
                 evict_backlog: int = 1024):
        #: verbatim deltas buffered before coalescing starts.
        self.queue_limit = queue_limit
        #: distinct hosts allowed in the coalesced overflow map before
        #: the consumer is declared dead and evicted.
        self.evict_backlog = evict_backlog


class WatchClient:
    """One stream consumer: filters, bounded buffer, wakeup."""

    __slots__ = ("name", "hosts", "metrics", "policy", "notify",
                 "_lock", "_pending", "_coalesced", "delivered",
                 "coalesced", "dropped", "evicted", "closed")

    def __init__(self, *, name: str = "watch",
                 hosts: Optional[List[str]] = None,
                 metrics: Optional[List[str]] = None,
                 policy: Optional[WatchPolicy] = None,
                 notify: Optional[Callable[[], None]] = None):
        self.name = name
        self.hosts: Optional[Set[str]] = set(hosts) if hosts else None
        self.metrics: Optional[Set[str]] = set(metrics) if metrics \
            else None
        self.policy = policy if policy is not None else WatchPolicy()
        #: edge-triggered wakeup into the consumer's world; called with
        #: the hub's lock *not* held and only on empty->non-empty.
        self.notify = notify
        self._lock = threading.Lock()
        self._pending: Deque[Tuple[str, float, Mapping[str, object]]] = \
            deque()
        #: hostname -> (t, merged values) overflow map.
        self._coalesced: Dict[str, Tuple[float, Dict[str, object]]] = {}
        self.delivered = 0
        self.coalesced = 0
        self.dropped = 0
        self.evicted = False
        self.closed = False

    def wants(self, update: Update) -> bool:
        if self.hosts is not None and update.hostname not in self.hosts:
            return False
        if self.metrics is not None \
                and self.metrics.isdisjoint(update.values):
            return False
        return True

    def push(self, update: Update) -> bool:
        """Buffer one delta (sim thread).  Returns True when the
        consumer should be woken (buffer was empty)."""
        with self._lock:
            if self.evicted or self.closed:
                return False
            was_empty = not self._pending and not self._coalesced
            if len(self._pending) < self.policy.queue_limit \
                    and not self._coalesced:
                self._pending.append((update.hostname, update.time,
                                      update.values))
                return was_empty
            # Slow consumer: merge into the per-host latest-values map.
            entry = self._coalesced.get(update.hostname)
            if entry is None:
                if len(self._coalesced) >= self.policy.evict_backlog:
                    self._evict_locked()
                    return True  # wake it so the shell sees the notice
                self._coalesced[update.hostname] = (
                    update.time, dict(update.values))
            else:
                merged = entry[1]
                merged.update(update.values)
                self._coalesced[update.hostname] = (update.time, merged)
                self.dropped += 1  # a distinct delta folded away
            self.coalesced += 1
            return was_empty

    def _evict_locked(self) -> None:
        self.evicted = True
        self._pending.clear()
        self._coalesced.clear()

    def drain(self) -> List[Tuple[str, float, Mapping[str, object]]]:
        """Take everything buffered (consumer side): verbatim deltas
        first, then one merged delta per coalesced host."""
        with self._lock:
            out = list(self._pending)
            self._pending.clear()
            if self._coalesced:
                for hostname, (t, values) in self._coalesced.items():
                    out.append((hostname, t, values))
                self._coalesced.clear()
            self.delivered += len(out)
            return out

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._pending.clear()
            self._coalesced.clear()


class WatchHub:
    """All watch clients of one gateway, behind one bus subscription."""

    def __init__(self, server: ClusterWorXServer, *,
                 policy: Optional[WatchPolicy] = None):
        self.server = server
        self.policy = policy if policy is not None else WatchPolicy()
        self._lock = threading.Lock()
        #: hostname -> clients filtered to it; None-filter clients live
        #: in the wildcard list (they match every host).
        self._by_host: Dict[str, Set[WatchClient]] = {}
        self._wildcard: Set[WatchClient] = set()
        self.evictions = 0
        #: counters carried over from unregistered clients, so /stats
        #: totals are cumulative rather than only-currently-connected.
        self._retired = {"watch_frames": 0, "watch_coalesced": 0,
                         "watch_dropped": 0}
        self._sub = server.subscribe(self._on_update, name="gateway")

    # -- registration (serving side) -----------------------------------------
    def register(self, client: WatchClient) -> WatchClient:
        with self._lock:
            if client.hosts is None:
                self._wildcard.add(client)
            else:
                for hostname in client.hosts:
                    self._by_host.setdefault(hostname, set()).add(client)
        return client

    def unregister(self, client: WatchClient) -> None:
        client.close()
        with self._lock:
            self._retired["watch_frames"] += client.delivered
            self._retired["watch_coalesced"] += client.coalesced
            self._retired["watch_dropped"] += client.dropped
            self._wildcard.discard(client)
            if client.hosts is not None:
                for hostname in client.hosts:
                    bucket = self._by_host.get(hostname)
                    if bucket is not None:
                        bucket.discard(client)
                        if not bucket:
                            del self._by_host[hostname]

    @property
    def active_watchers(self) -> int:
        with self._lock:
            return len(self._wildcard) \
                + len({c for bucket in self._by_host.values()
                       for c in bucket})

    def totals(self) -> Dict[str, int]:
        """Aggregate per-client counters for /stats."""
        with self._lock:
            clients = set(self._wildcard)
            for bucket in self._by_host.values():
                clients.update(bucket)
            retired = dict(self._retired)
        frames = retired["watch_frames"] \
            + sum(c.delivered for c in clients)
        coalesced = retired["watch_coalesced"] \
            + sum(c.coalesced for c in clients)
        dropped = retired["watch_dropped"] \
            + sum(c.dropped for c in clients)
        return {"watch_frames": frames, "watch_coalesced": coalesced,
                "watch_dropped": dropped,
                "watch_evictions": self.evictions}

    def close(self) -> None:
        self._sub.cancel()
        with self._lock:
            clients = set(self._wildcard)
            for bucket in self._by_host.values():
                clients.update(bucket)
            self._wildcard.clear()
            self._by_host.clear()
        for client in clients:
            client.close()

    # -- the bus callback (sim thread; must stay cheap and non-mutating) -----
    def _on_update(self, update: Update) -> None:
        with self._lock:
            targets = self._by_host.get(update.hostname)
            if targets:
                clients = list(self._wildcard) + list(targets) \
                    if self._wildcard else list(targets)
            elif self._wildcard:
                clients = list(self._wildcard)
            else:
                return
        for client in clients:
            if not client.wants(update):
                continue
            wake = client.push(update)
            if client.evicted and not client.closed:
                self.evictions += 1
                client.closed = True  # count each eviction once
            if wake and client.notify is not None:
                client.notify()
