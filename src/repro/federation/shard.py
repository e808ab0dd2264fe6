"""One control-plane partition: a ClusterWorXServer plus ownership
metadata.

A shard *is* a full tier-2 server — state store, event engine, health
tracker, recovery orchestrator, agent ingest, sweep — scoped to the
node subset it owns exclusively.  The federation layer never reaches
into shard internals; everything it needs (rollups, routing, drain
migration) goes through the server's public surface, which is what lets
``topology="flat"`` and a 1-shard federation stay byte-identical.

A shard's *own* health is its record in the tracker of the
:class:`~repro.federation.monitor.ShardHealthMonitor` that owns it:
``healthy -> suspect -> down`` as heartbeats through its
:class:`~repro.federation.channel.ShardChannel` age out, ``drained``
after a drain or fail-over.  :attr:`Shard.health` and
:attr:`Shard.active` read that record.

Two helpers place work that names hosts: :func:`_first_active` is
where a host with no owner goes (power and console commands, unowned
subscriptions), and :func:`_group_by_owner` splits a host list into
per-shard shares (host-filtered subscriptions and their re-homing).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.server import ClusterWorXServer
from repro.federation.channel import ShardChannel
from repro.resilience.health import HealthState

__all__ = ["Shard"]


class Shard:
    """A partition's server plus the federation-side bookkeeping."""

    __slots__ = ("index", "name", "server", "last_heartbeat", "channel",
                 "tracker")

    def __init__(self, index: int, name: str, server: ClusterWorXServer):
        #: position in the federation's shard list (stable identity).
        self.index = index
        #: display name ("shard0", or the partition label for
        #: prefix-map topologies).
        self.name = name
        self.server = server
        #: sim time of the last successful heartbeat probe.
        self.last_heartbeat = 0.0
        #: the call path to this shard and the one test of whether it
        #: answers (``channel.up``).
        self.channel = ShardChannel(server.kernel, self)
        #: the tracker holding its health record (set by its monitor).
        self.tracker = None

    @property
    def health(self) -> HealthState:
        return self.tracker.state(self.name)

    @property
    def active(self) -> bool:
        """Not drained: a drained shard keeps its index, but no nodes."""
        return self.health is not HealthState.DRAINED

    @property
    def n_nodes(self) -> int:
        return len(self.server.managed_nodes)

    @property
    def hostnames(self) -> List[str]:
        return self.server.managed_hostnames

    def __repr__(self) -> str:
        return (f"Shard({self.index}, {self.name!r}, {self.health.value}, "
                f"nodes={self.n_nodes})")


def _first_active(shards: Sequence[Shard]) -> Shard:
    """Where work with no owner goes: the lowest-index active shard."""
    return next((s for s in shards if s.active), shards[0])


def _group_by_owner(hostnames: Iterable[str],
                    owner_of: Callable[[str], Optional[Shard]],
                    shards: Sequence[Shard]
                    ) -> List[Tuple[Shard, List[str]]]:
    """``[(shard, its share of hostnames)]`` in shard-index order;
    hosts with no active owner fall to the first active shard."""
    fallback = _first_active(shards)
    shares: Dict[int, List[str]] = {}
    for hostname in hostnames:
        shard = owner_of(hostname)
        if shard is None or not shard.active:
            shard = fallback
        shares.setdefault(shard.index, []).append(hostname)
    return [(shards[index], share)
            for index, share in sorted(shares.items())]
