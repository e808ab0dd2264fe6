"""repro.federation — the sharded control plane.

One :class:`~repro.core.server.ClusterWorXServer` owning every node is
the scalability ceiling the BNL paper (PAPERS.md) documents; this
package splits the control plane into per-partition shards under a
thin federation layer:

* :mod:`~repro.federation.shard` — one partition: a full tier-2 server
  scoped to the nodes it owns exclusively;
* :mod:`~repro.federation.rollup` — generation-cached cross-shard
  aggregation: the global summary costs O(shards), never O(N);
* :mod:`~repro.federation.views` — the flat server's read surfaces
  (store/engine/history/health/recovery) merged across shards;
* :mod:`~repro.federation.channel` — the simulated RPC boundary to one
  shard: two fault switches, one ``up`` test, the ingest backlog;
* :mod:`~repro.federation.monitor` — shard heartbeats, each shard's
  health record and automatic fail-over of a down shard;
* :mod:`~repro.federation.server` — the coordinator: ingest routing,
  query merging, drain-triggered rebalancing, shard fail-over; remote
  runs and cloning ride the fabric from it, one window over every node,
  as they do from the flat server;
* :mod:`~repro.federation.api` — deterministic partition planning and
  the ``topology="federation"`` builder registration.

This package sits at layer 5 of the layer DAG: above :mod:`repro.core`
(it composes shard servers) and below :mod:`repro.gateway` (which
serves either topology through the same duck-typed surface).  Shards
are plain core servers and never import federation.
"""

from repro.federation.api import build_federation, plan_partitions
from repro.federation.channel import ShardChannel
from repro.federation.monitor import ShardHealthMonitor
from repro.federation.rollup import RollupCache
from repro.federation.server import FederationServer
from repro.federation.shard import Shard
from repro.federation.views import (FederatedEvents, FederatedHealth,
                                    FederatedHistory, FederatedRecovery,
                                    FederatedSnapshot, FederatedStore,
                                    FederatedSubscription)

__all__ = [
    "FederationServer", "Shard", "RollupCache",
    "ShardChannel", "ShardHealthMonitor",
    "FederatedEvents", "FederatedHealth", "FederatedHistory",
    "FederatedRecovery", "FederatedSnapshot", "FederatedStore",
    "FederatedSubscription", "build_federation", "plan_partitions",
]
