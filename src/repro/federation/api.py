"""Assembly: partition a cluster into shards and build the federation.

This module is the federation's plug into the facade's topology
registry: importing it registers the ``"federation"`` builder, which is
how ``ClusterWorX(topology="federation", shards=4)`` works without
:mod:`repro.core` ever importing upward into this package (the layer
DAG points strictly down; the top-level :mod:`repro` package performs
the registration import).

Partitioning is deterministic: by default the node universe splits into
``shards`` contiguous near-equal ranges
(:meth:`~repro.remote.nodeset.NodeSet.partition`); passing a
``partition`` prefix map instead routes by hostname prefix
(:meth:`~repro.remote.nodeset.NodeSet.split_by`) for rack- or
enclosure-aligned ownership.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.api import register_topology
from repro.core.cluster import Cluster
from repro.core.server import ClusterWorXServer
from repro.federation.server import FederationServer
from repro.federation.shard import Shard
from repro.imaging.manager import ImageManager
from repro.remote.nodeset import NodeSet
from repro.sim import SimKernel

__all__ = ["build_federation", "plan_partitions"]


def plan_partitions(cluster: Cluster, *, shards: int = 1,
                    partition: Optional[Dict[str, str]] = None
                    ) -> List[Tuple[str, NodeSet]]:
    """The deterministic ownership plan: ``[(shard name, NodeSet)]``.

    Either ``shards`` contiguous near-equal ranges over the cluster's
    node universe, or — when a ``partition`` prefix map is given — one
    shard per map label (sorted), each owning the hostnames matching
    its prefixes.
    """
    universe = NodeSet(node.hostname for node in cluster.nodes)
    if partition is not None:
        labelled = universe.split_by(partition)
        return [(label, labelled[label])
                for label in sorted(labelled)]
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return [(f"shard{i}", part)
            for i, part in enumerate(universe.partition(shards))]


def build_federation(kernel: SimKernel, cluster: Cluster, *,
                     registry=None, notifier=None, shards: int = 1,
                     partition: Optional[Dict[str, str]] = None,
                     **server_kwargs) -> FederationServer:
    """Build N partition shards plus the federation layer over them.

    ``server_kwargs`` (self_healing, suspect_after, down_after, ...)
    forward to every shard's :class:`ClusterWorXServer` unchanged, so a
    shard is configured exactly like the flat server would have been —
    the 1-shard golden-trace equivalence rests on that.  Shard-level
    self-healing knobs (``shard_down_after``, ``auto_failover``) are
    peeled off here and given to the :class:`FederationServer` instead
    — they govern the health of *shards*, not of nodes.
    """
    federation_kwargs = {
        key: server_kwargs.pop(key)
        for key in ("shard_down_after", "auto_failover")
        if key in server_kwargs}
    plan = plan_partitions(cluster, shards=shards, partition=partition)
    images = ImageManager()
    shard_list: List[Shard] = []
    by_name = {node.hostname: node for node in cluster.nodes}
    for index, (name, nodeset) in enumerate(plan):
        nodes = [by_name[hostname] for hostname in nodeset]
        server = ClusterWorXServer(kernel, cluster, registry=registry,
                                   notifier=notifier, nodes=nodes,
                                   images=images, **server_kwargs)
        shard_list.append(Shard(index, name, server))
    return FederationServer(kernel, cluster, shard_list,
                            registry=registry, notifier=notifier,
                            images=images, **federation_kwargs)


register_topology("federation", build_federation)
