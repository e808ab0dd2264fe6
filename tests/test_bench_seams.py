"""What the repo benchmark reads of the program, by name.

``benchmarks/perf/tracer.py`` wraps spans around methods named in its
seam table and around store subscriptions by the name they registered
under; ``benchmarks/perf/workloads.py`` reads federation counters
between chunks.  A rename in the program makes the ledger read ``null``
instead of failing, so these tests resolve every such name.  The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro import ClusterWorX
from repro.faults import FaultPlane
from repro.gateway import WatchHub

_TRACER = (Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
           / "tracer.py")
_spec = importlib.util.spec_from_file_location("perf_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

_TOPOLOGIES = {"flat": {}, "shards4": {"topology": "federation",
                                       "shards": 4}}


@pytest.mark.parametrize("span, target",
                         [(span, target)
                          for span, target, _ in tracer.CLASS_SEAMS])
def test_class_seam_resolves(span, target):
    module, _, dotted = target.partition(":")
    owner, _, attr = dotted.partition(".")
    found = getattr(getattr(importlib.import_module(module), owner), attr)
    assert callable(found), span


@pytest.mark.parametrize("topology", list(_TOPOLOGIES))
def test_every_subscription_seam_is_registered(topology):
    cwx = ClusterWorX(n_nodes=8, seed=7, **_TOPOLOGIES[topology])
    hub = WatchHub(cwx.server)
    names = {sub.name for sub in cwx.server.store.subscriptions}
    assert set(tracer.SUBSCRIPTION_SEAMS) <= names
    hub.close()


def test_federation_counters_the_workloads_read():
    cwx = ClusterWorX(n_nodes=8, seed=7, **_TOPOLOGIES["shards4"])
    cwx.start()
    server = cwx.server
    rollups = server.store.rollups
    server.cluster_summary()
    assert rollups.refreshes + rollups.reuses > 0
    for shard in server.shards:
        assert shard.channel.dropped_ingests == 0
        assert shard.channel.up is True
    assert server.unrouted_updates == 0
    assert server.monitor.transitions == []
    # ``_failover_checks`` finds a kill's detection as a transition row
    # whose new state is the plain string "suspect": probes of a failing
    # shard are at most ``interval`` apart, so suspect comes before down
    killed_at = cwx.kernel.now
    FaultPlane(cwx.kernel, federation=server).kill_shard(1, killed_at)
    cwx.run(server.monitor.suspect_after + server.monitor.interval)
    (at, index, old, new), = server.monitor.transitions
    assert at >= killed_at and (index, old, new) == (1, "healthy", "suspect")
    # ``_failover_checks`` reads a row as (time, shard index, _, moved)
    moved = server.fail_over(1)
    (at, index, reason, n_moved), = server.failovers
    assert (at, index, reason, n_moved) == \
        (cwx.kernel.now, 1, "manual", len(moved))
