"""E6 — consolidation: change suppression and the request cache (§5.3.2).

Paper claims: the static/dynamic distinction plus transmitting "only data
that has changed since the last transmission ... reduces the amount of
transferred data substantially"; and caching lets "simultaneous requests
be served using the same set of data".

Regenerated: bytes on the wire with suppression on vs off (the DESIGN.md
ablation), per workload profile; cache hit rates under concurrent client
load.
"""

import pytest

from _harness import print_table
from repro.core import ClusterWorX
from repro.hardware import WorkloadGenerator, WorkloadSegment
from repro.monitoring import Consolidator, TextCodec, builtin_registry
from repro.monitoring.monitors import MonitorContext
from repro.sim import RandomStreams, SimKernel


def _run_cluster(suppress: bool, busy: bool, seconds=600, n_nodes=20):
    cwx = ClusterWorX(n_nodes=n_nodes, seed=21, monitor_interval=5.0)
    cwx.start()
    if busy:
        gen = WorkloadGenerator(RandomStreams(3)("jobs"))
        for node in cwx.cluster.nodes:
            node.workload.extend(gen.hpc_job(cwx.kernel.now + 5.0,
                                             tag="mix"))
    if not suppress:
        # Ablation: disable change suppression by clearing transmitted
        # state before every update.
        for agent in cwx.agents.values():
            original = agent.consolidator.update

            def always_full(values, t, _c=agent.consolidator,
                            _orig=original):
                _c.force_full_retransmit()
                return _orig(values, t)

            agent.consolidator.update = always_full
    cwx.run(seconds)
    total_bytes = sum(a.transmitter.bytes_sent for a in cwx.agents.values())
    frames = sum(a.transmitter.frames_sent for a in cwx.agents.values())
    ratios = [a.consolidator.suppression_ratio
              for a in cwx.agents.values()]
    return total_bytes, frames, sum(ratios) / len(ratios)


def test_change_suppression_ablation(benchmark):
    def run():
        out = {}
        for busy in (False, True):
            for suppress in (True, False):
                out[(busy, suppress)] = _run_cluster(suppress, busy)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for busy in (False, True):
        on_bytes = results[(busy, True)][0]
        off_bytes = results[(busy, False)][0]
        rows.append([
            "busy" if busy else "idle",
            f"{off_bytes / 1024:.0f}",
            f"{on_bytes / 1024:.0f}",
            f"{off_bytes / max(on_bytes, 1):.1f}x",
            f"{results[(busy, True)][2] * 100:.0f}%",
        ])
    print_table(
        "E6a: change suppression, 20 nodes x 600 s @ 5 s interval",
        ["workload", "KiB (suppression off)", "KiB (on)",
         "reduction", "values suppressed"], rows)

    # "Reduces the amount of transferred data substantially":
    idle_gain = results[(False, False)][0] / results[(False, True)][0]
    busy_gain = results[(True, False)][0] / results[(True, True)][0]
    assert idle_gain > 3.0           # idle clusters barely change
    assert busy_gain > 1.3           # busy ones still save
    assert idle_gain > busy_gain     # suppression helps most when quiet


def test_request_cache_serves_simultaneous_clients(benchmark):
    def run():
        kernel = SimKernel()
        from repro.hardware import SimulatedNode
        node = SimulatedNode(kernel, "c", node_id=1)
        node.power_on()
        node.workload.add(WorkloadSegment(start=0, duration=1e5, cpu=0.5))
        registry = builtin_registry()
        consolidator = Consolidator(cache_ttl=1.0)
        gathers = []

        def regather():
            gathers.append(kernel.now)
            ctx = MonitorContext(node=node, t=kernel.now)
            return registry.evaluate_all(ctx)

        # 8 clients polling at staggered offsets within each second.
        requests = 0
        for step in range(300):
            base = step * 1.0
            for client in range(8):
                consolidator.snapshot(base + client * 0.05, regather)
                requests += 1
        return requests, len(gathers), consolidator.cache_hits

    requests, gathers, hits = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    print_table(
        "E6b: request cache under 8 concurrent clients, 300 s",
        ["requests", "actual gathers", "cache hits", "hit rate"],
        [[requests, gathers, hits, f"{hits / requests * 100:.0f}%"]])
    assert gathers <= 301            # ~one gather per ttl window
    assert hits / requests > 0.85
