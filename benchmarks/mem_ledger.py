"""The memory ledger: what one managed node costs the server process.

Builds the repo benchmark's ``steady_*`` shape through the public facade
(``ClusterWorX(n_nodes=N, self_healing=True, monitor_interval=5)``, one
never-firing ``cpu_temp_c > 85`` rule, ``start()``, 6.5 agent intervals
of warm-up) and prints, per node:

* RSS (``ru_maxrss`` growth across the build, tracing off);
* tracemalloc KB and allocated blocks by ``src/repro`` module, with the
  two groups memory issues cite — history + ring, event engine;
* GC-tracked objects, and which types they are: the per-type growth
  between an N/4- and an N/2-node build, so everything that does not
  scale with the cluster cancels (the census that found a wrapper beside
  every ring buffer and a finished boot process kept per node);
* the collector on the per-update path, over ``--ticks K`` further agent
  ticks with it on, alternating (in sweep periods of two ticks) with K
  ticks with it off: collections per generation with their total and
  longest pause (``gc.callbacks``), kernel events per update, µs per
  update on and off, Python calls and bytecodes per agent update over
  one further tick traced with it off (``sys.settrace``; the calls are
  what ``tests/test_footprint.py`` pins at 50 nodes), and the cost of
  one full collection — as built,
  and again K ticks after ``gc.freeze()`` (what ``repro-cli serve``
  does once the cluster is up); and the serving side's one O(N)
  request, an all-hosts JSON ``/v1/query`` (handler + encode), once of
  the benchmark's three metrics and once without ``metrics=`` (every
  value of every host): collections per query by generation over first
  queries (a wire that kept no earlier body) and queries on the next
  view after one agent tick (a wire that wrote the last view's body),
  body bytes, and the bytes the wire and the shell keep between
  queries (the shell keeps the response it formatted for the wire's
  body).

Each probe runs in its own child process: tracemalloc roughly doubles
RSS, so the probes cannot share one.  Run modes::

    python benchmarks/mem_ledger.py --nodes 2000           # make mem-ledger N=2000
    python benchmarks/mem_ledger.py --nodes 1000 --src /path/to/other/checkout/src

``--src`` measures another checkout with this script — the "before" row
of a memory claim.  Same seed and N give the same tracemalloc and object
counts run to run; RSS moves by about 1 %.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from typing import Dict, List

SEED = 1610
AGENT_INTERVAL = 5.0
WARM_INTERVALS = 6.5
#: agent ticks per connectivity sweep (the server's 10 s default).
ROUND_TICKS = 2
RULE = dict(metric="cpu_temp_c", op=">", threshold=85.0, action="none")
GROUPS = {
    "history + ring": ("monitoring/history.py", "util/ringbuffer.py"),
    "event engine": ("events/engine.py",),
}
TOP_MODULES = 12
TOP_TYPES = 15
#: the repo benchmark's all-hosts request, the same without a
#: projection, and how many of each to answer.
QUERY = "/v1/query?metrics=cpu_util_pct,cpu_temp_c,mem_used_bytes"
QUERY_UNPROJECTED = "/v1/query"
QUERIES = 5


def _build(n_nodes: int):
    from repro import ClusterWorX
    cwx = ClusterWorX(n_nodes=n_nodes, seed=SEED, self_healing=True,
                      monitor_interval=AGENT_INTERVAL)
    cwx.add_threshold("hot-cpu", **RULE)
    cwx.start()
    cwx.run(WARM_INTERVALS * AGENT_INTERVAL)
    return cwx


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed_collect_ms() -> float:
    start = time.perf_counter()
    gc.collect()
    return (time.perf_counter() - start) * 1e3


def probe_rss(n_nodes: int) -> Dict[str, object]:
    """RSS and GC-tracked objects per node, tracing off."""
    import repro  # noqa: F401  (import cost is not per-node cost)
    gc.collect()
    rss_before, objects_before = _maxrss_kb(), len(gc.get_objects())
    cwx = _build(n_nodes)
    rss_after = _maxrss_kb()
    gc.collect()
    objects_after = len(gc.get_objects())
    return {"sim_now": cwx.kernel.now,
            "rss_kb_per_node": (rss_after - rss_before) / n_nodes,
            "gc_objects_per_node":
                (objects_after - objects_before) / n_nodes}


def probe_tracemalloc(n_nodes: int, src: str) -> Dict[str, object]:
    """Live traced bytes and blocks per node, by ``src/repro`` module."""
    import repro  # noqa: F401
    tracemalloc.start()
    cwx = _build(n_nodes)
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    prefix = os.path.join(os.path.realpath(src), "repro") + os.sep
    modules: Dict[str, List[float]] = {}
    elsewhere = [0.0, 0.0]
    for stat in snapshot.statistics("filename"):
        filename = os.path.realpath(stat.traceback[0].filename)
        row = modules.setdefault(filename[len(prefix):], [0.0, 0.0]) \
            if filename.startswith(prefix) else elsewhere
        row[0] += stat.size / 1024 / n_nodes
        row[1] += stat.count / n_nodes
    modules["(outside src/repro)"] = elsewhere
    return {"sim_now": cwx.kernel.now, "modules": modules}


def probe_census(n_nodes: int) -> Dict[str, object]:
    """Collector-tracked objects one more node adds, by type."""
    def tracked() -> collections.Counter:
        gc.collect()
        return collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.get_objects())

    _build(8)       # what only the first build in a process allocates
    sizes = (n_nodes // 4, n_nodes // 2)
    counts, clusters = [tracked()], []
    for size in sizes:
        clusters.append(_build(size))
        counts.append(tracked())
    small, large = counts[1] - counts[0], counts[2] - counts[1]
    return {"sizes": sizes,
            "per_node": {name: (large[name] - small[name])
                         / (sizes[1] - sizes[0])
                         for name in large | small}}


def _query_all(cwx, query: str) -> Dict[str, object]:
    """An all-hosts JSON ``query`` as the gateway answers it (handler +
    encode): collections per query over ``QUERIES`` first queries, by
    wires that kept no earlier body, and as many on the next view after
    one agent tick, by wires that wrote the last view's body; and the
    bytes kept between two queries (traced): the wire's and the
    response ``GatewayService`` keeps formatted beside its body.  No
    timing: one process per tree is too noisy to compare two trees by
    (``make perf-pairs`` alternates runs)."""
    from repro.gateway import (GatewayState, JsonWire, build_router,
                               parse_request)
    from repro.gateway.httpd import format_response
    state = GatewayState(cwx.server)
    router = build_router(state, dict)
    request = parse_request(f"GET {query} HTTP/1.1\r\n\r\n".encode())
    route, params = router.resolve(request.path)
    collections = [0, 0, 0]

    def on_gc(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    def answer(wire) -> bytes:
        gc.callbacks.append(on_gc)
        body = wire.encode(route.handler(request, params)[1])
        gc.callbacks.remove(on_gc)
        return body

    for _ in range(QUERIES):
        answer(JsonWire())
    for _ in range(QUERIES):
        wire = JsonWire()
        answer(wire)
        cwx.run(AGENT_INTERVAL)
        with state.lock:
            state.refresh()
        answer(wire)
    tracemalloc.start()
    wire = JsonWire()
    before = tracemalloc.get_traced_memory()[0]
    body = answer(wire)
    response = format_response(200, wire.content_type, body,
                               keep_alive=True)
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del response
    return {"kept_bytes": kept, "bytes": len(body),
            "collections_per_query": [c / (3 * QUERIES + 1)
                                      for c in collections]}


def _traced_tick(cwx) -> Dict[str, float]:
    """Python calls (function entries and generator resumes) and
    bytecodes per agent update over one agent tick, collector off."""
    agents = list(cwx.agents.values())
    before = sum(agent.samples_taken for agent in agents)
    calls = bytecodes = 0

    def tracer(frame, event, arg):
        nonlocal calls, bytecodes
        if event == "call":
            calls += 1
            frame.f_trace_opcodes = True
        elif event == "opcode":
            bytecodes += 1
        return tracer

    gc.disable()
    sys.settrace(tracer)
    try:
        cwx.run(AGENT_INTERVAL)
    finally:
        sys.settrace(None)
        gc.enable()
    updates = sum(agent.samples_taken for agent in agents) - before
    return {"calls_per_update": calls / updates,
            "bytecodes_per_update": bytecodes / updates}


def probe_collector(n_nodes: int, ticks: int) -> Dict[str, object]:
    """The cyclic collector and the kernel on the per-update path, and
    on the all-hosts query."""
    cwx = _build(n_nodes)
    collections, pauses, started = [0, 0, 0], [], [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            collections[info["generation"]] += 1
            pauses.append(time.perf_counter() - started[0])

    def run_round(tally):
        """One sweep period; adds [wall s, updates, kernel events]."""
        updates = cwx.server.store.updates_applied
        events = cwx.kernel.events_processed
        start = time.perf_counter()
        cwx.run(ROUND_TICKS * AGENT_INTERVAL)
        tally[0] += time.perf_counter() - start
        tally[1] += cwx.server.store.updates_applied - updates
        tally[2] += cwx.kernel.events_processed - events

    # On and off alternate round by round, so neither side gets the
    # earlier (rings still growing) or the later half of the window,
    # and each round holds exactly one connectivity sweep.
    rounds = -(-ticks // ROUND_TICKS)
    ticks = rounds * ROUND_TICKS
    on, off = [0.0, 0, 0], [0.0, 0, 0]
    gc.collect()
    for _ in range(rounds):
        gc.callbacks.append(on_gc)
        run_round(on)
        gc.callbacks.remove(on_gc)
        gc.disable()
        run_round(off)
        gc.enable()
    traced = _traced_tick(cwx)
    query = _query_all(cwx, QUERY)
    unprojected = _query_all(cwx, QUERY_UNPROJECTED)
    gc.collect()
    full_ms = _timed_collect_ms()
    gc.freeze()
    for _ in range(rounds):
        run_round([0.0, 0, 0])
    frozen_ms = _timed_collect_ms()
    return {"ticks": ticks,
            "collections_per_tick": [c / ticks for c in collections],
            "pause_total_ms": sum(pauses) * 1e3,
            "pause_max_ms": max(pauses, default=0.0) * 1e3,
            "kernel_events_per_update": on[2] / on[1],
            "us_per_update_gc_on": on[0] / on[1] * 1e6,
            "us_per_update_gc_off": off[0] / off[1] * 1e6,
            **traced,
            "full_collect_ms": full_ms,
            "full_collect_frozen_ms": frozen_ms,
            "query_all": query,
            "query_all_unprojected": unprojected}


def _child(probe: str, n_nodes: int, src: str,
           ticks: int) -> Dict[str, object]:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", probe,
         "--nodes", str(n_nodes), "--src", src, "--ticks", str(ticks)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def ledger(n_nodes: int, src: str, ticks: int) -> Dict[str, object]:
    rss = _child("rss", n_nodes, src, ticks)
    traced = _child("tracemalloc", n_nodes, src, ticks)
    modules = traced["modules"]
    groups = {
        name: [sum(modules.get(m, (0.0, 0.0))[i] for m in members)
               for i in (0, 1)]
        for name, members in GROUPS.items()}
    return {"nodes": n_nodes, "seed": SEED, "src": src, **rss,
            "traced_kb_per_node": sum(kb for kb, _ in modules.values()),
            "groups": groups, "modules": modules,
            "census": _child("census", n_nodes, src, ticks),
            "collector": _child("collector", n_nodes, src, ticks)}


def print_ledger(result: Dict[str, object]) -> None:
    print(f"memory ledger: {result['nodes']} nodes, seed {result['seed']},"
          f" sim t={result['sim_now']:.1f} s, src={result['src']}")
    print(f"  RSS per node               {result['rss_kb_per_node']:8.1f} KB")
    print(f"  traced per node            "
          f"{result['traced_kb_per_node']:8.1f} KB")
    print(f"  GC-tracked objects / node  "
          f"{result['gc_objects_per_node']:8.1f}")
    print(f"  {'group / module':34s} {'KB/node':>8s} {'blocks/node':>12s}")
    for name, (kb, blocks) in result["groups"].items():
        print(f"  {name:34s} {kb:8.2f} {blocks:12.1f}")
    ranked = sorted(result["modules"].items(), key=lambda kv: -kv[1][0])
    for name, (kb, blocks) in ranked[:TOP_MODULES]:
        print(f"    {name:32s} {kb:8.2f} {blocks:12.1f}")
    census = result["census"]
    print("  collector-tracked objects per node by type "
          "(growth from {} to {} nodes):".format(*census["sizes"]))
    by_count = sorted(census["per_node"].items(), key=lambda kv: -kv[1])
    for name, count in by_count[:TOP_TYPES]:
        print(f"    {name:44s} {count:8.1f}")
    print(f"    {'(every type)':44s} "
          f"{sum(census['per_node'].values()):8.1f}")
    gcs = result["collector"]
    per_tick = " / ".join(f"{c:.3g}" for c in gcs["collections_per_tick"])
    print(f"  collector, over {gcs['ticks']} further agent ticks on, "
          f"alternating with {gcs['ticks']} off:")
    print(f"    collections per tick, gen 0 / 1 / 2   {per_tick}")
    print(f"    pauses, total and longest         "
          f"{gcs['pause_total_ms']:8.1f} {gcs['pause_max_ms']:8.1f} ms")
    print(f"    kernel events per update          "
          f"{gcs['kernel_events_per_update']:8.4f}")
    print(f"    per update, collector on and off  "
          f"{gcs['us_per_update_gc_on']:8.1f} "
          f"{gcs['us_per_update_gc_off']:8.1f} us")
    print(f"    per update, Python calls, bytecodes "
          f"{gcs['calls_per_update']:8.1f} "
          f"{gcs['bytecodes_per_update']:8.1f}")
    print(f"    one full collection; after freeze "
          f"{gcs['full_collect_ms']:8.1f} "
          f"{gcs['full_collect_frozen_ms']:8.1f} ms")
    for label, key in (("all-hosts /v1/query, JSON", "query_all"),
                       ("  and without metrics=", "query_all_unprojected")):
        query = gcs[key]
        per_query = " / ".join(f"{c:.3g}"
                               for c in query["collections_per_query"])
        print(f"    {label:33s} collections {per_query}, "
              f"{query['bytes']} bytes")
        print(f"      {'kept by wire and shell between queries':38s} "
              f"{query['kept_bytes']:8d} bytes")


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--src", default=os.path.join(here, "..", "src"),
                        help="the src/ directory to measure "
                             "(default: this checkout's)")
    parser.add_argument("--ticks", type=int, default=4,
                        help="agent ticks the collector section runs "
                             "with the collector on (and as many off)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the ledger to PATH")
    parser.add_argument("--probe",
                        choices=("rss", "tracemalloc", "census",
                                 "collector"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.realpath(args.src)
    if args.probe == "rss":
        print(json.dumps(probe_rss(args.nodes)))
        return 0
    if args.probe == "tracemalloc":
        print(json.dumps(probe_tracemalloc(args.nodes, src)))
        return 0
    if args.probe == "census":
        print(json.dumps(probe_census(args.nodes)))
        return 0
    if args.probe == "collector":
        print(json.dumps(probe_collector(args.nodes, args.ticks)))
        return 0
    result = ledger(args.nodes, src, args.ticks)
    print_ledger(result)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
