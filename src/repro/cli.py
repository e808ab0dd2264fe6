"""Command-line interface: self-contained demo scenarios.

Because the cluster is simulated, each subcommand builds its scenario,
runs it to completion, and prints the operator-facing view:

    python -m repro.cli demo    --nodes 20 --seconds 300
    python -m repro.cli clone   --nodes 100 --image compute-harddisk
    python -m repro.cli drill   --nodes 10
    python -m repro.cli chaos   --nodes 40 --faults 12
    python -m repro.cli ladder
    python -m repro.cli slurm   --nodes 16 --jobs 12

(also installed as the ``clusterworx`` console script).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

__all__ = ["main"]


def _cmd_demo(args) -> int:
    from repro import ClusterWorX
    from repro.hardware import WorkloadGenerator

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=5.0)
    cwx.start()
    gen = WorkloadGenerator(cwx.streams("cli-demo"))
    for node in cwx.cluster.nodes:
        node.workload.extend(gen.hpc_job(cwx.kernel.now + 5.0))
    cwx.run(args.seconds)
    view = cwx.client().cluster_view()
    print(f"{'NODE':<18} {'STATE':<8} {'CPU%':>6} {'MEM%':>6} "
          f"{'TEMP':>6} {'LOAD':>6}")
    for host in cwx.cluster.hostnames:
        v = view.get(host, {})
        print(f"{host:<18} {v.get('node_state', '?'):<8} "
              f"{v.get('cpu_util_pct', 0):>6.1f} "
              f"{v.get('mem_util_pct', 0):>6.1f} "
              f"{v.get('cpu_temp_c', 0):>6.1f} "
              f"{v.get('load_1min', 0):>6.2f}")
    print(f"\n{len(cwx.cluster.nodes)} nodes | "
          f"{cwx.server.updates_received} updates received | "
          f"monitoring traffic "
          f"{cwx.cluster.fabric.total_bytes('monitoring'):.0f} B")
    summary = cwx.client().cluster_summary()
    print(f"summary: {summary['nodes_up']}/{summary['nodes_total']} up | "
          f"cpu {summary['cpu_util_mean_pct']:.1f}% | "
          f"hottest {summary['cpu_temp_max_c']:.1f} C | "
          f"events {summary['events_active']} | "
          f"gen {summary['generation']} (O(1) rollup read)")
    return 0


def _cmd_watch(args) -> int:
    """Tier-3 push path: subscribe to the state store instead of polling."""
    from repro import ClusterWorX

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=5.0)
    cwx.start()
    session = cwx.client()
    metrics = args.metrics.split(",") if args.metrics else None
    seen = []

    def printer(update):
        seen.append(update)
        if len(seen) <= args.limit:
            values = " ".join(f"{k}={v}" for k, v in
                              sorted(update.values.items()))
            print(f"t={update.time:8.1f} {update.hostname:<16} "
                  f"[{update.source}#{update.seq}] {values}")

    session.watch(printer, metrics=metrics)
    cwx.run(args.seconds)
    store = cwx.server.store
    print(f"\n{len(seen)} deltas pushed "
          f"({args.limit} shown) | generation {store.generation} | "
          f"{store.notifications} notifications to "
          f"{len(store.subscriptions)} subscribers")
    return 0


def _cmd_clone(args) -> int:
    from repro import ClusterWorX
    from repro.util import fmt_duration

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=60.0)
    cwx.start()
    wall0 = time.perf_counter()
    report = cwx.clone(args.image)
    wall = time.perf_counter() - wall0
    print(f"image   : {report.image.name} gen {report.image.generation} "
          f"({report.image.size / 2**30:.2f} GiB)")
    print(f"cloned  : {len(report.cloned)}/{report.targets} nodes")
    print(f"skipped : {len(report.skipped)} | failed : "
          f"{len(report.failed)}")
    print(f"time    : {fmt_duration(report.total_seconds)} simulated "
          f"(stream {report.stream_seconds:.0f} s, repair "
          f"{report.repair_seconds:.0f} s) in {wall:.2f} s wall")
    print(f"repairs : {report.repair_bytes / 1e6:.1f} MB over "
          f"{len(report.repaired_blocks)} nodes")
    audit = cwx.server.images.audit(cwx.cluster.nodes)
    print(f"audit   : consistent={audit.is_consistent}")
    return 0 if audit.is_consistent else 1


def _cmd_drill(args) -> int:
    from repro import ClusterWorX
    from repro.hardware import WorkloadSegment

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=5.0)
    cwx.start()
    cwx.add_threshold("overheat", metric="cpu_temp_c", op=">",
                      threshold=60.0, action="power_down",
                      severity="critical")
    for node in cwx.cluster.nodes:
        node.workload.add(WorkloadSegment(start=cwx.kernel.now,
                                          duration=1e5, cpu=0.9))
    cwx.run(30)
    victim = cwx.cluster.hostnames[1]
    cwx.inject_fault(victim, "fan_failure")
    cwx.run(2000)
    for event in cwx.fired_events():
        print(f"t={event.time:7.1f}s  {event.rule:12s} {event.node} "
              f"-> {event.action} (ok={event.action_ok})")
    for mail in cwx.emails():
        print(f"email: {mail.body}")
    state = cwx.cluster.node(victim).state.value
    print(f"{victim}: {state}")
    return 0 if state == "off" else 1


def _cmd_ladder(args) -> int:
    from repro.monitoring.gathering import make_gatherer
    from repro.procfs import ProcFilesystem
    from repro.hardware import SimulatedNode, WorkloadSegment
    from repro.sim import SimKernel

    kernel = SimKernel()
    node = SimulatedNode(kernel, "bench", node_id=1)
    node.power_on()
    node.workload.add(WorkloadSegment(start=0, duration=1e9, cpu=0.7,
                                      memory=512 << 20))
    kernel.run(until=100)
    fs = ProcFilesystem(node)
    print(f"{'strategy':<12} {'samples/s':>10} {'us/call':>9}")
    for strategy in ("naive", "buffered", "apriori", "persistent"):
        gatherer = make_gatherer(strategy, fs)
        try:
            for _ in range(3):
                gatherer.sample()
            count, start = 0, time.perf_counter()
            while time.perf_counter() - start < 0.3:
                gatherer.sample()
                count += 1
            rate = count / (time.perf_counter() - start)
        finally:
            gatherer.close()
        print(f"{strategy:<12} {rate:>10.0f} {1e6 / rate:>9.1f}")
    return 0


def _cmd_graph(args) -> int:
    from repro import ClusterWorX
    from repro.core.graphing import chart, node_comparison, sparkline
    from repro.hardware import WorkloadGenerator

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=5.0)
    cwx.start()
    gen = WorkloadGenerator(cwx.streams("cli-graph"))
    for node in cwx.cluster.nodes:
        node.workload.extend(gen.hpc_job(cwx.kernel.now + 2.0))
    cwx.run(args.seconds)
    host = cwx.cluster.hostnames[0]
    print(chart(cwx.server.history, host, args.metric, buckets=50,
                height=6))
    print()
    _, mean, _, _ = cwx.server.history.graph(host, args.metric,
                                             buckets=50)
    print(f"sparkline: {sparkline(mean)}")
    print()
    print(node_comparison(cwx.server.history,
                          cwx.cluster.hostnames[:8], args.metric))
    return 0


def _cmd_slurm(args) -> int:
    from repro import ClusterWorX
    from repro.slurm import (BackfillScheduler, Job, SlurmController,
                             sinfo, squeue)

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=30.0)
    cwx.start()
    ctl = SlurmController(cwx.kernel, scheduler=BackfillScheduler())
    for node in cwx.cluster.nodes:
        ctl.register_node(node)
    rng = cwx.streams("cli-jobs")
    for i in range(args.jobs):
        ctl.submit(Job(name=f"job{i}", user="cli",
                       n_nodes=int(rng.integers(1, args.nodes // 2 + 1)),
                       duration=float(rng.uniform(50, 300)),
                       time_limit=600.0))
    cwx.run(120)
    print(squeue(ctl))
    print()
    print(sinfo(ctl))
    # Run until the queue drains (bounded: agents tick forever).
    while (ctl.queue or ctl.running) and cwx.kernel.now < 7200:
        cwx.run(60)
    stats = ctl.stats()
    print(f"\ncompleted {stats['jobs_completed']:.0f} jobs, "
          f"mean wait {stats['mean_wait']:.0f} s")
    # sacct-style accounting with monitoring-derived efficiency.
    from repro.slurm import efficiency_report
    report = efficiency_report(ctl, cwx.server.history)
    print(f"weighted CPU efficiency: "
          f"{report['weighted_cpu_efficiency'] * 100:.0f}%")
    return 0


def _cmd_nodeset(args) -> int:
    from repro.remote import NodeSet, NodeSetParseError

    try:
        result = NodeSet(",".join(args.patterns))
        for pattern in args.exclude:
            result = result - NodeSet(pattern)
        for pattern in args.intersection:
            result = result & NodeSet(pattern)
        for pattern in args.xor:
            result = result ^ NodeSet(pattern)
    except NodeSetParseError as exc:
        print(f"nodeset: {exc}", file=sys.stderr)
        return 2
    if args.split:
        for chunk in result.split(args.split):
            print(" ".join(chunk) if args.expand else chunk.fold())
        return 0
    if args.count:
        print(len(result))
    elif args.expand:
        print(" ".join(result))
    else:
        print(result.fold())
    return 0


def _cmd_lint(args) -> int:
    """worxlint: run the architectural-invariant passes over src/."""
    import json
    import pathlib

    from repro.tooling import default_config, run_lint

    root = pathlib.Path(args.root).resolve() if args.root else None
    result = run_lint(default_config(
        root=root, rules=set(args.rules) if args.rules else None))
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_chaos(args) -> int:
    """Run a fault campaign against a self-healing cluster."""
    from repro import ClusterWorX
    from repro.faults import ChaosCampaign
    from repro.hardware.faults import FaultKind

    kinds = tuple(args.kinds.split(",")) if args.kinds else FaultKind.ALL
    unknown = set(kinds) - set(FaultKind.ALL)
    if unknown:
        print(f"chaos: unknown fault kind(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    if args.shard_kills and args.shard_kills >= args.shards:
        print("chaos: --shard-kills must be below --shards (a kill must "
              "leave a survivor)", file=sys.stderr)
        return 2
    topo = {} if args.shards <= 1 else \
        {"topology": "federation", "shards": args.shards}
    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=args.interval, self_healing=True,
                      **topo)
    campaign = ChaosCampaign(cwx, n_faults=args.faults, kinds=kinds,
                             horizon=args.horizon, settle=args.settle,
                             shard_faults=args.shard_kills)
    wall0 = time.perf_counter()
    report = campaign.execute()
    wall = time.perf_counter() - wall0
    print(report.render())
    print(f"simulated {cwx.kernel.now:.0f} s in {wall:.2f} s wall")
    return 0 if report.ok else 1


def _cmd_exec(args) -> int:
    from repro import ClusterWorX
    from repro.remote import NodeSetParseError

    cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                      monitor_interval=60.0)
    cwx.start()
    words = args.command
    if words and words[0] == "--":
        words = words[1:]
    command = " ".join(words) or "uname -r"
    try:
        targets = cwx.nodeset(args.targets)
    except NodeSetParseError as exc:
        print(f"exec: {exc}", file=sys.stderr)
        return 2
    task = cwx.remote.run_sync(command, targets, fanout=args.fanout,
                               timeout=args.timeout, retries=args.retries,
                               failure_policy=args.policy)
    print(task.report())
    counts = " ".join(f"{status}={n}"
                      for status, n in sorted(task.counts().items()))
    print(f"\n{len(task.nodes)} nodes | fanout {task.fanout} | "
          f"makespan {task.makespan:.1f} s simulated | "
          f"{task.total_attempts} attempts | {counts}")
    return 0 if task.ok else 1


def _cmd_serve(args) -> int:
    """Run the asyncio gateway over a live simulated cluster."""
    import asyncio
    import gc

    from repro import ClusterWorX
    from repro.gateway import GatewayService, WatchPolicy

    async def run() -> int:
        topo = {} if args.shards <= 1 else \
            {"topology": "federation", "shards": args.shards}
        cwx = ClusterWorX(n_nodes=args.nodes, seed=args.seed,
                          monitor_interval=args.interval, **topo)
        cwx.start()
        cwx.run(60.0)  # warm the store so first requests see real data
        service = GatewayService(
            cwx.server, cluster=cwx.cluster,
            host=args.host, port=args.port,
            policy=WatchPolicy(queue_limit=args.queue_limit))
        await service.start()
        # The built cluster is ~145 collector-tracked objects per node
        # that live as long as the process: move them out of the
        # collector's sight, so the full collection an all-hosts request
        # can trigger walks only what was allocated since.
        gc.collect()
        gc.freeze()
        service.driver.start()
        plane = "flat control plane" if args.shards <= 1 else \
            f"{args.shards} control-plane shards"
        print(f"gateway: {args.nodes} simulated nodes, {plane}, on "
              f"{service.url}  (endpoints: /v1/summary /v1/hosts "
              f"/v1/query /v1/events /v1/history /v1/watch "
              f"/v1/shards /stats)")
        try:
            if args.seconds:
                await asyncio.sleep(args.seconds)
            else:
                while True:  # serve until interrupted
                    await asyncio.sleep(3600.0)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            service.driver.stop()
            await service.stop()
        stats = service.stats_values()
        print(f"served {stats['requests']} requests "
              f"({stats['qps']:.1f}/s, p99 {stats['latency_p99_ms']:.2f} ms, "
              f"{stats['bytes_out']} B out) | "
              f"watch frames {stats['watch_frames']} | "
              f"views published {stats['publishes']} "
              f"reused {stats['publish_reuses']} | "
              f"full copies {cwx.server.store.full_copies}")
        if args.shards > 1:
            for row in cwx.server.shard_stats():
                print(f"  {row['name']}: {row['health']} "
                      f"heartbeat-age {row['heartbeat_age']:.1f}s "
                      f"nodes {row['nodes']} "
                      f"updates {row['updates_received']} "
                      f"generation {row['generation']}")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterworx",
        description="ClusterWorX reproduction: simulated-cluster demos")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="boot + monitor a cluster")
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--seconds", type=float, default=300.0)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("clone", help="multicast-clone an image")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--image", default="compute-harddisk")
    p.set_defaults(fn=_cmd_clone)

    p = sub.add_parser("watch",
                       help="stream pushed monitoring deltas (no polling)")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--metrics", default=None,
                   help="comma-separated metric filter "
                        "(e.g. cpu_temp_c,udp_echo)")
    p.add_argument("--limit", type=int, default=20,
                   help="max deltas to print (all are counted)")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser("drill", help="fan-failure event drill")
    p.add_argument("--nodes", type=int, default=10)
    p.set_defaults(fn=_cmd_drill)

    p = sub.add_parser("ladder", help="gathering optimization ladder")
    p.set_defaults(fn=_cmd_ladder)

    p = sub.add_parser("graph", help="render a metric's history")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--seconds", type=float, default=600.0)
    p.add_argument("--metric", default="cpu_util_pct")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("slurm", help="run a job mix under SLURM-lite")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--jobs", type=int, default=12)
    p.set_defaults(fn=_cmd_slurm)

    p = sub.add_parser("nodeset",
                       help="fold/expand/compute nodeset expressions")
    p.add_argument("patterns", nargs="+",
                   help="nodeset patterns, e.g. node[001-400,412]")
    p.add_argument("-f", "--fold", action="store_true",
                   help="print the folded form (the default)")
    p.add_argument("-e", "--expand", action="store_true",
                   help="print expanded names instead of folding")
    p.add_argument("-c", "--count", action="store_true",
                   help="print the number of nodes")
    p.add_argument("-x", "--exclude", action="append", default=[],
                   metavar="PAT", help="exclude PAT from the result")
    p.add_argument("-i", "--intersection", action="append", default=[],
                   metavar="PAT", help="intersect the result with PAT")
    p.add_argument("-X", "--xor", action="append", default=[],
                   metavar="PAT", help="symmetric difference with PAT")
    p.add_argument("--split", type=int, metavar="N",
                   help="partition into N near-equal chunks")
    p.set_defaults(fn=_cmd_nodeset)

    p = sub.add_parser(
        "lint",
        help="check the source tree against the WORX invariants")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings on stdout")
    p.add_argument("--root", default=None,
                   help="tree to lint (default: the installed src/)")
    p.add_argument("--rules", nargs="+", metavar="WORXNNN", default=None,
                   help="run only these rule ids")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("chaos",
                       help="inject a fault campaign, score self-healing")
    p.add_argument("--nodes", type=int, default=40,
                   help="cluster size to simulate")
    p.add_argument("--faults", type=int, default=12,
                   help="faults to inject (distinct victims)")
    p.add_argument("--kinds", default=None, metavar="K1,K2",
                   help="comma-separated fault kinds "
                        "(default: every kind)")
    p.add_argument("--horizon", type=float, default=900.0,
                   help="injection window (simulated seconds)")
    p.add_argument("--settle", type=float, default=2700.0,
                   help="post-injection settle time for playbooks")
    p.add_argument("--interval", type=float, default=15.0,
                   help="agent monitoring interval")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the control plane into N federation "
                        "shards (1 = flat)")
    p.add_argument("--shard-kills", type=int, default=0,
                   help="also kill N control-plane shards mid-campaign "
                        "(scored as rows of the same report; must be "
                        "below --shards)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("serve",
                       help="serve cluster state over HTTP (gateway)")
    p.add_argument("--nodes", type=int, default=100,
                   help="cluster size to simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8137,
                   help="listen port (0 picks a free one)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="wall-clock serve time (0 = until Ctrl-C)")
    p.add_argument("--interval", type=float, default=5.0,
                   help="agent monitoring interval (simulated seconds)")
    p.add_argument("--queue-limit", type=int, default=128,
                   help="verbatim deltas buffered per watch client "
                        "before coalescing")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the control plane into N federated "
                        "shards (1 = classic flat server)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("exec",
                       help="fan a command out over a simulated cluster")
    p.add_argument("--nodes", type=int, default=40,
                   help="cluster size to simulate")
    p.add_argument("--targets", default="@all",
                   help="target nodeset (supports @all, @rack<i>, @up)")
    p.add_argument("--fanout", type=int, default=None,
                   help="fan-out window (default: engine's 64)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-node command timeout (simulated seconds)")
    p.add_argument("--retries", type=int, default=0)
    p.add_argument("--policy", choices=("continue", "abort"),
                   default="continue", help="on permanent node failure")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="command to run (default: uname -r)")
    p.set_defaults(fn=_cmd_exec)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
