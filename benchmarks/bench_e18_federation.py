"""E18 — sharded control plane: 10k nodes under 1/4/16 federation shards.

The question this experiment answers: what does the federation layer
cost, and what does it buy?  Each cell re-runs the E16 10k-node
configuration (agents at 5 s interval, sweep at 10 s, self-healing on,
one hot-CPU threshold rule) with the control plane split into N
partition shards behind the :class:`repro.federation.FederationServer`,
plus the flat server as the baseline row.

Two measurements per cell:

* **ingest throughput** — monitoring updates per wall-clock second
  through the federation's owner-map routing (one dict lookup per
  update).  Acceptance: the 16-shard cell is no slower than the E16
  flat baseline (BENCH_e16.json: 3363.4 updates/wall-s at 10k nodes).
* **summary cost** — microseconds per ``cluster_summary()`` call, hot
  (nothing changed since the last call: pure cache) and dirty (exactly
  one shard touched: one rollup refresh).  The point is O(shards),
  never O(N): the numbers must not move with cluster size, and the
  RollupCache refresh/reuse counters recorded alongside prove the
  summary never re-reads an unchanged shard.

Run modes::

    python benchmarks/bench_e18_federation.py --tiny     # 200 nodes, 4 shards
    python benchmarks/bench_e18_federation.py --cell 10000 600 --shards 16
    python benchmarks/bench_e18_federation.py --full     # flat + 1/4/16 shards

``--tiny`` is the ``make bench-smoke`` cell and the tier-1 guard
(tests/test_bench_smoke.py); ``--full`` regenerates BENCH_e18.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import ClusterWorX
from repro.core.statestore import Update

SEED = 1610
AGENT_INTERVAL = 5.0
SUMMARY_PROBES = 200


def _summary_cost(cwx, shards: int) -> dict:
    """Per-call summary cost, hot (cached) and dirty (one shard moved)."""
    server = cwx.server
    server.cluster_summary()  # absorb any pending refresh
    start = time.perf_counter()
    for _ in range(SUMMARY_PROBES):
        server.cluster_summary()
    hot_us = (time.perf_counter() - start) / SUMMARY_PROBES * 1e6
    victim = cwx.cluster.hostnames[0]
    t = cwx.kernel.now
    start = time.perf_counter()
    for i in range(SUMMARY_PROBES):
        server.ingest(Update(hostname=victim, time=t, source="agent",
                             values={"cpu_util_pct": float(i % 97)}))
        server.cluster_summary()
    dirty_us = (time.perf_counter() - start) / SUMMARY_PROBES * 1e6
    out = {"summary_hot_us": round(hot_us, 2),
           "summary_dirty_us": round(dirty_us, 2)}
    if shards:
        rollups = server.store.rollups
        out["rollup_refreshes"] = rollups.refreshes
        out["rollup_reuses"] = rollups.reuses
    return out


def run_cell(n_nodes: int, sim_seconds: float, *, shards: int = 0,
             seed: int = SEED) -> dict:
    """One benchmark cell; ``shards=0`` runs the flat baseline."""
    kwargs = {}
    if shards:
        kwargs.update(topology="federation", shards=shards)
    cwx = ClusterWorX(n_nodes=n_nodes, seed=seed, self_healing=True,
                      monitor_interval=AGENT_INTERVAL, **kwargs)
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=85.0, action="none")
    cwx.start()
    events_before = cwx.kernel.events_processed
    start = time.perf_counter()
    cwx.run(sim_seconds)
    wall = time.perf_counter() - start
    updates = cwx.server.updates_received
    kernel_events = cwx.kernel.events_processed - events_before
    row = {
        "n_nodes": n_nodes,
        "sim_seconds": sim_seconds,
        "topology": "federation" if shards else "flat",
        "shards": shards if shards else None,
        "seed": seed,
        "wall_s": round(wall, 3),
        "updates": updates,
        "updates_per_wall_s": round(updates / wall, 1),
        "kernel_events": kernel_events,
        "kernel_events_per_wall_s": round(kernel_events / wall, 1),
        "rules_fired": cwx.server.engine.fired.total,
        "wall_s_per_sim_hour": round(wall * 3600.0 / sim_seconds, 2),
    }
    row.update(_summary_cost(cwx, shards))
    if shards:
        row["unrouted_updates"] = cwx.server.unrouted_updates
        row["shard_nodes"] = [s.n_nodes for s in cwx.server.shards]
    return row


def print_row(row: dict) -> None:
    plane = f"{row['shards']:2d} shards" if row["shards"] else "flat     "
    print(f"  {plane} n={row['n_nodes']:6d} "
          f"sim={row['sim_seconds']:6.0f}s "
          f"wall={row['wall_s']:8.2f}s "
          f"updates/s={row['updates_per_wall_s']:10.1f} "
          f"summary hot={row['summary_hot_us']:7.2f}us "
          f"dirty={row['summary_dirty_us']:7.2f}us",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke cell: 200 nodes, 4 shards, 60 sim-s")
    parser.add_argument("--full", action="store_true",
                        help="the E18 sweep: 10k nodes x "
                             "flat/1/4/16 shards")
    parser.add_argument("--cell", nargs=2, type=float, metavar=("N", "S"),
                        help="one cell: N nodes for S sim-seconds")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for --cell (0 = flat)")
    parser.add_argument("--json", metavar="PATH",
                        help="append result rows to PATH as a JSON list")
    args = parser.parse_args(argv)

    rows = []
    if args.tiny:
        rows.append(run_cell(200, 60.0, shards=4))
    elif args.cell:
        rows.append(run_cell(int(args.cell[0]), args.cell[1],
                             shards=args.shards))
    elif args.full:
        for shards in (0, 1, 4, 16):
            rows.append(run_cell(10000, 600.0, shards=shards))
            print_row(rows[-1])
    else:
        parser.error("pick one of --tiny / --cell / --full")

    print("E18 sharded control plane "
          f"(agents {AGENT_INTERVAL:.0f}s, sweep 10s, self-healing on, "
          f"seed {SEED}):")
    for row in rows:
        print_row(row)

    if args.json:
        try:
            with open(args.json) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = []
        existing.extend(rows)
        with open(args.json, "w") as fh:
            json.dump(existing, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
