"""E16 — hot-path scaling: 1k/4k/10k simulated nodes for one hour.

The question this experiment answers: after the hot-path overhaul
(slotted timer-wheel kernel, shared agent scheduler, metric-indexed
event engine, batched state-store writes), how far does the integrated
framework scale?  Configuration per the overhaul's acceptance bar:
agents at 5 s interval, connectivity sweep at 10 s, self-healing on,
one hot-CPU threshold rule active.

Recorded per cell: wall-clock seconds, kernel events/s, monitoring
updates/s, and the wall-clock cost of one simulated hour.  The
``"mode"`` column in the committed BENCH_e16.json is history: its
``"legacy"`` row timed the in-tree reconstruction of the pre-overhaul
machinery, which was removed in PR 13 (last runnable at c58187c).

Run modes::

    python benchmarks/bench_e16_scaling.py --tiny     # 200 nodes, 60 s
    python benchmarks/bench_e16_scaling.py --cell 4000 3600
    python benchmarks/bench_e16_scaling.py --full     # the E16 sweep

``--tiny`` is the ``make bench-smoke`` target and the tier-1 guard
(tests/test_bench_smoke.py); ``--full`` regenerates BENCH_e16.json's
rows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import ClusterWorX

SEED = 1610
AGENT_INTERVAL = 5.0


def run_cell(n_nodes: int, sim_seconds: float, *,
             seed: int = SEED) -> dict:
    """One benchmark cell; returns the measured row as a dict."""
    cwx = ClusterWorX(n_nodes=n_nodes, seed=seed, self_healing=True,
                      monitor_interval=AGENT_INTERVAL)
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=85.0, action="none")
    cwx.start()
    events_before = cwx.kernel.events_processed
    start = time.perf_counter()
    cwx.run(sim_seconds)
    wall = time.perf_counter() - start
    updates = cwx.server.updates_received
    kernel_events = cwx.kernel.events_processed - events_before
    return {
        "n_nodes": n_nodes,
        "sim_seconds": sim_seconds,
        "seed": seed,
        "wall_s": round(wall, 3),
        "updates": updates,
        "updates_per_wall_s": round(updates / wall, 1),
        "kernel_events": kernel_events,
        "kernel_events_per_wall_s": round(kernel_events / wall, 1),
        "rules_fired": cwx.server.engine.fired.total,
        "wall_s_per_sim_hour": round(wall * 3600.0 / sim_seconds, 2),
    }


def print_row(row: dict) -> None:
    print(f"  n={row['n_nodes']:6d} "
          f"sim={row['sim_seconds']:6.0f}s "
          f"wall={row['wall_s']:8.2f}s "
          f"updates/s={row['updates_per_wall_s']:10.1f} "
          f"events/s={row['kernel_events_per_wall_s']:10.1f} "
          f"sim-hour={row['wall_s_per_sim_hour']:8.2f}s",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke cell: 200 nodes, 60 sim-seconds")
    parser.add_argument("--full", action="store_true",
                        help="the E16 sweep: 1k/4k/10k x one sim-hour")
    parser.add_argument("--cell", nargs=2, type=float, metavar=("N", "S"),
                        help="one cell: N nodes for S sim-seconds")
    parser.add_argument("--json", metavar="PATH",
                        help="append result rows to PATH as a JSON list")
    args = parser.parse_args(argv)

    rows = []
    if args.tiny:
        rows.append(run_cell(200, 60.0))
    elif args.cell:
        rows.append(run_cell(int(args.cell[0]), args.cell[1]))
    elif args.full:
        for n in (1000, 4000, 10000):
            rows.append(run_cell(n, 3600.0))
            print_row(rows[-1])
    else:
        parser.error("pick one of --tiny / --cell / --full")

    print("E16 hot-path scaling "
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
