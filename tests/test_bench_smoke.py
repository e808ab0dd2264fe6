"""Tier-1 canaries for the E16 hot path, the E17 gateway, and the E18
sharded control plane (`make bench-smoke`).

Runs the tiny cells — 200 self-healing nodes for 60 simulated seconds
(E16), a 2-second real-socket serve with 20 watch streams (E17), and
the same 200-node cell under 4 federation shards (E18) — through the
real benchmark code and fails if a cell blows a wall-clock budget set
at ~5x the measured cost on the machine class this repo targets.  The point is not a precise number: it is that an accidental
O(N^2) (or a per-sample process spawn creeping back into the
agent/ingest path, or a per-request state copy creeping into the
gateway) shows up as a 10-100x blowup, far beyond any plausible
machine variance, while the budget stays comfortably above CI noise.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

from bench_e16_scaling import run_cell  # noqa: E402
from bench_e17_gateway import run_cell as run_gateway_cell  # noqa: E402
from bench_e18_federation import run_cell as run_fed_cell  # noqa: E402
from bench_e19_failover import run_gateway_cell as run_failover_cell  # noqa: E402,E501

#: ~5x the observed tiny-cell wall clock (sub-second at time of writing).
TINY_BUDGET_S = 10.0


def test_bench_smoke_within_budget():
    start = time.perf_counter()
    row = run_cell(200, 60.0)
    wall = time.perf_counter() - start
    # the cell actually did the work: every agent sampled at 5 s cadence
    assert row["updates"] >= 200 * 12
    assert row["rules_fired"] == 0  # quiet cluster, no faults injected
    assert wall < TINY_BUDGET_S, (
        f"tiny E16 cell took {wall:.1f}s (budget {TINY_BUDGET_S}s) — "
        f"hot-path regression?")


#: tiny E17 cell: ~2 s of serving plus cluster warm-up, observed ~6 s.
GATEWAY_BUDGET_S = 30.0


def test_gateway_bench_smoke_within_budget():
    start = time.perf_counter()
    row = run_gateway_cell(200, 2.0, watchers=20, pollers=8)
    wall = time.perf_counter() - start
    # the cell actually served: pollers got answers, watchers streamed,
    # and every request shared published views instead of copying state
    assert row["requests"] > 0
    assert row["watchers"] == 20
    assert row["watch_frames"] > 0
    assert row["full_copies"] == 0
    assert row["binary_ratio"] <= 0.6
    assert wall < GATEWAY_BUDGET_S, (
        f"tiny E17 cell took {wall:.1f}s (budget {GATEWAY_BUDGET_S}s) — "
        f"gateway serving regression?")


def test_federation_bench_smoke_within_budget():
    start = time.perf_counter()
    row = run_fed_cell(200, 60.0, shards=4)
    wall = time.perf_counter() - start
    # same work as the flat tiny cell, split over four shards
    assert row["updates"] >= 200 * 12
    assert row["shard_nodes"] == [50, 50, 50, 50]
    assert row["unrouted_updates"] == 0
    # the cached cross-shard summary stays in the microsecond range;
    # an O(N) rescan creeping in shows up as a 100x blowup here
    assert row["summary_hot_us"] < 1000.0
    assert row["summary_dirty_us"] < 1000.0
    assert wall < TINY_BUDGET_S, (
        f"tiny E18 cell took {wall:.1f}s (budget {TINY_BUDGET_S}s) — "
        f"federation routing regression?")


#: tiny E19 cell: boot + 240 sim-s served through the real gateway
#: while shard 1 dies and fails over, observed ~10 s.
FAILOVER_BUDGET_S = 60.0


def test_failover_bench_smoke_within_budget():
    start = time.perf_counter()
    row = run_failover_cell(200, shards=4, pollers=4)
    wall = time.perf_counter() - start
    # the bench's own acceptance already asserted zero 5xx, full
    # re-ownership and a resumed watch stream; pin the headline
    # self-healing numbers to the monitor's escalation thresholds
    assert row["server_errors"] == 0
    assert row["nodes_moved"] == 50
    assert row["time_to_detect_s"] <= 25.0 + 5.0  # down_after + probe
    assert row["time_to_redistribute_s"] <= 2 * 25.0
    assert row["watch_gap_s"] <= 90.0
    assert wall < FAILOVER_BUDGET_S, (
        f"tiny E19 cell took {wall:.1f}s (budget {FAILOVER_BUDGET_S}s) — "
        f"fail-over or degraded-serving regression?")
