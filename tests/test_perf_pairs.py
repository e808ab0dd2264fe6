"""The summary arithmetic of ``benchmarks/perf_pairs.py`` on fixed
numbers: quartiles as the repo benchmark's report computes them, pairs
ahead in either direction, and the gain rule's two halves; and the
minor-fault count it keeps of each run."""

import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

#: ten parent runs of a lower-is-better metric: median 7.5, q1 6.875,
#: q3 8.125 (statistics.quantiles' exclusive method), IQR 1.25.
PARENT = [7.0, 8.0, 6.0, 9.0, 7.5, 6.5, 8.5, 7.5, 7.0, 8.0]


def test_quartiles_match_the_benchmark_report():
    assert perf_pairs.quartiles(PARENT) == (6.875, 7.5, 8.125)
    assert perf_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_in_every_pair_beyond_the_parents_spread_holds():
    change = [x - 2.0 for x in PARENT]
    pairs = perf_pairs.summarise(PARENT, change, "lower")
    assert pairs.ahead == 10 and pairs.pairs == 10
    assert pairs.change[1] == 5.5
    assert pairs.delta == pytest.approx(-2.0 / 7.5)
    assert pairs.gain


def test_nine_of_ten_pairs_is_enough_eight_is_not():
    nine = [x - 2.0 for x in PARENT[:9]] + [PARENT[9] + 1.0]
    assert perf_pairs.summarise(PARENT, nine, "lower").ahead == 9
    assert perf_pairs.summarise(PARENT, nine, "lower").gain
    eight = nine[:8] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    assert perf_pairs.summarise(PARENT, eight, "lower").ahead == 8
    assert not perf_pairs.summarise(PARENT, eight, "lower").gain


def test_a_move_inside_the_parents_spread_is_no_gain():
    """Every pair ahead, but the medians 1.0 apart against an IQR of
    1.25: the rule's second half fails."""
    change = [x - 1.0 for x in PARENT]
    pairs = perf_pairs.summarise(PARENT, change, "lower")
    assert pairs.ahead == 10 and not pairs.gain


def test_higher_is_better_counts_the_other_way():
    rates = [20_000.0 + 100 * i for i in range(10)]
    up = perf_pairs.summarise(rates, [r + 1_000 for r in rates], "higher")
    down = perf_pairs.summarise(rates, [r - 1_000 for r in rates], "higher")
    assert (up.ahead, up.gain) == (10, True)
    assert (down.ahead, down.gain) == (0, False)
    assert down.delta < 0 < up.delta


def test_a_row_in_the_experiments_table_format():
    metric = {"name": "req_p99_ms", "bound": 0.25}
    pairs = perf_pairs.summarise(PARENT, [x - 2.0 for x in PARENT], "lower")
    assert perf_pairs.row("`steady_10k` (10, seed 1610)", metric, pairs) \
        == ("| `steady_10k` (10, seed 1610) | `req_p99_ms` | "
            "7.5 (6.875–8.125) | 5.5 (4.875–6.125) | -26.7 %, 10 of 10 | "
            "25 % | holds |")
    rates = perf_pairs.summarise([20_000.0, 21_610.0, 23_000.0],
                                 [20_500.0] * 3, "higher")
    assert perf_pairs.row("", {"name": "updates_per_s", "bound": 0.2},
                          rates).startswith(
        "|  | `updates_per_s` | 21 610 (20 000–23 000) | "
        "20 500 (20 500–20 500) | -5.1 %, 1 of 3 |")


def test_the_minor_faults_row_has_no_bound_and_no_rule():
    parent = [17_000, 17_100, 16_900, 17_050]
    change = [28_200, 28_100, 28_300, 28_250]
    assert perf_pairs.faults_row(parent, change) == (
        "|  | minor faults | 17 025 (16 925–17 088) | "
        "28 225 (28 125–28 288) | +65.8 % |  |  |")


def test_a_child_run_reports_its_minor_faults(tmp_path):
    code, out, err, faults = perf_pairs.run_child(
        [sys.executable, "-c", "import sys; print('ok'); "
                               "print('note', file=sys.stderr); sys.exit(3)"],
        tmp_path)
    assert (code, out, err) == (3, "ok\n", "note\n")
    assert isinstance(faults, int) and faults > 0


def test_an_interrupted_wait_kills_the_child(tmp_path, monkeypatch):
    """A Ctrl-C during the wait kills and reaps the child at once: no
    run of the benchmark goes on in a tree that is about to be removed,
    and the driver does not wait for the child's minute to end."""
    pids = []
    start = time.monotonic()

    def interrupted(pid, options):
        pids.append(pid)
        raise KeyboardInterrupt

    monkeypatch.setattr(perf_pairs.os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        perf_pairs.run_child(
            [sys.executable, "-c", "import time; time.sleep(60)"], tmp_path)
    assert time.monotonic() - start < 30
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)
