"""Alternating parent/change pairs of one repo-benchmark workload.

Runs ``benchmarks/perf/run.py --workload W --seed S --trace 0`` in the
committed tree of ``--parent REV`` and in this checkout, ``--pairs N``
times each, alternating which tree runs first in a pair, and prints one
row per end-to-end metric of ``BENCHMARK.json`` in EXPERIMENTS.md's
table format: each side's median (q1–q3), the change of the medians,
the pairs in which the change read better, the metric's bound, and
whether the gain rule holds — the change ahead in at least 9 of every
10 pairs, and its median moved the better way by more than the
parent's interquartile range::

    python3 benchmarks/perf_pairs.py --parent HEAD~1 --workload steady_10k --pairs 10 --seed 1610

The parent's tree is unpacked with ``git archive`` into a temporary
directory, removed when the pairs are done.  Each run's progress goes
to standard error; the table goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "perf" / "run.py"
#: the share of pairs the change must win for a claimed gain.
GAIN_SHARE = 0.9


class Pairs(NamedTuple):
    """One metric over the pairs: each side's (q1, median, q3), the
    change of the medians as a fraction of the parent's, the pairs the
    change read better in, and whether the gain rule holds."""

    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    delta: float
    ahead: int
    pairs: int
    gain: bool


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``benchmarks/perf/report.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(parent: List[float], change: List[float],
              better: str) -> Pairs:
    """The pairs ``zip(parent, change)`` of one metric whose ``better``
    is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    moved = c[1] - p[1]
    ahead = sum(sign * (y - x) < 0 for x, y in zip(parent, change))
    gain = ahead >= GAIN_SHARE * len(parent) and sign * moved < 0 \
        and abs(moved) > p[2] - p[0]
    return Pairs(p, c, moved / (abs(p[1]) or 1.0), ahead, len(parent), gain)


def _number(value: float) -> str:
    """Four significant digits; whole numbers in groups of three from a
    thousand on, as EXPERIMENTS.md writes them (21 610)."""
    if abs(value) >= 1000:
        return f"{value:,.0f}".replace(",", " ")
    return f"{value:.4g}"


def _shown(spread: Tuple[float, float, float]) -> str:
    q1, median, q3 = spread
    return f"{_number(median)} ({_number(q1)}–{_number(q3)})"


def row(label: str, metric: dict, pairs: Pairs) -> str:
    """One markdown table row: | label | metric | parent | change |
    Δ, pairs ahead | bound | gain rule |."""
    return (f"| {label} | `{metric['name']}` | {_shown(pairs.parent)} | "
            f"{_shown(pairs.change)} | {100 * pairs.delta:+.1f} %, "
            f"{pairs.ahead} of {pairs.pairs} | "
            f"{100 * metric['bound']:g} % | "
            f"{'holds' if pairs.gain else 'no'} |")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: its last line, the result (a run
    whose correctness check failed exits non-zero but still prints it)."""
    done = subprocess.run(
        [sys.executable, str(tree / RUN), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"perf_pairs.py: no result from {tree} (exit code "
                 f"{done.returncode}):\n" + done.stderr[-2000:])


def _unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                   check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the revision to measure this checkout against")
    parser.add_argument("--workload", required=True, metavar="NAME")
    parser.add_argument("--pairs", type=int, default=10, metavar="N")
    parser.add_argument("--seed", type=int, default=1610)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        _unpack(args.parent, trees["parent"])
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 \
                else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args.workload, args.seed)
                runs[side].append(run)
                print(f"pair {index + 1}/{args.pairs} {side}: "
                      + " ".join(f"{name}={m['value']:.6g}" for name, m
                                 in run["metrics"].items()),
                      file=sys.stderr, flush=True)
    print("| workload (pairs) | metric | parent | change | "
          "Δ, pairs ahead | bound | gain rule |")
    print("|---|---|---|---|---|---|---|")
    label = f"`{args.workload}` ({args.pairs}, seed {args.seed})"
    for metric in spec["end_to_end"]:
        values = {side: [run["metrics"][metric["name"]]["value"]
                         for run in done] for side, done in runs.items()}
        print(row(label, metric, summarise(values["parent"],
                                           values["change"],
                                           metric["better"])))
        label = ""
    for side, done in runs.items():
        print(f"{side}: {sum(run['failed'] for run in done)} of "
              f"{sum(run['attempted'] for run in done)} operations failed, "
              f"{sum(not run['correct'] for run in done)} incorrect runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
