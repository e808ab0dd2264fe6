"""Alternating parent/change pairs of repo-benchmark workloads.

Runs ``benchmarks/perf/run.py --workload W --seed S --trace 0`` in the
committed tree of ``--parent REV`` and in this checkout, ``--pairs N``
times each, alternating which tree runs first in a pair, and prints one
row per end-to-end metric of ``BENCHMARK.json`` in EXPERIMENTS.md's
table format: each side's median (q1–q3), the change of the medians,
the pairs in which the change read better, the metric's bound, and
whether the gain rule holds — the change ahead in at least 9 of every
10 pairs, and its median moved the better way by more than the
parent's interquartile range.  Under them a ``minor faults`` row gives
each side's median (q1–q3) of the run process's minor page faults
(``ru_minflt`` of ``os.wait4``) and the change of the medians, with no
gain rule: a shift in the heap's layout shows there before it reaches
a latency.  ``--workload`` takes a comma-separated list, one table
each, so that one command checks every workload::

    python3 benchmarks/perf_pairs.py --parent HEAD~1 --workload steady_10k,gateway_lockstep --pairs 10 --seed 1610

The parent's tree is unpacked with ``git archive`` into a temporary
directory, removed when the pairs are done.  Each run's progress goes
to standard error; the tables go to standard output, each as soon as
its workload's pairs are done.
"""

from __future__ import annotations

import argparse
import json
import os
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


def faults_row(parent: List[float], change: List[float]) -> str:
    """The table's last row: each side's minor page faults a run,
    median (q1–q3), and the change of the medians; no bound, no rule."""
    p, c = quartiles(parent), quartiles(change)
    return (f"|  | minor faults | {_shown(p)} | {_shown(c)} | "
            f"{100 * (c[1] - p[1]) / (p[1] or 1.0):+.1f} % |  |  |")


def run_child(argv: List[str], cwd: Path) -> Tuple[int, str, str, int]:
    """Run ``argv`` in ``cwd`` to its end: its exit code, standard
    output and error, and minor page faults (the child's own rusage,
    from ``os.wait4``, which ``subprocess.run`` does not keep).  If the
    wait is interrupted the child is killed and reaped, as
    ``subprocess.run`` does, so no run outlives the driver."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err) as child:
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (child.returncode, out.read().decode(), err.read().decode(),
                usage.ru_minflt)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: its last line, the result (a run
    whose correctness check failed exits non-zero but still prints it),
    with the run's ``minor_faults``."""
    code, out, err, faults = run_child(
        [sys.executable, str(tree / RUN), "--workload", workload,
         "--seed", str(seed), "--trace", "0"], tree)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"perf_pairs.py: no result from {tree} (exit code "
                 f"{code}):\n" + err[-2000:])
    result["minor_faults"] = faults
    return result


def _unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                   check=True)


def pairs_of(trees: Dict[str, Path], workload: str, pairs: int,
             seed: int) -> Dict[str, List[dict]]:
    """``pairs`` runs of ``workload`` in each tree, alternating which
    tree runs first in a pair."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 \
            else ("change", "parent")
        for side in order:
            run = run_once(trees[side], workload, seed)
            runs[side].append(run)
            print(f"{workload} pair {index + 1}/{pairs} {side}: "
                  + " ".join(f"{name}={m['value']:.6g}" for name, m
                             in run["metrics"].items())
                  + f" minor_faults={run['minor_faults']}",
                  file=sys.stderr, flush=True)
    return runs


def table(spec: dict, workload: str, seed: int,
          runs: Dict[str, List[dict]]) -> List[str]:
    """One workload's table, its faults row and its failure lines."""
    lines = ["| workload (pairs) | metric | parent | change | "
             "Δ, pairs ahead | bound | gain rule |",
             "|---|---|---|---|---|---|---|"]
    label = f"`{workload}` ({len(runs['parent'])}, seed {seed})"
    for metric in spec["end_to_end"]:
        values = {side: [run["metrics"][metric["name"]]["value"]
                         for run in done] for side, done in runs.items()}
        lines.append(row(label, metric, summarise(
            values["parent"], values["change"], metric["better"])))
        label = ""
    faults = {side: [run["minor_faults"] for run in done]
              for side, done in runs.items()}
    lines.append(faults_row(faults["parent"], faults["change"]))
    for side, done in runs.items():
        lines.append(
            f"{side}: {sum(run['failed'] for run in done)} of "
            f"{sum(run['attempted'] for run in done)} operations failed, "
            f"{sum(not run['correct'] for run in done)} incorrect runs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the revision to measure this checkout against")
    parser.add_argument("--workload", required=True, metavar="NAME[,NAME]",
                        help="one workload, or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=10, metavar="N")
    parser.add_argument("--seed", type=int, default=1610)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [name for name in args.workload.split(",") if name]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        _unpack(args.parent, trees["parent"])
        for index, workload in enumerate(workloads):
            runs = pairs_of(trees, workload, args.pairs, args.seed)
            print(("\n" if index else "")
                  + "\n".join(table(spec, workload, args.seed, runs)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
