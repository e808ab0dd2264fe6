"""The repo benchmark: four workloads, seven end-to-end metrics, a layer ledger.

One run of one workload (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/perf/run.py --workload steady_1k --seed 1610 \\
        --seconds 12 --trace 0

prints every metric by name with its unit, every correctness check, and
— as the last line of standard output — one JSON object with exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` (or ``--traced``) is the separate traced run that yields
the per-layer ledger.  A failed check exits non-zero.

Without ``--workload`` — or with ``--repeat K`` — it runs a suite, each
run in a process of its own (peak RSS is per process): every selected
workload ``K`` times untraced on one seed, then once traced, reporting
medians and quartiles and requiring the same-seed runs' simulated
counts to be identical.  ``--tiny`` is the seconds-long smoke cell of
that suite.  ``--json PATH`` writes the result file; ``--compare A B``
applies the bounds in ``BENCHMARK.json`` to two result files.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: simulated counts that must repeat exactly for one seed.
EXACT_COUNTS = ("updates", "kernel_events", "rules_fired", "emitted",
                "applied", "detect_sim_s", "redistribute_sim_s")


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; without the program
    there is nothing to measure and no result to print."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", metavar="NAME",
                        help="one workload (default: all four, as a suite)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seeds every RNG stream (default 1610)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work to size the horizons for "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: the traced run (per-layer ledger)")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke cell: 200 nodes, ~1/20 horizons")
    parser.add_argument("--repeat", type=int, metavar="K", default=None,
                        help="suite: K untraced runs per workload")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result file to PATH")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files and exit")
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)  # suite -> child plumbing
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    return args


# -- one run, in this process --------------------------------------------------

def run_once(args, spec) -> dict:
    import metrics
    import workloads
    from tracer import Tracer

    base = next((w for w in workloads.WORKLOADS
                 if w.name == args.workload), None)
    if base is None:
        sys.exit(f"run.py: unknown workload {args.workload!r} (have: "
                 + ", ".join(w.name for w in workloads.WORKLOADS) + ")")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = base.sized(seconds, args.tiny)
    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    result = workloads.run_workload(workload, seed, tracer)
    if traced:
        values = metrics.per_layer(result, tracer)
        declared = spec["per_layer"]
    else:
        values = metrics.end_to_end(result)
        declared = spec["end_to_end"]
    notes = list(result.notes)
    if traced:
        notes += [f"seam gone, its metrics are null: {name} ({why})"
                  for name, why in sorted(tracer.missing.items())]
    return {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "seconds": seconds, "tiny": args.tiny,
        "shape": {"n_nodes": workload.n_nodes, "shards": workload.shards,
                  "slices_per_chunk": workload.slices_per_chunk,
                  "slice_sim_s": workload.slice_sim_s,
                  "requests": sum(result.route_counts.values()),
                  "watch_rounds": len(result.watch_round_s)},
        "correct": result.correct,
        "attempted": int(result.attempted), "failed": int(result.failed),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
        "slowdown": result.slowdown,
        "setup_s": result.setup_s,
        "setup_wall_s": result.setup_wall_s,
        "chunks": result.chunks,
        "reference_chunks": result.reference_chunks,
        "counts": result.counts,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in result.checks],
        "notes": notes,
    }


def print_run(run: dict) -> None:
    shape = run["shape"]
    print(f"== {run['workload']}  seed {run['seed']}  "
          f"{'traced' if run['trace'] else 'untraced'}  "
          f"{shape['n_nodes']} nodes"
          + (f" in {shape['shards']} shards" if shape["shards"] else "")
          + f"  {10 * shape['slices_per_chunk']} slices of "
          f"{shape['slice_sim_s']:g} sim-s  {shape['requests']} requests  "
          f"{shape['watch_rounds']} watch rounds")
    for name, metric in run["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {metric['unit']}")
    wall = sorted(c["updates"] / c["advance_wall_s"] for c in run["chunks"])
    print(f"  times are calibrated seconds: this process ran the "
          f"reference loop {run['slowdown']:.3f}x slower than nominal "
          f"(raw: {wall[len(wall) // 2]:.0f} updates per wall-second)")
    for check in run["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}"
              + ("" if check["ok"] else f": {check['detail']}"))
    for note in run["notes"]:
        print(f"  note: {note}")
    print(f"  attempted {run['attempted']}  failed {run['failed']}  "
          f"correct {run['correct']}", flush=True)


def contract_line(run: dict) -> str:
    """The one line the driver parses.  A metric whose seam is gone is
    ``null`` in the result file; here, where every value is a number,
    it reads 0 and the note above says why."""
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": 0.0 if m["value"] is None
                           else m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()}})


# -- the suite: one child process per run ---------------------------------------

def _child(args, workload: str, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--trace", str(trace), "--record"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True)
    record = None
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    sys.stderr.write(done.stderr)
    if record is None:
        sys.exit(f"run.py: {workload} (trace {trace}) printed no result, "
                 f"exit code {done.returncode}")
    return record


def run_suite(args, spec) -> int:
    import report
    env = report.environment()
    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    repeat = args.repeat if args.repeat is not None else 2
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs, failures = [], []
    for name in names:
        same_seed = []
        for trace in traces:
            for _ in range(repeat if trace == 0 else 1):
                run = _child(args, name, trace)
                runs.append(run)
                if not run["correct"]:
                    failures.append(f"{name}: a correctness check failed")
                if trace == 0:
                    same_seed.append(run)
        for later in same_seed[1:]:
            for key in EXACT_COUNTS:
                first = same_seed[0]["counts"].get(key)
                if later["counts"].get(key) != first:
                    failures.append(
                        f"{name}: same seed, different {key}: {first} "
                        f"then {later['counts'].get(key)}")
    summary = report.summarise([r for r in runs if not r["trace"]])
    print("\n== medians over the untraced runs [q1 .. q3]")
    for name, rows in summary.items():
        for metric, row in rows.items():
            print(f"  {name:18s} {metric:20s} {row['median']:12.5g} "
                  f"[{row['q1']:.5g} .. {row['q3']:.5g}] {row['unit']} "
                  f"(n={row['n']})")
    for failure in failures:
        print(f"FAILED {failure}")
    if args.json:
        report.write_results(args.json, runs, env)
        print(f"wrote {args.json}")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_program()
    import metrics
    import report
    spec = metrics.load_spec()
    if args.compare:
        return report.compare(args.compare[0], args.compare[1], spec)
    if args.workload is None or args.repeat is not None:
        return run_suite(args, spec)
    run = run_once(args, spec)
    print_run(run)
    bad = [name for name, m in run["metrics"].items()
           if m["value"] is not None and not math.isfinite(m["value"])]
    if bad:
        sys.exit(f"run.py: not a finite number: {', '.join(bad)}")
    if args.json:
        report.write_results(args.json, [run], report.environment())
    if args.record:
        print("RECORD " + json.dumps(run))
    print(contract_line(run), flush=True)
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
