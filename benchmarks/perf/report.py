"""Result files: environment, run-to-run spread, and A-vs-B comparison.

One schema for every result this benchmark writes (ROADMAP 1a/1d)::

    {"schema": 1, "env": {...}, "runs": [run, ...],
     "summary": {workload: {metric: {n, median, q1, q3, unit}}}}

where each ``run`` carries its workload, seed, trace flag, the named
metrics, the per-chunk raw values, the counts and every check.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List

__all__ = ["environment", "summarise", "write_results", "compare"]

SCHEMA = 1
ROOT = Path(__file__).resolve().parents[2]


def _git_rev() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    """What a number needs beside it to be comparable later."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load,
        "platform": platform.platform(),
    }


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def summarise(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Median and quartiles of every metric, per workload, over the
    runs that measured it (``null`` values — missing seams — are left
    out and show as a shorter ``n``)."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        per_workload = samples.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            units[name] = metric["unit"]
            if metric["value"] is not None:
                per_workload.setdefault(name, []).append(metric["value"])
    return {workload: {name: dict(_quartiles(values), unit=units[name])
                       for name, values in metrics.items()}
            for workload, metrics in samples.items()}


def write_results(path: str, runs: List[dict], env: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "env": env, "runs": runs,
                   "summary": summarise(runs)}, fh, indent=2)
        fh.write("\n")


def _verdict(metric: dict, a: dict, b: dict,
             a_values: List[float], b_values: List[float]) -> str:
    """better / unchanged / worse / unresolved for one row (guide §6.5,
    §8): B is worse when its median is worse than A's by more than the
    bound; where the run-to-run spread is wider than the bound the row
    is unresolved, unless every B run beats every A run."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worsening = sign * (b["median"] - a["median"]) / base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    if worsening > metric["bound"]:
        return "worse"
    clean_sweep = all(sign * (y - x) < 0 for x in a_values
                      for y in b_values)
    if spread > metric["bound"] and not clean_sweep:
        return "unresolved"
    if worsening < 0 and (clean_sweep or -worsening > spread):
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per workload x end-to-end metric; non-zero on ``worse``."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)

    def values(doc: dict, workload: str, name: str) -> List[float]:
        return [run["metrics"][name]["value"] for run in doc["runs"]
                if run["workload"] == workload and not run["trace"]
                and name in run["metrics"]]
    print(f"A: {path_a}  rev {a['env'].get('git_rev')}  "
          f"{a['env'].get('cpu_model')}")
    print(f"B: {path_b}  rev {b['env'].get('git_rev')}  "
          f"{b['env'].get('cpu_model')}")
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a_values = values(a, workload, metric["name"])
            b_values = values(b, workload, metric["name"])
            if not a_values or not b_values:
                continue
            qa, qb = _quartiles(a_values), _quartiles(b_values)
            verdict = _verdict(metric, qa, qb, a_values, b_values)
            worse += verdict == "worse"
            change = (qb["median"] - qa["median"]) \
                / (abs(qa["median"]) or 1.0)
            print(f"{workload:18s} {metric['name']:20s} "
                  f"{qa['median']:12.4f} {qb['median']:12.4f} "
                  f"{change:+8.1%} {metric['bound']:6.0%}  {verdict}")
    return 1 if worse else 0
