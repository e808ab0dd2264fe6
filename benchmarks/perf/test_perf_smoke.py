"""Smoke test of the repo benchmark: the ``--tiny`` suite, end to end.

Not part of tier-1 (``testpaths = tests``); run it with

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

It runs all four workloads traced and untraced in their 200-node
cells (well under 30 s) and holds the benchmark to its own contract:
every metric ``BENCHMARK.json`` declares is reported and finite — or
explicitly ``null`` with a note, for a seam that no longer exists —
and every correctness check passed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
ENV_KEYS = {"git_rev", "python", "cpu_model", "nproc",
            "loadavg_1m_at_start"}


def test_tiny_suite_reports_every_declared_metric(tmp_path):
    out = tmp_path / "tiny.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--json",
         str(out)], capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    doc = json.loads(out.read_text())
    assert ENV_KEYS <= set(doc["env"])
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    seen = set()
    for run in doc["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["seed"] is not None and run["chunks"]
        assert run["correct"] and run["failed"] == 0
        assert run["checks"] and all(c["ok"] for c in run["checks"])
        assert set(run["metrics"]) == {m["name"]
                                       for m in declared[run["trace"]]}
        for metric in declared[run["trace"]]:
            got = run["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            if got["value"] is None:
                # Only a vanished seam may read null, and it says so.
                assert run["trace"] == 1 and any(
                    "seam gone" in note for note in run["notes"])
                continue
            assert math.isfinite(got["value"]), metric["name"]
            if run["trace"] == 0:
                assert got["value"] > 0, metric["name"]
    assert seen == {(w["name"], trace) for w in SPEC["workloads"]
                    for trace in (0, 1)}
    # Same seed, same simulated counts: the suite ran each workload
    # untraced twice and would have exited non-zero on a difference.
    assert "same seed, different" not in done.stdout
