"""Every walk-through in ``examples/`` runs to completion.

The examples drive the public facade end to end (power, cloning, the
console paths, the resource manager, a fault drill), so each is run in
its own interpreter, as a reader would run it, and must exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
