"""WORX102 — determinism.

Simulation code must take time from the :class:`SimKernel` and
randomness from :mod:`repro.sim.rng` named streams: a single wall-clock
read or global-RNG draw makes every benchmark in EXPERIMENTS.md
unreproducible and every fleet-scale bug report unreplayable.

Flagged (outside the configured shell allowlist):

* ``time.time/.time_ns/.perf_counter/.monotonic/.process_time`` (+
  ``_ns`` variants) and their ``from time import ...`` forms
* ``datetime.datetime.now/.utcnow/.today`` and ``date.today``
* the stdlib ``random`` module in any form (import alone is flagged —
  there is no deterministic use of the *global* RNG)
* ``os.urandom``, ``uuid.uuid1``, ``uuid.uuid4``
* numpy's legacy global RNG (``np.random.seed/rand/randint/...``) and a
  *seedless* ``np.random.default_rng()`` — with an explicit seed or
  ``SeedSequence`` argument ``default_rng`` is the sanctioned way to
  build streams and is allowed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.tooling.findings import Finding
from repro.tooling.parse import ParsedModule, attr_chain
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["DeterminismPass"]

_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime"})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
_NP_GLOBAL_RNG = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "random_integers", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "bytes",
    "get_state", "set_state"})
_UUID_FNS = frozenset({"uuid1", "uuid4"})


def _in_shell(module: ParsedModule, shell: frozenset) -> bool:
    for entry in shell:
        if module.rel == entry:
            return True
        if entry.endswith("/") and module.rel.startswith(entry):
            return True
    return False


class _Bindings:
    """Which local names are the modules/classes we police."""

    def __init__(self) -> None:
        self.time_mods: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.uuid_mods: Set[str] = set()
        self.random_mods: Set[str] = set()
        #: bindings of the numpy package itself (``import numpy as np``)
        self.numpy_mods: Set[str] = set()
        #: bindings that *are* numpy.random (``from numpy import random``)
        self.np_random_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        #: names bound to datetime.datetime / datetime.date classes
        self.datetime_classes: Set[str] = set()
        #: direct function bindings -> offending description
        self.direct: Dict[str, str] = {}


def _collect_bindings(tree: ast.Module) -> _Bindings:
    b = _Bindings()
    mod_sets = {"time": b.time_mods, "os": b.os_mods,
                "uuid": b.uuid_mods, "random": b.random_mods,
                "numpy": b.numpy_mods, "datetime": b.datetime_mods}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                binding = alias.asname or root
                if alias.name == "numpy.random" and alias.asname:
                    b.np_random_mods.add(alias.asname)
                elif root in mod_sets:
                    mod_sets[root].add(binding)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            source = node.module or ""
            for alias in node.names:
                binding = alias.asname or alias.name
                if source == "time" and alias.name in _TIME_FNS:
                    b.direct[binding] = f"time.{alias.name}"
                elif source == "datetime" and alias.name in ("datetime",
                                                             "date"):
                    b.datetime_classes.add(binding)
                elif source == "os" and alias.name == "urandom":
                    b.direct[binding] = "os.urandom"
                elif source == "uuid" and alias.name in _UUID_FNS:
                    b.direct[binding] = f"uuid.{alias.name}"
                elif source == "random":
                    b.direct[binding] = f"random.{alias.name}"
                elif source == "numpy" and alias.name == "random":
                    b.np_random_mods.add(binding)
    return b


@register
class DeterminismPass(LintPass):
    rule_id = "WORX102"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        shell = ctx.config.determinism_shell
        for module in ctx.modules:
            if _in_shell(module, shell):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: ParsedModule) -> Iterator[Finding]:
        b = _collect_bindings(module.tree)
        for node in ast.walk(module.tree):
            # ``from random import x`` / ``from time import time`` bind
            # the hazard directly: flag the import itself.
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    binding = alias.asname or alias.name
                    if binding in b.direct:
                        yield self.finding(
                            module, node,
                            f"non-deterministic import "
                            f"{b.direct[binding]}: use SimKernel time / "
                            f"repro.sim.rng streams")
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "random":
                        yield self.finding(
                            module, node,
                            "stdlib random is the process-global RNG: "
                            "draw from repro.sim.rng named streams")
                continue
            if not isinstance(node, ast.Attribute):
                continue
            chain = attr_chain(node)
            if chain is None or len(chain) < 2:
                continue
            yield from self._check_chain(module, node, chain, b)
        for call in _seedless_default_rng(module.tree, b):
            yield self.finding(
                module, call,
                "seedless np.random.default_rng() is entropy-seeded: "
                "pass an explicit seed or SeedSequence")

    def _check_chain(self, module: ParsedModule, node: ast.Attribute,
                     chain: list, b: _Bindings) -> Iterator[Finding]:
        base, attr = chain[0], chain[-1]
        # time.<clock>()
        if base in b.time_mods and len(chain) == 2 \
                and attr in _TIME_FNS:
            yield self.finding(
                module, node,
                f"wall-clock read time.{attr}: simulation code must use "
                f"SimKernel.now")
        # os.urandom / uuid.uuid4
        elif base in b.os_mods and len(chain) == 2 \
                and attr == "urandom":
            yield self.finding(
                module, node,
                "os.urandom is non-deterministic: draw bytes from a "
                "repro.sim.rng stream")
        elif base in b.uuid_mods and len(chain) == 2 \
                and attr in _UUID_FNS:
            yield self.finding(
                module, node,
                f"uuid.{attr} is non-deterministic: derive ids from "
                f"seeded state")
        # random.<anything>
        elif base in b.random_mods and len(chain) == 2:
            yield self.finding(
                module, node,
                f"global RNG random.{attr}: draw from repro.sim.rng "
                f"named streams")
        # datetime.datetime.now() / datetime.now() / date.today()
        elif attr in _DATETIME_FNS and (
                (len(chain) == 3 and base in b.datetime_mods
                 and chain[1] in ("datetime", "date"))
                or (len(chain) == 2 and base in b.datetime_classes)):
            yield self.finding(
                module, node,
                f"wall-clock read {'.'.join(chain)}: simulation code "
                f"must use SimKernel.now")
        # numpy's legacy global RNG: np.random.<fn> or nprand.<fn>
        elif attr in _NP_GLOBAL_RNG and (
                (len(chain) == 3 and base in b.numpy_mods
                 and chain[1] == "random")
                or (len(chain) == 2 and base in b.np_random_mods)):
            yield self.finding(
                module, node,
                f"numpy global RNG {'.'.join(chain)}: use the "
                f"Generator streams from repro.sim.rng")


def _seedless_default_rng(tree: ast.Module,
                          b: _Bindings) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if chain is None or chain[-1] != "default_rng" \
                or node.args or node.keywords:
            continue
        if (len(chain) == 3 and chain[0] in b.numpy_mods
                and chain[1] == "random") \
                or (len(chain) == 2 and chain[0] in b.np_random_mods):
            yield node
