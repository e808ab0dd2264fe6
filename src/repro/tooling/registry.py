"""Pass registry and the whole-program context passes run against.

A pass is a class with a ``rule_id`` and a ``run(ctx)`` generator; the
``@register`` decorator adds it to the global registry in definition
order.  Passes are *whole-program*: they see every parsed module at once
(layering needs the import graph of every module), and they must never
re-read or re-parse a file — everything they need is on the
:class:`LintContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Type)

from repro.tooling.findings import Finding
from repro.tooling.parse import ParsedModule

__all__ = ["LintConfig", "LintContext", "LintPass", "register",
           "all_passes", "get_passes"]


@dataclass(frozen=True)
class LintConfig:
    """What to lint and under which policy."""

    root: Path
    #: root package name the layer rules apply to (imports of anything
    #: else — stdlib, third-party — are out of scope for WORX101/103).
    package: str = "repro"
    #: first path component under ``package`` -> layer number; ``""``
    #: names the package facade (``<package>/__init__.py``) and plain
    #: top-level modules default to the facade layer unless listed.
    layers: Mapping[str, int] = field(default_factory=dict)
    #: rel paths (files, or directory prefixes ending in ``/``) exempt
    #: from the determinism rule — the interactive shell that is allowed
    #: to look at wall clocks.
    determinism_shell: FrozenSet[str] = frozenset()
    #: run only these rule ids (``None`` = every registered pass).
    rules: Optional[FrozenSet[str]] = None
    # -- concurrency policy (WORX201) ---------------------------------------
    #: ``"rel/path.py"`` or ``"rel/path.py::Qual.name"`` -> the thread a
    #: function runs on (``sim`` / ``serving``) — the seeds that
    #: call-graph propagation grows from.
    contexts: Mapping[str, str] = field(default_factory=dict)
    #: per rel path: ``self.``-rooted attribute chain -> guarding lock
    #: name; the empty string means replace-only (swap, never mutate in
    #: place).
    lock_guarded: Mapping[str, Mapping[str, str]] = field(
        default_factory=dict)


class LintContext:
    """Everything a pass may consult: the config and the shared parse."""

    def __init__(self, config: LintConfig,
                 modules: Sequence[ParsedModule]):
        self.config = config
        self.modules: List[ParsedModule] = list(modules)
        self.by_module: Dict[str, ParsedModule] = {
            m.module: m for m in self.modules}
        #: components that are package *directories* under the root
        #: package (``repro/sim/...``), as opposed to plain top-level
        #: modules (``repro/cli.py``).
        self.package_dirs = {
            m.rel.split("/")[1] for m in self.modules
            if m.rel.count("/") >= 2
            and m.rel.startswith(config.package + "/")}

    # -- layer helpers -------------------------------------------------------
    def component(self, module: str) -> Optional[str]:
        """First path component of ``module`` under the root package:
        ``repro.sim.kernel`` -> ``sim``; the facade itself -> ``""``;
        ``None`` when the module is outside the root package."""
        package = self.config.package
        if module == package:
            return ""
        if not module.startswith(package + "."):
            return None
        return module[len(package) + 1:].split(".", 1)[0]

    def layer_of(self, module: str) -> Optional[int]:
        component = self.component(module)
        if component is None:
            return None
        layers = self.config.layers
        if component in layers:
            return layers[component]
        if component in self.package_dirs:
            return None  # an unmapped package: WORX101 reports it
        # Unlisted top-level modules (and the facade) sit at the top.
        return layers.get("", max(layers.values(), default=0))

    def resolve_import(self, target: str) -> Optional[ParsedModule]:
        """Map an import target to a parsed module: exact module first,
        then its containing package (``from repro.sim import SimKernel``
        resolves to ``repro.sim``'s ``__init__``)."""
        if target in self.by_module:
            return self.by_module[target]
        if "." in target:
            return self.by_module.get(target.rsplit(".", 1)[0])
        return None


class LintPass:
    """Base class: subclasses set the rule metadata and yield findings."""

    rule_id: str = "WORX000"

    def finding(self, module: ParsedModule, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=module.rel,
                       line=getattr(node, "lineno", 1),
                       rule_id=self.rule_id, message=message)

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: List[Type[LintPass]] = []


def register(cls: Type[LintPass]) -> Type[LintPass]:
    """Class decorator: add a pass to the global registry."""
    _REGISTRY.append(cls)
    return cls


def all_passes() -> List[LintPass]:
    """Fresh instances of every registered pass, ordered by rule id."""
    import repro.tooling.passes  # noqa: F401  (triggers registration)
    return [cls() for cls in sorted(_REGISTRY,
                                    key=lambda c: c.rule_id)]


def get_passes(rules: Optional[Iterable[str]] = None) -> List[LintPass]:
    passes = all_passes()
    if rules is None:
        return passes
    wanted = {rule.upper() for rule in rules}
    return [p for p in passes if p.rule_id in wanted]
