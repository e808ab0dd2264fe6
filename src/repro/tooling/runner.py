"""The lint driver: one shared parse, every pass, central suppression.

``run_lint`` parses the tree exactly once (asserted by the tier-1
counting test), hands the same :class:`LintContext` to every registered
pass, then splits the raw findings two ways:

* **suppressed** — a same-line ``# worx: ok [RULES]`` pragma waives it
  (the one, reviewed way to waive a finding);
* **active** — everything else; any active finding fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.tooling.concurrency import CONTEXT_MAP, LOCK_GUARDED
from repro.tooling.findings import Finding
from repro.tooling.layers import LAYER_MAP
from repro.tooling.parse import parse_tree
from repro.tooling.registry import LintConfig, LintContext, get_passes

__all__ = ["LintResult", "default_config", "run_lint",
           "JSON_SCHEMA_VERSION"]

#: bumped only when the shape of ``LintResult.to_json`` changes
#: (2: ``severity`` and ``baselined`` dropped).
JSON_SCHEMA_VERSION = 2


@dataclass
class LintResult:
    """Outcome of one lint run over one tree."""

    findings: List[Finding]              #: active — these fail the gate
    suppressed: List[Finding] = field(default_factory=list)
    modules: int = 0
    rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"worxlint: {len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed) across "
            f"{self.modules} modules")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "version": JSON_SCHEMA_VERSION,
            "ok": self.ok,
            "modules": self.modules,
            "rules": list(self.rules),
            "findings": [f.to_json() for f in self.findings],
            "suppressed": len(self.suppressed),
        }


def default_config(root: Optional[Path] = None, *,
                   rules: Optional[Set[str]] = None) -> LintConfig:
    """The repo's own policy: the ``repro`` layer map, ``cli.py`` and
    the gateway's serving shell as the only wall-clock modules, and the
    concurrency contract from :mod:`repro.tooling.concurrency`."""
    if root is None:
        root = Path(__file__).resolve().parents[2]
    return LintConfig(root=root, package="repro", layers=dict(LAYER_MAP),
                      determinism_shell=frozenset(
                          {"repro/cli.py", "repro/gateway/shell.py"}),
                      rules=frozenset(rules) if rules else None,
                      contexts=dict(CONTEXT_MAP),
                      lock_guarded=dict(LOCK_GUARDED))


def run_lint(config: LintConfig) -> LintResult:
    """Parse once, run the selected passes, split off the waived."""
    modules = parse_tree(config.root)
    ctx = LintContext(config, modules)
    by_rel = {m.rel: m for m in modules}
    passes = get_passes(config.rules)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    for lint_pass in passes:
        for finding in lint_pass.run(ctx):
            module = by_rel.get(finding.path)
            if module is not None and module.suppresses(
                    finding.line, finding.rule_id):
                suppressed.append(finding)
            else:
                active.append(finding)
    return LintResult(findings=sorted(active),
                      suppressed=sorted(suppressed),
                      modules=len(modules),
                      rules=[p.rule_id for p in passes])
