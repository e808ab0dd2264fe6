"""worxlint — AST-based static analysis enforcing this codebase's
architectural invariants (layer DAG, determinism, encapsulation,
exception-handler hygiene, thread and lock discipline).

The framework parses every module under the linted root **once**
(:mod:`repro.tooling.parse`), runs a registry of whole-program visitor
passes over the shared parse (:mod:`repro.tooling.passes`), and emits
typed :class:`~repro.tooling.findings.Finding` records with per-line
pragma suppression (``# worx: ok WORX103``) and interprocedural lock
annotations (``# worx: holds lock``).  ``repro-cli lint`` is the
operator entry point; ``tests/test_tooling.py`` is the tier-1 gate.
"""

from repro.tooling.concurrency import CONTEXT_MAP, LOCK_GUARDED
from repro.tooling.findings import Finding
from repro.tooling.layers import LAYER_MAP
from repro.tooling.parse import ParsedModule, parse_count, parse_tree
from repro.tooling.registry import (LintConfig, LintContext, LintPass,
                                    all_passes, get_passes, register)
from repro.tooling.runner import (JSON_SCHEMA_VERSION, LintResult,
                                  default_config, run_lint)

__all__ = [
    "CONTEXT_MAP",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LAYER_MAP",
    "LOCK_GUARDED",
    "LintConfig",
    "LintContext",
    "LintPass",
    "LintResult",
    "ParsedModule",
    "all_passes",
    "default_config",
    "get_passes",
    "parse_count",
    "parse_tree",
    "register",
    "run_lint",
]
