"""worxlint — AST-based static analysis enforcing this codebase's
architectural invariants (layer DAG, determinism, encapsulation,
subscriber safety, exception-handler hygiene, thread and lock
discipline) — plus the opt-in runtime sanitizer
(:mod:`repro.tooling.sanitizer`) that checks the concurrency contract
against the live process.

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
from repro.tooling.sanitizer import (FrozenDict, Sanitizer,
                                     SanitizerViolation,
                                     current_sanitizer, deep_freeze,
                                     install, uninstall)

__all__ = [
    "CONTEXT_MAP",
    "Finding",
    "FrozenDict",
    "JSON_SCHEMA_VERSION",
    "LAYER_MAP",
    "LOCK_GUARDED",
    "LintConfig",
    "LintContext",
    "LintPass",
    "LintResult",
    "ParsedModule",
    "Sanitizer",
    "SanitizerViolation",
    "all_passes",
    "current_sanitizer",
    "deep_freeze",
    "default_config",
    "get_passes",
    "install",
    "parse_count",
    "parse_tree",
    "register",
    "run_lint",
    "uninstall",
]
