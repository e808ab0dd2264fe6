"""WORX106 — no swallowed exceptions.

The resilience subsystem's whole contract is that failures are
*recorded* (orchestrator error lists, worker results, lint findings) —
never silently dropped.  A handler that catches everything and does
nothing turns a playbook bug into an unexplained stall.  Flagged:

* a **bare** ``except:`` anywhere — it catches ``SystemExit`` /
  ``KeyboardInterrupt`` and the kernel's control-flow exceptions
  (``Interrupt``, ``ProcessKilled``), which must always propagate;
* ``except Exception`` / ``except BaseException`` (alone or inside a
  tuple) whose body does nothing — only ``pass``, ``continue``, ``...``
  or a string — i.e. the error is neither bound, logged, recorded,
  re-raised nor transformed.

Catching a *narrow* exception and passing (``except KeyError: pass``)
stays legal: that is a considered statement about one failure mode.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tooling.findings import Finding
from repro.tooling.parse import ParsedModule
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["SwallowedExceptionsPass"]

_CATCH_ALL = frozenset({"Exception", "BaseException"})


def _catch_all_name(node: ast.AST) -> bool:
    """Does this exception-type expression name a catch-all class?"""
    if isinstance(node, ast.Name):
        return node.id in _CATCH_ALL
    if isinstance(node, ast.Attribute):  # builtins.Exception and friends
        return node.attr in _CATCH_ALL
    if isinstance(node, ast.Tuple):
        return any(_catch_all_name(item) for item in node.elts)
    return False


def _body_does_nothing(body) -> bool:
    """True when the handler body neither acts on nor records the error:
    only ``pass``/``continue`` and bare constants (docstrings, ``...``)."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@register
class SwallowedExceptionsPass(LintPass):
    rule_id = "WORX106"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules:
            yield from self._check_module(module)

    def _check_module(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare except: catches SystemExit and the kernel's "
                    "control-flow exceptions; name what you expect")
            elif _catch_all_name(node.type) \
                    and _body_does_nothing(node.body):
                yield self.finding(
                    module, node,
                    "swallowed exception: a catch-all handler that does "
                    "nothing hides real failures; record, re-raise, or "
                    "narrow the exception type")
