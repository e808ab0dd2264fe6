"""WORX103 — encapsulation.

The scope-aware replacement for the old regex private-attribute lint:
no reaching into another object's ``_private`` state from outside the
module that owns it.  Because this pass walks the AST, strings,
comments, and f-strings can never false-positive (the regex predecessor
corrupted lines where ``#`` appeared inside a string literal), and
scoping is understood structurally:

* ``self._x`` / ``cls._x`` — always fine, wherever they appear
  (comprehension bodies included: the class stack, not the expression
  nesting, decides ownership).
* **Same-class peer access** — ``other._mean`` inside ``Welford.merge``
  is fine when ``_mean`` is an attribute the enclosing module's own
  classes define (``self._mean = ...``, class-level ``_mean = ...``,
  ``__slots__`` entries, or ``def _mean``).  A module may use its own
  internals; outsiders may not.
* Anything else — ``name._attr`` where the attribute is not part of the
  current module's private surface — is a violation: add a public API
  on the owning class instead.
* ``from other.package import _helper`` — importing an underscore-private
  name from *another package* of the root is the same reach, spelled as
  an import, and is flagged too.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.tooling.findings import Finding
from repro.tooling.passes._imports import iter_imports
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["EncapsulationPass"]

#: single-underscore lowercase privates, matching the historical lint;
#: dunders (``__init__``) and sunders (``_``) are out of scope.
_PRIVATE = re.compile(r"^_[a-z][a-z0-9_]*$")


def _private_surface(tree: ast.Module) -> Set[str]:
    """Every private attribute/method name defined by classes (or
    module-level ``def _helper``) in this module."""
    surface: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _PRIVATE.match(node.name):
                surface.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                for target in _assigned_names(item):
                    if _PRIVATE.match(target):
                        surface.add(target)
            surface.update(_slots_entries(node))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls") \
                and _PRIVATE.match(node.attr):
            surface.add(node.attr)
    return surface


def _assigned_names(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(node, ast.AnnAssign) \
            and isinstance(node.target, ast.Name):
        yield node.target.id


def _slots_entries(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for item in cls.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in item.targets):
            for elt in ast.walk(item.value):
                if isinstance(elt, ast.Constant) \
                        and isinstance(elt.value, str):
                    names.add(elt.value)
    return names


@register
class EncapsulationPass(LintPass):
    rule_id = "WORX103"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules:
            component = ctx.component(module.module)
            for imp in iter_imports(module):
                if ctx.component(imp.target) in (None, component):
                    continue  # outside the root, or this package's own
                for imported in imp.names:
                    name = imported.name
                    if name.startswith("_") and not (
                            name.startswith("__") and name.endswith("__")):
                        yield self.finding(
                            module, imp,
                            f"imports private name {name!r} "
                            f"from {imp.target}: private helpers are "
                            f"not part of another package's surface")
            surface = _private_surface(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue  # only simple-name receivers, per policy
                receiver = node.value.id
                attr = node.attr
                if receiver in ("self", "cls"):
                    continue
                if not _PRIVATE.match(attr):
                    continue
                if attr in surface:
                    continue  # this module's own internals
                yield self.finding(
                    module, node,
                    f"{receiver}.{attr} reaches into private state "
                    f"owned elsewhere; add a public method/property on "
                    f"the receiver's class")
