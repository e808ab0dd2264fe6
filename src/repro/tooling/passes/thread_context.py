"""WORX201 — thread and lock discipline.

The gateway era gave the process real concurrent threads: the sim
driver advances the kernel and publishes views, the asyncio serving
loop answers HTTP.  Which thread a function runs on is declared in
``LintConfig.contexts`` (see ``repro.tooling.concurrency`` for the
repo's own map; ``async def``s always run on the serving loop) and
propagated along the same-module call graph: a helper called from both
a sim-side and a serving-side function carries *both* contexts.  Which
state is guarded, and how, is declared in ``LintConfig.lock_guarded``.

Flagged:

* **Both threads, no lock.**  A function reachable from both the sim
  thread and the serving thread that mutates shared state non-atomically
  outside a ``with <lock>`` block — augmented assignment on attributes,
  subscript stores into attribute-held containers, in-place mutator
  calls (``.append``/``.update``/...) on attribute-held receivers.  A
  plain single attribute rebind (``self.view = v``) stays legal: that
  is the sanctioned atomic-publish idiom.
* **Guarded chain outside its lock.**  ``{"server": "lock"}`` — any
  access to ``self.server...`` in that file must sit inside ``with
  self.lock:`` (or any ``with`` over a lock-named expression), or in a
  function whose ``def`` line carries the interprocedural annotation
  ``# worx: holds lock`` — a claim that every caller owns the lock.
* **Replace-only chain edited in place.**  ``{"_owner": ""}`` — the
  chain may be read freely and *rebound* wholesale, but never mutated
  in place: no subscript stores, no ``del``, no ``.update()``/
  ``.pop()``/...

``__init__`` is exempt from the two guarded-chain checks — the object
is not shared while it is being built.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.tooling.findings import Finding
from repro.tooling.parse import ParsedModule, attr_chain
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["ThreadDisciplinePass"]

#: in-place mutators on the builtin containers (dict/list/set).
_MUT_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNC_NODES + (ast.Lambda, ast.ClassDef)


@dataclass
class _FuncInfo:
    """One function (or method) found in a module."""

    node: ast.AST                     #: the FunctionDef/AsyncFunctionDef
    qualname: str                     #: ``Class.method`` / ``func``
    class_name: Optional[str]         #: innermost enclosing class
    contexts: Set[str] = field(default_factory=set)


def _function_index(module: ParsedModule,
                    contexts: Mapping[str, str]) -> Dict[str, _FuncInfo]:
    """Every function in the module keyed by dotted qualname, seeded
    from the declarative context map: a bare ``rel.py`` key seeds every
    function in the file, ``rel.py::Qual`` seeds one, and an ``async
    def`` always runs on the serving loop."""
    index: Dict[str, _FuncInfo] = {}
    file_ctx = contexts.get(module.rel)

    def visit(node: ast.AST, stack: Tuple[str, ...],
              class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, stack + (child.name,), child.name)
            elif isinstance(child, _FUNC_NODES):
                qual = ".".join(stack + (child.name,))
                info = index[qual] = _FuncInfo(child, qual, class_name)
                for ctx in (file_ctx,
                            contexts.get(f"{module.rel}::{qual}")):
                    if ctx is not None:
                        info.contexts.add(ctx)
                if isinstance(child, ast.AsyncFunctionDef):
                    info.contexts.add("serving")
                visit(child, stack + (child.name,), class_name)
            else:
                visit(child, stack, class_name)

    visit(module.tree, (), None)
    return index


def _propagate_contexts(index: Dict[str, _FuncInfo]) -> None:
    """Flow contexts caller -> callee to a fixpoint, resolved
    same-module only: bare-name calls to module-level functions and
    ``self.m()`` / ``cls.m()`` calls to sibling methods."""
    edges: Dict[str, Set[str]] = {qual: set() for qual in index}
    for qual, info in index.items():
        for node, _locked in _iter_with_lock(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in index:
                edges[qual].add(func.id)
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in ("self", "cls") \
                    and f"{info.class_name}.{func.attr}" in index:
                edges[qual].add(f"{info.class_name}.{func.attr}")
    changed = True
    while changed:
        changed = False
        for qual, callees in edges.items():
            source = index[qual].contexts
            for callee in callees:
                target = index[callee].contexts
                if not source <= target:
                    target |= source
                    changed = True


def _iter_with_lock(func: ast.AST, *, initial: bool = False
                    ) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``(node, locked)`` for every node lexically in ``func``
    (nested function/class/lambda scopes excluded), where ``locked`` is
    True inside a ``with <lock>:`` block — any ``with`` over an
    expression whose last segment contains ``lock`` — or when
    ``initial`` says the caller already holds the lock (a ``# worx:
    holds`` annotation)."""
    for child in ast.iter_child_nodes(func):
        locked = initial
        if isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                chain = attr_chain(item.context_expr)
                if chain is not None and "lock" in chain[-1].lower():
                    locked = True
        yield child, locked
        if not isinstance(child, _SCOPE_NODES):
            yield from _iter_with_lock(child, initial=locked)


def _mutated_in_place(node: ast.AST) -> List[ast.AST]:
    """The container expressions ``node`` edits in place: subscript
    stores/deletes (``x.y[k] = v``, ``x.y[k] += v``, ``del x.y[k]``)
    and mutator-method receivers (``x.y.append(v)``)."""
    targets: List[ast.AST] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MUT_METHODS:
        return [node.func.value]
    return [t.value for t in targets if isinstance(t, ast.Subscript)]


def _contains_attribute(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) for n in ast.walk(node))


def _guard_of(chain: Optional[List[str]], prefixes) -> Optional[str]:
    """The guarded prefix ``self.<rest>`` falls under, if any."""
    if not chain or chain[0] != "self":
        return None
    rest = ".".join(chain[1:])
    for prefix in prefixes:
        if rest == prefix or rest.startswith(prefix + "."):
            return prefix
    return None


@register
class ThreadDisciplinePass(LintPass):
    rule_id = "WORX201"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        contexts = ctx.config.contexts
        for module in ctx.modules:
            guarded = ctx.config.lock_guarded.get(module.rel, {})
            if not contexts and not guarded:
                continue
            locked_chains = {p: l for p, l in guarded.items() if l}
            replace_only = [p for p, l in guarded.items() if not l]
            index = _function_index(module, contexts)
            _propagate_contexts(index)
            for info in index.values():
                if {"sim", "serving"} <= info.contexts:
                    yield from self._check_conflict(module, info)
                if info.qualname.rsplit(".", 1)[-1] == "__init__":
                    continue
                if locked_chains:
                    yield from self._check_locked(module, info,
                                                  locked_chains)
                if replace_only:
                    yield from self._check_replace_only(module, info,
                                                        replace_only)

    # -- a function both threads run must mutate atomically ------------------
    def _check_conflict(self, module: ParsedModule,
                        info: _FuncInfo) -> Iterator[Finding]:
        held = module.held_lock(info.node) is not None
        for node, locked in _iter_with_lock(info.node, initial=held):
            if locked:
                continue
            targets = _mutated_in_place(node)
            if isinstance(node, ast.AugAssign):
                targets.append(node.target)  # ``self.count += 1``
            offender = next((t for t in targets
                             if _contains_attribute(t)), None)
            if offender is not None:
                chain = attr_chain(offender)
                what = "'%s'" % ".".join(chain) if chain \
                    else "an attribute-held value"
                yield self.finding(
                    module, node,
                    f"function '{info.qualname}' runs on both the sim "
                    f"and serving threads but mutates {what} "
                    f"non-atomically outside a lock")

    # -- named-lock chains ---------------------------------------------------
    def _check_locked(self, module: ParsedModule, info: _FuncInfo,
                      locked_chains: Mapping[str, str]
                      ) -> Iterator[Finding]:
        held = module.held_lock(info.node)
        seen: Set[Tuple[int, str]] = set()
        for node, locked in _iter_with_lock(info.node):
            if locked or not isinstance(node, ast.Attribute):
                continue
            prefix = _guard_of(attr_chain(node), locked_chains)
            if prefix is None or held == locked_chains[prefix] \
                    or (node.lineno, prefix) in seen:
                continue
            seen.add((node.lineno, prefix))
            lock = locked_chains[prefix]
            yield self.finding(
                module, node,
                f"'{info.qualname}' accesses guarded state "
                f"'self.{prefix}' outside 'with self.{lock}:' — read "
                f"the published view, take the lock, or annotate "
                f"'# worx: holds {lock}' if every caller provably "
                f"holds it")

    # -- replace-only chains -------------------------------------------------
    def _check_replace_only(self, module: ParsedModule, info: _FuncInfo,
                            prefixes) -> Iterator[Finding]:
        for node, _locked in _iter_with_lock(info.node):
            for target in _mutated_in_place(node):
                prefix = _guard_of(attr_chain(target), prefixes)
                if prefix is not None:
                    yield self.finding(
                        module, node,
                        f"'{info.qualname}' mutates replace-only state "
                        f"'self.{prefix}' in place — copy, edit, and "
                        f"rebind wholesale so lock-free readers never "
                        f"see a half-applied change")
                    break
