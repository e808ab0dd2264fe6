"""WORX104 — subscriber safety.

A :class:`~repro.core.statestore.StateStore` subscription callback runs
*inside* the store's publish loop.  Calling a mutating store/server API
from there re-enters the write path mid-notification: ``apply`` from a
callback recurses ``_publish`` (unbounded when two subscribers feed each
other), ``track``/``forget`` invalidate the rollup the in-flight update
is being merged against, and ``subscribe`` makes delivery order depend
on registration timing.  Detaching (``unsubscribe``/``cancel``) is
explicitly safe — the store iterates a copy — and is not flagged.

The pass finds registration sites (``<recv>.subscribe(cb, ...)`` and
``<session>.watch(cb, ...)``), resolves each callback to its function
definition — a local ``def``, a ``self.<method>``, or a method reached
through a typed attribute/variable (``self.history = HistoryStore(...)``
then ``subscribe(self.history.ingest)``), following imports to other
parsed modules when needed — and flags any call to a mutator name
lexically inside the callback body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.tooling.findings import Finding
from repro.tooling.parse import ParsedModule, attr_chain
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["SubscriberSafetyPass"]

#: registration method names whose first argument is a pushed-delta
#: callback.
_REGISTRARS = frozenset({"subscribe", "watch"})

#: store/server APIs that mutate state or the subscription list —
#: calling any of these from inside a callback is the re-entrancy
#: hazard this rule exists for.
_MUTATORS = frozenset({
    "apply", "ingest", "track", "forget",
    "track_node", "forget_node", "subscribe"})


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``self.<attr> = SomeClass(...)`` -> "SomeClass"
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleIndex:
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    #: every function/method def by bare name (module, nested, methods)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``name = SomeClass(...)`` anywhere -> "SomeClass"
    var_types: Dict[str, str] = field(default_factory=dict)
    #: imported local name -> source module
    imports: Dict[str, str] = field(default_factory=dict)


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _index_module(module: ParsedModule) -> _ModuleIndex:
    index = _ModuleIndex()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                index.imports[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions.setdefault(node.name, node)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.value, ast.Call):
            cls_name = _callee_name(node.value.func)
            target = node.targets[0]
            if cls_name is None:
                continue
            if isinstance(target, ast.Name):
                index.var_types.setdefault(target.id, cls_name)
        elif isinstance(node, ast.ClassDef):
            info = _ClassInfo(node)
            for item in ast.walk(node):
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    info.methods.setdefault(item.name, item)
                elif isinstance(item, ast.Assign) \
                        and len(item.targets) == 1 \
                        and isinstance(item.targets[0], ast.Attribute) \
                        and isinstance(item.targets[0].value, ast.Name) \
                        and item.targets[0].value.id == "self" \
                        and isinstance(item.value, ast.Call):
                    cls_name = _callee_name(item.value.func)
                    if cls_name is not None:
                        info.attr_types.setdefault(
                            item.targets[0].attr, cls_name)
            index.classes[node.name] = info
    return index


class _Resolver:
    """Resolve a callback expression to its FunctionDef, cross-module."""

    def __init__(self, ctx: LintContext):
        self.ctx = ctx
        self._indexes: Dict[str, _ModuleIndex] = {}

    def index(self, module: ParsedModule) -> _ModuleIndex:
        if module.module not in self._indexes:
            self._indexes[module.module] = _index_module(module)
        return self._indexes[module.module]

    def _class_info(self, module: ParsedModule,
                    cls_name: str) -> Optional[Tuple[ParsedModule,
                                                     _ClassInfo]]:
        index = self.index(module)
        if cls_name in index.classes:
            return module, index.classes[cls_name]
        source = index.imports.get(cls_name)
        if source is None:
            return None
        target = self.ctx.by_module.get(source) \
            or self.ctx.resolve_import(f"{source}.{cls_name}")
        if target is None:
            return None
        foreign = self.index(target).classes.get(cls_name)
        if foreign is None:
            return None
        return target, foreign

    def resolve(self, module: ParsedModule, callback: ast.AST,
                enclosing_class: Optional[ast.ClassDef]
                ) -> Optional[Tuple[ParsedModule, ast.FunctionDef]]:
        index = self.index(module)
        if isinstance(callback, ast.Name):
            fn = index.functions.get(callback.id)
            return (module, fn) if fn is not None else None
        chain = attr_chain(callback)
        if chain is None or len(chain) < 2:
            return None
        base, rest = chain[0], chain[1:]
        # Establish the class the chain starts from.
        if base in ("self", "cls"):
            if enclosing_class is None:
                return None
            owner = (module, index.classes[enclosing_class.name])
        else:
            cls_name = index.var_types.get(base)
            if cls_name is None:
                return None
            owner = self._class_info(module, cls_name)
        # Walk intermediate attributes through declared attribute types.
        for attr in rest[:-1]:
            if owner is None:
                return None
            owner_module, info = owner
            cls_name = info.attr_types.get(attr)
            if cls_name is None:
                return None
            owner = self._class_info(owner_module, cls_name)
        if owner is None:
            return None
        owner_module, info = owner
        method = info.methods.get(rest[-1])
        return (owner_module, method) if method is not None else None


def _registrations(module: ParsedModule
                   ) -> Iterator[Tuple[ast.Call, ast.AST,
                                       Optional[ast.ClassDef]]]:
    """(call, callback expr, enclosing class) per registration site."""
    stack: List[Tuple[ast.AST, Optional[ast.ClassDef]]] = [
        (module.tree, None)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _REGISTRARS:
            callback: Optional[ast.AST] = None
            if node.args:
                callback = node.args[0]
            else:
                for kw in node.keywords:
                    if kw.arg == "callback":
                        callback = kw.value
            if callback is not None:
                yield node, callback, cls
        child_cls = node if isinstance(node, ast.ClassDef) else cls
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_cls))


@register
class SubscriberSafetyPass(LintPass):
    rule_id = "WORX104"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        resolver = _Resolver(ctx)
        seen: set = set()
        for module in ctx.modules:
            for call, callback, cls in _registrations(module):
                resolved = resolver.resolve(module, callback, cls)
                if resolved is None:
                    continue
                owner_module, fn = resolved
                key = (owner_module.module, fn.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield from self._check_callback(owner_module, fn)

    def _check_callback(self, module: ParsedModule,
                        fn: ast.FunctionDef) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _MUTATORS:
                continue
            receiver = ast.unparse(node.func.value)
            yield self.finding(
                module, node,
                f"subscription callback {fn.name!r} calls "
                f"{receiver}.{node.func.attr}(...) — a mutating "
                f"store/server API — from inside the publish loop; "
                f"defer the mutation (queue it, or schedule a kernel "
                f"event) instead of re-entering the store")
