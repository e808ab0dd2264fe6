"""WORX101 — the layer DAG.

Three checks over the shared parse:

* **Coverage.**  Every package directory under the root package must be
  in the layer map — one finding at its ``__init__.py`` otherwise,
  whatever it imports (an unmapped package has no layer, so no
  direction check could ever see it).
* **Direction.**  Every import of a root-package module must target a
  layer at or below the importer's own (same package is always fine).
  Function-local imports count too: deferring an import changes *when*
  a dependency loads, not whether it exists.
* **Cycles.**  The module-level import graph (top-level imports only,
  resolved against the parsed tree) must be acyclic.  One finding is
  emitted per strongly-connected component, anchored at its first module
  in path order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.tooling.findings import Finding
from repro.tooling.passes._imports import iter_imports
from repro.tooling.registry import LintContext, LintPass, register

__all__ = ["LayeringPass"]


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC, iterative; only components of size > 1 returned."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sccs


def _edge_targets(ctx, imp) -> Iterator[str]:
    """Modules an import statement actually binds.  ``from pkg import
    sub`` depends on the *submodule* when ``pkg.sub`` is one — charging
    the edge to the package ``__init__`` would manufacture false cycles
    for the idiomatic ``from repro.procfs import handlers`` form."""
    if imp.is_from and imp.names:
        for name in imp.names:
            sub = f"{imp.target}.{name.name}"
            if sub in ctx.by_module:
                yield sub
            else:
                resolved = ctx.resolve_import(imp.target)
                if resolved is not None:
                    yield resolved.module
    else:
        resolved = ctx.resolve_import(imp.target)
        if resolved is not None:
            yield resolved.module


@register
class LayeringPass(LintPass):
    rule_id = "WORX101"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        # -- coverage --------------------------------------------------------
        for component in sorted(ctx.package_dirs
                                - set(ctx.config.layers)):
            prefix = f"{ctx.config.package}/{component}/"
            members = [m for m in ctx.modules
                       if m.rel.startswith(prefix)]
            anchor = next((m for m in members
                           if m.rel == prefix + "__init__.py"),
                          members[0])
            yield Finding(
                path=anchor.rel, line=1, rule_id=self.rule_id,
                message=(f"package {component!r} is missing from the "
                         f"layer map; add it to "
                         f"repro.tooling.layers.LAYER_MAP"))

        graph: Dict[str, Set[str]] = {}
        edge_lines: Dict[Tuple[str, str], int] = {}
        for module in ctx.modules:
            importer_layer = ctx.layer_of(module.module)
            importer_component = ctx.component(module.module)
            for imp in iter_imports(module):
                target_component = ctx.component(imp.target)
                if target_component is None:
                    continue  # stdlib / third-party: out of scope
                # -- direction -------------------------------------------
                target_layer = ctx.layer_of(imp.target)
                if (importer_layer is not None
                        and target_layer is not None
                        and importer_component != target_component
                        and target_layer > importer_layer):
                    yield self.finding(
                        module, imp,
                        f"layer violation: {module.module} (layer "
                        f"{importer_layer}, {importer_component or 'facade'}) "
                        f"imports {imp.target} (layer {target_layer}, "
                        f"{target_component or 'facade'}); dependencies "
                        f"must point down the layer DAG")
                # -- cycle graph (top-level imports only) ----------------
                if imp.top_level:
                    for dep in _edge_targets(ctx, imp):
                        if dep == module.module:
                            continue
                        graph.setdefault(module.module, set()).add(dep)
                        edge_lines.setdefault((module.module, dep),
                                              imp.lineno)

        for component in _strongly_connected(graph):
            first = component[0]
            module = ctx.by_module[first]
            members = set(component)
            line = min((edge_lines[(first, succ)]
                        for succ in graph.get(first, ())
                        if succ in members
                        and (first, succ) in edge_lines), default=1)
            yield Finding(
                path=module.rel, line=line, rule_id=self.rule_id,
                message=("import cycle: " + " -> ".join(component)
                         + f" -> {first}"))
