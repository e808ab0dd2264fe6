"""The shared parse: every module under the linted root is read and
``ast.parse``-d exactly once, no matter how many passes run.

Passes never touch the filesystem or call :func:`ast.parse` themselves —
they receive :class:`ParsedModule` objects carrying the tree, the source,
and the pre-extracted pragma map.  :data:`PARSE_COUNT` counts calls to
:func:`parse_file` so the test suite can assert the single-parse property
instead of trusting it.  Nothing is cached between runs: a cold parse
of the whole of ``src/`` is well under two seconds.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = ["ParsedModule", "PARSE_COUNT", "attr_chain", "parse_count",
           "parse_file", "parse_tree"]

#: Total ast.parse invocations since import — the re-parse canary.
PARSE_COUNT = 0

#: ``# worx: ok`` / ``# worx: ok WORX103`` / ``# worx: ok WORX101, WORX103``
_PRAGMA = re.compile(r"#\s*worx:\s*ok\b\s*([A-Za-z0-9_,\s]*)")

#: ``# worx: holds <lock>`` — the interprocedural lock annotation: the
#: function defined on that line runs with ``self.<lock>`` already held
#: by its caller (WORX201 treats its whole body as locked).
_HOLDS = re.compile(r"#\s*worx:\s*holds\s+([A-Za-z_][A-Za-z0-9_.]*)")


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name chains
    (anything routed through a call, subscript or literal)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def parse_count() -> int:
    """Current value of the parse counter (read through a function so
    tests are immune to ``from ... import`` snapshotting)."""
    return PARSE_COUNT


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every pass."""

    path: Path            #: absolute path on disk
    rel: str              #: posix path relative to the linted root
    module: str           #: dotted module name (``repro.sim.kernel``)
    source: str
    tree: ast.Module
    #: physical line -> suppressed rule ids; ``None`` means *all* rules
    #: (a bare ``# worx: ok``).
    pragmas: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)
    #: physical line -> lock name from a ``# worx: holds <lock>``
    #: annotation (keyed by the ``def`` line it decorates).
    holds: Dict[int, str] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """Dotted package containing this module (itself if a package)."""
        if self.module.endswith("__init__") or "." not in self.module:
            return self.module.rsplit(".__init__", 1)[0]
        return self.module.rsplit(".", 1)[0]

    def suppresses(self, line: int, rule_id: str) -> bool:
        """True when a same-line pragma waives ``rule_id``."""
        if line not in self.pragmas:
            return False
        rules = self.pragmas[line]
        return rules is None or rule_id in rules

    def held_lock(self, node: ast.AST) -> Optional[str]:
        """The lock a ``# worx: holds <lock>`` annotation on this
        function's ``def`` line declares the caller owns, or ``None``."""
        return self.holds.get(getattr(node, "lineno", -1))


def _extract_pragmas(source: str) -> Tuple[
        Dict[int, Optional[FrozenSet[str]]], Dict[int, str]]:
    """Suppression + holds annotations from *comment tokens only* — a
    pragma spelled inside a string literal is data, not an annotation."""
    pragmas: Dict[int, Optional[FrozenSet[str]]] = {}
    holds: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(tok.string)
            if match is not None:
                names = frozenset(
                    part.strip().upper()
                    for part in re.split(r"[,\s]+", match.group(1))
                    if part.strip())
                pragmas[tok.start[0]] = names or None
            match = _HOLDS.search(tok.string)
            if match is not None:
                holds[tok.start[0]] = match.group(1)
    except tokenize.TokenError:
        pass  # ast.parse will report the real syntax problem
    return pragmas, holds


def _module_name(rel: str) -> str:
    parts = rel[:-3].split("/")  # strip ".py"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def parse_file(path: Path, root: Path) -> ParsedModule:
    """Read + parse one file; the only place ``ast.parse`` is called."""
    global PARSE_COUNT
    PARSE_COUNT += 1
    rel = path.relative_to(root).as_posix()
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    pragmas, holds = _extract_pragmas(source)
    return ParsedModule(path=path, rel=rel, module=_module_name(rel),
                        source=source, tree=tree,
                        pragmas=pragmas, holds=holds)


def parse_tree(root: Path) -> List[ParsedModule]:
    """Parse every ``*.py`` under ``root`` once, sorted by path."""
    return [parse_file(path, root) for path in sorted(root.rglob("*.py"))
            if "__pycache__" not in path.parts]
