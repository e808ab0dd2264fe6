"""The typed lint finding.

A :class:`Finding` is the single currency of the framework: every pass
emits them, the runner partitions them (active / pragma-suppressed),
and both the text and ``--json`` renderers consume them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source line."""

    path: str        #: posix path relative to the linted root
    line: int        #: 1-based physical line of the offending node
    rule_id: str     #: e.g. ``"WORX101"``
    message: str     #: human explanation, one line

    @property
    def key(self) -> str:
        """Stable identity used by the planted-fixture tests:
        ``rule:path:line``."""
        return f"{self.rule_id}:{self.path}:{self.line}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"rule": self.rule_id, "path": self.path,
                "line": self.line, "message": self.message}
