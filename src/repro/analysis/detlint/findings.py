"""The :class:`Finding` record and its human/JSON renderings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location.

    Attributes:
        rule: Rule code, e.g. ``"DET002"``.
        path: Module-relative posix path (``repro/net/adversity.py`` for
            package files, the as-given path otherwise).  Stable across
            invocation directories.
        line: 1-based source line.
        col: 0-based column.
        message: What is wrong, concretely.
        context: Enclosing ``Class.method`` qualname (or symbol name) the
            finding lives in.
        hint: How to fix it.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    context: str = ""
    hint: str = ""

    def render(self) -> str:
        """One-line human rendering (``path:line:col CODE message``)."""
        where = f" ({self.context})" if self.context else ""
        hint = f"  [fix: {self.hint}]" if self.hint else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}{hint}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``--json`` report shape)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "hint": self.hint,
        }


__all__ = ["Finding"]
