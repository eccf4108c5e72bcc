"""Output formatters: plain text and JSON."""

from __future__ import annotations

import json

from repro.lint.registry import Violation

__all__ = ["render_json", "render_text"]


def render_text(violations: list[Violation]) -> str:
    return "\n".join(violation.format() for violation in violations)


def render_json(violations: list[Violation]) -> str:
    rows = [
        {"path": v.path, "line": v.line, "col": v.col,
         "code": v.code, "name": v.name, "message": v.message}
        for v in violations
    ]
    return json.dumps(rows, indent=2, sort_keys=True)
