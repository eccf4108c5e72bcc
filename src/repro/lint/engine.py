"""Walk files, parse pragmas, and run the registered rules.

Pragma syntax (shown here in the docstring, not a comment, so the
examples are not themselves parsed as pragmas)::

    keys = pack(ids)  # repro-lint: disable=int32-overflow,RL007
    # repro-lint: disable-file=int32-overflow   (whole file, any line)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.project import Project
from repro.lint.registry import (
    Module,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
)

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\-\s]+?)\s*(?:#|$)")

_SKIP_DIRS = {".git", "__pycache__", ".venv", "node_modules", "build", "dist"}


def _parse_pragmas(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Scan comment tokens for pragmas; never raises on bad source."""
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [(number, line) for number, line
                    in enumerate(source.splitlines(), 1) if "#" in line]
    for line_number, text in comments:
        match = _PRAGMA.search(text)
        if not match:
            continue
        names = {part.strip() for part in match.group("rules").split(",")
                 if part.strip()}
        if match.group("kind") == "disable-file":
            whole_file |= names
        else:
            per_line.setdefault(line_number, set()).update(names)
    return per_line, whole_file


def _relpath(path: Path) -> str:
    """Package-relative posix path used for rule scoping.

    Everything after the last ``src/`` component if present, else the path
    tail starting at the first ``repro`` component, else the bare name —
    so scoping works for installed trees, repo checkouts, and fixtures.
    """
    parts = path.parts
    if "src" in parts:
        index = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[index + 1:]
        if tail:
            return "/".join(tail)
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return path.name


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in child.parts):
                    yield child
        else:
            yield path


def parse_module(source: str, path: str = "<string>") -> Module:
    """Parse one source file into the Module handed to rules."""
    tree = ast.parse(source, filename=path)
    per_line, whole_file = _parse_pragmas(source)
    return Module(path=path, relpath=_relpath(Path(path)), source=source,
                  tree=tree, disabled=per_line, disabled_file=whole_file)


def lint_modules(modules: list[Module],
                 rules: Iterable[Rule] | None = None) -> list[Violation]:
    """Run per-file rules on each module and project rules on the whole
    set (parsed once, analysed once)."""
    rules = list(rules) if rules is not None else all_rules()
    project = Project(modules)
    violations: list[Violation] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            violations.extend(rule.run_project(project))
        else:
            for module in modules:
                violations.extend(rule.run(module))
    return sorted(violations)


def lint_source(source: str, path: str = "<string>",
                rules: Iterable[Rule] | None = None) -> list[Violation]:
    """Lint a source string; ``path`` drives both reporting and scoping.

    Project rules see a single-module project, so interprocedural
    findings within the file still fire.
    """
    return lint_modules([parse_module(source, path)], rules)


def lint_paths(paths: Iterable[str | Path],
               rules: Iterable[Rule] | None = None,
               ) -> tuple[list[Violation], list[str]]:
    """Lint files/directories.  Returns (violations, unreadable-file errors)."""
    modules: list[Module] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            modules.append(parse_module(source, path=str(path)))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
    return lint_modules(modules, rules), errors
