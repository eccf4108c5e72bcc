"""Rule registry and the core datatypes shared by every lint rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a location plus the rule that fired there."""

    path: str
    line: int
    col: int
    code: str
    name: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.name}] {self.message}")


@dataclass
class Module:
    """A parsed source file handed to each rule.

    ``relpath`` is the package-relative posix path (``repro/serve/server.py``)
    that rules use for scoping; ``path`` is whatever the caller passed in and
    is what violations report.
    """

    path: str
    relpath: str
    source: str
    tree: ast.Module
    disabled: dict[int, set[str]] = field(default_factory=dict)
    disabled_file: set[str] = field(default_factory=set)

    def suppressed(self, code_or_name: tuple[str, str], line: int) -> bool:
        for token in code_or_name + ("all",):
            if token in self.disabled_file:
                return True
            if token in self.disabled.get(line, ()):
                return True
        return False


class Rule:
    """Base class for a lint rule.

    Subclasses set ``code`` (stable identifier, e.g. ``RL001``), ``name``
    (the human-facing slug used in pragmas and ``--select``), and implement
    :meth:`check` yielding ``(node_or_location, message)`` findings.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: posix path prefixes (relative to the package root, e.g. ``repro/serve/``)
    #: this rule is limited to; empty means the whole tree.
    scope: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(relpath == prefix or relpath.startswith(prefix)
                   for prefix in self.scope)

    def check(self, module: Module) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError

    def run(self, module: Module) -> Iterator[Violation]:
        if not self.applies_to(module.relpath):
            return
        for node, message in self.check(module):
            violation = self._emit(module, node, message)
            if violation is not None:
                yield violation

    def _emit(self, module: Module, node: ast.AST,
              message: str) -> Violation | None:
        """Build a Violation unless a pragma on the node's span kills it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        # a pragma anywhere on the node's line span suppresses it, so
        # multi-line calls can carry the comment on any of their lines;
        # for def/class findings the span is just the signature, not
        # the whole body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.ExceptHandler)) \
                and node.body:
            end = node.body[0].lineno - 1
        else:
            end = getattr(node, "end_lineno", None) or line
        if any(module.suppressed((self.code, self.name), at)
               for at in range(line, end + 1)):
            return None
        return Violation(path=module.path, line=line, col=col,
                         code=self.code, name=self.name, message=message)


class ProjectRule(Rule):
    """A rule that analyses the whole project at once.

    Subclasses implement :meth:`check_project` against a
    :class:`repro.lint.project.Project` and yield
    ``(module, node, message)`` findings; scoping and pragma suppression
    apply per finding exactly as for per-file rules.  ``lint_source``
    wraps its single file in a one-module project, so project rules run
    (with project-local visibility) in both entry points.
    """

    def check(self, module: Module) -> Iterator[tuple[ast.AST, str]]:
        return iter(())

    def check_project(self, project) -> Iterator[tuple[Module, ast.AST, str]]:
        raise NotImplementedError

    def run_project(self, project) -> Iterator[Violation]:
        for module, node, message in self.check_project(project):
            if not self.applies_to(module.relpath):
                continue
            violation = self._emit(module, node, message)
            if violation is not None:
                yield violation


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index a rule by code and name."""
    rule = cls()
    if not rule.code or not rule.name:
        raise ValueError(f"{cls.__name__} must define code and name")
    for key in (rule.code, rule.name):
        if key in _REGISTRY:
            raise ValueError(f"duplicate lint rule key {key!r}")
    _REGISTRY[rule.code] = rule
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> list[Rule]:
    seen: dict[str, Rule] = {}
    for rule in _REGISTRY.values():
        seen.setdefault(rule.code, rule)
    return sorted(seen.values(), key=lambda rule: rule.code)


def get_rule(key: str) -> Rule:
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted({r.code for r in _REGISTRY.values()}
                                 | {r.name for r in _REGISTRY.values()}))
        raise KeyError(f"unknown lint rule {key!r} (known: {known})") from None


def select_rules(select: Iterable[str] | None = None,
                 ignore: Iterable[str] | None = None) -> list[Rule]:
    rules = ([get_rule(key) for key in select] if select is not None
             else all_rules())
    if ignore:
        dropped = {get_rule(key).code for key in ignore}
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


# ---------------------------------------------------------------- helpers
# Small AST utilities shared by several rules.

def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def base_name(node: ast.AST) -> str:
    """The root Name of a Name/Attribute/Subscript chain, '' otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def walk_skipping(node: ast.AST,
                  skip: Callable[[ast.AST], bool]) -> Iterator[ast.AST]:
    """Like ast.walk but prunes subtrees where ``skip(child)`` is true."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if skip(child):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


