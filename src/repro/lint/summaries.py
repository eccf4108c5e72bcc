"""Per-function summaries the interprocedural rules query.

A :class:`FunctionSummary` is a cheap, purely syntactic digest of one
function: its accepted parameters, whether it (locally) returns int32-
derived values, which callees it returns the result of, and every call
it makes.  Summaries are built
once per function by :class:`repro.lint.project.Project`, which then
resolves call targets against the project symbol table and closes the
``returns_int32`` flag transitively.

Nothing here executes code or imports the analysed modules — it is the
same ``ast``-only discipline as the per-file rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.dtypes import produces_int32 as _produces_int32
from repro.lint.dtypes import promoted as _promoted
from repro.lint.registry import dotted_name

__all__ = ["FunctionSummary", "summarize_function"]


@dataclass
class FunctionSummary:
    """Syntactic digest of one function definition."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]
    kwonly: tuple[str, ...]
    has_varargs: bool
    has_kwargs: bool
    decorated: bool
    #: this function itself returns an int32-derived value
    returns_int32_local: bool
    #: dotted callee texts whose result this function returns verbatim
    return_callees: tuple[str, ...]
    #: every call made directly in the body: (dotted callee text, node)
    calls: tuple[tuple[str, ast.Call], ...]
    #: transitive closure of ``returns_int32_local`` over resolved
    #: return callees; fixed by :class:`repro.lint.project.Project`
    returns_int32: bool = False
    #: ``id(call_node) -> callee qualname`` for project-resolved calls;
    #: filled by :class:`repro.lint.project.Project`
    call_targets: dict[int, str] = field(default_factory=dict)

    def accepts_keyword(self, keyword: str) -> bool:
        return (self.has_kwargs or keyword in self.params
                or keyword in self.kwonly)


def _own_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``node``'s body, recursing into compound statements
    but never into nested function/class definitions."""
    for stmt in getattr(node, "body", []) or []:
        yield from _stmt_and_children(stmt)
    for stmt in getattr(node, "orelse", []) or []:
        yield from _stmt_and_children(stmt)
    for stmt in getattr(node, "finalbody", []) or []:
        yield from _stmt_and_children(stmt)
    for handler in getattr(node, "handlers", []) or []:
        for stmt in handler.body:
            yield from _stmt_and_children(stmt)


def _stmt_and_children(stmt: ast.stmt) -> Iterator[ast.stmt]:
    yield stmt
    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
        yield from _own_statements(stmt)


def _walk_expr_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls in the expressions owned by ``stmt`` (not its sub-statements)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            continue
        for node in ast.walk(child):
            if isinstance(node, ast.Call):
                yield node


def summarize_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                       qualname: str, module: str) -> FunctionSummary:
    args = node.args
    params = tuple(a.arg for a in (*args.posonlyargs, *args.args))
    kwonly = tuple(a.arg for a in args.kwonlyargs)

    statements = list(_own_statements(node))

    calls: list[tuple[str, ast.Call]] = []
    return_callees: list[str] = []
    returns_int32_local = False
    tainted: set[str] = set()
    bound_calls: dict[str, str] = {}

    for stmt in statements:
        for call in _walk_expr_calls(stmt):
            callee = dotted_name(call.func)
            if callee:
                calls.append((callee, call))
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    if _produces_int32(value):
                        tainted.add(target.id)
                        bound_calls.pop(target.id, None)
                    elif (isinstance(value, ast.Call)
                          and not isinstance(stmt, ast.AugAssign)):
                        tainted.discard(target.id)
                        callee = dotted_name(value.func)
                        if callee:
                            bound_calls[target.id] = callee
                        else:
                            bound_calls.pop(target.id, None)
                    elif not isinstance(stmt, ast.AugAssign):
                        tainted.discard(target.id)
                        bound_calls.pop(target.id, None)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            value = stmt.value
            if _promoted(value):
                continue
            if _produces_int32(value):
                returns_int32_local = True
            elif isinstance(value, ast.Name):
                if value.id in tainted:
                    returns_int32_local = True
                elif value.id in bound_calls:
                    return_callees.append(bound_calls[value.id])
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee:
                    return_callees.append(callee)

    return FunctionSummary(
        qualname=qualname, module=module, name=node.name, node=node,
        params=params, kwonly=kwonly,
        has_varargs=args.vararg is not None,
        has_kwargs=args.kwarg is not None,
        decorated=bool(node.decorator_list),
        returns_int32_local=returns_int32_local,
        return_callees=tuple(return_callees),
        calls=tuple(calls),
        returns_int32=returns_int32_local,
    )
