"""RL002 shm-lifecycle.

A ``SharedMemory(create=True)`` / ``SharedArrayBundle.create``
acquisition owns a kernel object that outlives the process on leak.  Every acquisition must either:

* be used directly as a ``with`` context manager,
* reach ``close()``/``unlink()`` in a ``try/finally`` (dotted access on
  the bound name counts, e.g. ``state.bundle.unlink()``),
* clean up and re-raise in an ``except`` handler, or
* escape the function (returned/yielded, stored into an attribute or
  container, or passed to another call) — ownership moved elsewhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.registry import (
    Module,
    Rule,
    base_name,
    dotted_name,
    function_defs,
    register,
    walk_skipping,
)

_CREATOR_OWNERS = {"SharedArrayBundle"}
_CLEANUP_ATTRS = {"close", "unlink"}


def _is_acquisition(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "create":
        if dotted_name(func.value).rsplit(".", 1)[-1] in _CREATOR_OWNERS:
            return True
    if dotted_name(func).rsplit(".", 1)[-1] == "SharedMemory":
        return any(kw.arg == "create"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True for kw in call.keywords)
    return False


def _cleans_up(subtree: list[ast.stmt], name: str) -> bool:
    for stmt in subtree:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CLEANUP_ATTRS
                    and base_name(node.func.value) == name):
                return True
    return False


def _raises(subtree: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise)
               for stmt in subtree for node in ast.walk(stmt))


def _mentions(tree: ast.AST, name: str) -> bool:
    return any(isinstance(node, ast.Name) and node.id == name
               for node in ast.walk(tree))


def _sanctioned(scope: ast.AST, name: str, binding: ast.Assign) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(isinstance(item.context_expr, ast.Name)
                   and item.context_expr.id == name for item in node.items):
                return True
        elif isinstance(node, ast.Try):
            if _cleans_up(node.finalbody, name):
                return True
            if any(_cleans_up(h.body, name) and _raises(h.body)
                   for h in node.handlers):
                return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _mentions(node.value, name):
                return True
        elif isinstance(node, ast.Assign) and node is not binding:
            # self.x = name / d[k] = name: container owns it now
            if _mentions(node.value, name) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets):
                return True
        elif isinstance(node, ast.Call) and node.func is not binding.value:
            # passed to another call: ownership delegated
            if any(_mentions(arg, name) for arg in node.args) or any(
                    _mentions(kw.value, name) for kw in node.keywords):
                return True
    return False


@register
class ShmLifecycle(Rule):
    code = "RL002"
    name = "shm-lifecycle"
    description = (
        "shared-memory acquisitions must reach close()/unlink() on all "
        "paths (with-block, try/finally, or ownership transfer).")
    scope = ("repro/parallel/", "repro/serve/")

    def check(self, module: Module) -> Iterator[tuple[ast.AST, str]]:
        def nested_def(node: ast.AST) -> bool:
            return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda))

        for scope in [module.tree, *function_defs(module.tree)]:
            for node in walk_skipping(scope, nested_def):
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                        and _is_acquisition(node.value)):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                    if not names:
                        continue  # attribute/subscript target: stored away
                    if not _sanctioned(scope, names[0], node):
                        yield (node.value,
                               f"shared-memory acquisition {names[0]!r} may "
                               "leak its segment: use a with-block, a "
                               "try/finally reaching close()/unlink(), or "
                               "transfer ownership")
                elif (isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Call)
                      and _is_acquisition(node.value)):
                    yield (node.value,
                           "shared-memory acquisition is discarded without "
                           "a handle to close()/unlink() it")
