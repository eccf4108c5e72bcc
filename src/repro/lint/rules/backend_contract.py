"""RL009 backend-contract-conformance.

The backend dispatch layer (``backends.py``) resolves each op to an
engine implementation with function-scoped lazy imports, and the public
entry points thread ``backend=`` / ``workers=`` / variant kwargs through
plain-function facades.  Three drift classes survive the per-file rules
and today only surface at runtime:

* a **lazy import** naming a symbol its source module no longer defines
  — dead until that dispatch branch runs, then ``ImportError``;
* a **backend string literal** outside ``backends.BACKENDS`` — a typo'd
  or retired ``backend="CSR"`` is a dead branch or a rejected call;
* a **keyword argument** no longer accepted by the (project-resolved)
  callee — a runtime ``TypeError``, or with ``**kwargs`` facades a
  silently ignored option.

All three are checked against the project symbol table / call graph.
The ``BACKENDS`` tuple is read from the linted project's
``repro/backends.py`` when present, so the contract follows the code;
single-file fixtures fall back to the shipped backend names.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.registry import Module, ProjectRule, dotted_name, register

_DEFAULT_BACKENDS = ("object", "csr", "disk")


def _project_backends(project) -> tuple[str, ...]:
    resolved = project.resolve_symbol("repro.backends", "BACKENDS")
    if resolved is not None:
        _, node = resolved
        value = getattr(node, "value", None)
        if isinstance(value, (ast.Tuple, ast.List)):
            names = [element.value for element in value.elts
                     if isinstance(element, ast.Constant)
                     and isinstance(element.value, str)]
            if names:
                return tuple(names)
    return _DEFAULT_BACKENDS


def _try_guarded(tree: ast.AST) -> set[int]:
    """ids of ImportFrom nodes inside any ``try`` (optional-dep guards)."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for child in ast.walk(node):
                if isinstance(child, ast.ImportFrom):
                    guarded.add(id(child))
    return guarded


@register
class BackendContractConformance(ProjectRule):
    code = "RL009"
    name = "backend-contract"
    description = (
        "lazy imports, backend string literals, and facade kwargs must "
        "match the project's dispatch contract (backends.BACKENDS and "
        "the resolved callee signatures).")

    def check_project(self, project,
                      ) -> Iterator[tuple[Module, ast.AST, str]]:
        backends = _project_backends(project)
        for name in sorted(project.modules):
            module = project.modules[name]
            yield from self._check_lazy_imports(project, name, module)
            yield from self._check_backend_literals(module, backends)
        for summary in project.functions.values():
            module = project.modules.get(summary.module)
            if module is None:
                continue
            yield from self._check_call_kwargs(project, module, summary)

    # ------------------------------------------------- lazy import drift

    def _check_lazy_imports(self, project, modname: str, module: Module,
                            ) -> Iterator[tuple[Module, ast.AST, str]]:
        guarded = _try_guarded(module.tree)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.ImportFrom) or node.level != 0:
                    continue
                if id(node) in guarded or node.module is None:
                    continue
                if project.resolve_module(node.module) is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if not project.has_symbol(node.module, alias.name):
                        yield (module, node,
                               f"lazy import cannot resolve: module "
                               f"{node.module!r} defines no "
                               f"{alias.name!r}; this dispatch branch "
                               "raises ImportError at runtime")

    # --------------------------------------------- backend literal drift

    def _check_backend_literals(self, module: Module,
                                backends: tuple[str, ...],
                                ) -> Iterator[tuple[Module, ast.AST, str]]:
        known = ", ".join(backends)

        def bad(node: ast.expr) -> bool:
            return (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value not in backends)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "backend" and bad(kw.value):
                        yield (module, kw.value,
                               f"backend={kw.value.value!r} is not in "
                               f"backends.BACKENDS ({known})")
            elif isinstance(node, ast.Compare):
                if dotted_name(node.left).rsplit(".", 1)[-1] != "backend":
                    continue
                for op, comparator in zip(node.ops, node.comparators,
                                          strict=True):
                    if isinstance(op, (ast.Eq, ast.NotEq)) and bad(comparator):
                        yield (module, comparator,
                               f"comparison against backend "
                               f"{comparator.value!r} is dead: not in "
                               f"backends.BACKENDS ({known})")
                    elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                            comparator, (ast.Tuple, ast.List, ast.Set)):
                        for element in comparator.elts:
                            if bad(element):
                                yield (module, element,
                                       f"membership test includes backend "
                                       f"{element.value!r}: not in "
                                       f"backends.BACKENDS ({known})")

    # ------------------------------------------------------- kwarg drift

    def _check_call_kwargs(self, project, module: Module, summary,
                           ) -> Iterator[tuple[Module, ast.AST, str]]:
        for dotted, call in summary.calls:
            qual = summary.call_targets.get(id(call))
            if qual is None:
                continue
            callee = project.functions[qual]
            if callee.decorated or callee.has_kwargs:
                continue
            if any(kw.arg is None for kw in call.keywords):
                continue  # **expansion: signature unknowable statically
            for kw in call.keywords:
                if not callee.accepts_keyword(kw.arg):
                    yield (module, call,
                           f"call to {qual}() passes keyword "
                           f"{kw.arg!r} its signature does not accept "
                           "(runtime TypeError)")
