"""RL005 backend-parity.

``repro.backends`` is the single dispatch point that keeps the object,
CSR and disk engines interchangeable (and is where ``workers=``
resolution lives).  Calling an engine entry point directly from outside
the engine layers forks the API: the caller silently loses backend
selection and worker parity.  Public wrappers that do take ``backend=``
must also take ``workers=`` (and vice versa) so every entry point reads
the same.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.registry import Module, Rule, dotted_name, register

#: layers allowed to touch engines directly: the engines themselves and
#: the dispatch layer.  ``external/engine.py`` is the disk engine (the
#: ``backend="disk"`` implementation behind :mod:`repro.backends`) — the
#: rest of ``repro/external/`` routes through the dispatch layer like any
#: other caller.
_ENGINE_LAYERS = ("repro/core/", "repro/parallel/", "repro/backends.py",
                  "repro/external/engine.py", "repro/lint/")
#: scenario-variant modules: they *implement* their object-reference and
#: generic-kernel engines locally (so direct engine calls are allowed),
#: but they are dispatch surface — every public graph-first entry point
#: must accept ``backend=`` and ``workers=`` together.
_VARIANT_LAYERS = ("repro/kcore/variants.py", "repro/kcore/uncertain.py",
                   "repro/kcore/temporal.py")
_ENGINE_ENTRY_POINTS = {
    "nucleus_decomposition",
    "bulk_peel",
    "frontier_fnd",
    "generic_peel",
}


@register
class BackendParity(Rule):
    code = "RL005"
    name = "backend-parity"
    description = (
        "peel/decompose entry points route through repro.backends and "
        "accept backend=/workers= together.")

    def check(self, module: Module) -> Iterator[tuple[ast.AST, str]]:
        if module.relpath.startswith(_ENGINE_LAYERS):
            # the engines themselves and the dispatch layer: workers-only
            # signatures (bulk_peel) are the implementation, not the
            # public surface
            return
        variant_layer = module.relpath.startswith(_VARIANT_LAYERS)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if variant_layer:
                    # variant modules house their own engines; their
                    # kernel/reference calls are the implementation
                    continue
                callee = dotted_name(node.func).rsplit(".", 1)[-1]
                if callee in _ENGINE_ENTRY_POINTS:
                    yield (node,
                           f"direct call to engine entry point {callee}(); "
                           "route through repro.backends (decompose / "
                           "core_peel / ...) so backend= and workers= "
                           "stay uniform")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                params = {arg.arg for arg in
                          [*node.args.posonlyargs, *node.args.args,
                           *node.args.kwonlyargs]}
                positional = [*node.args.posonlyargs, *node.args.args]
                if (variant_layer and positional
                        and positional[0].arg == "graph"
                        and not {"backend", "workers"} <= params):
                    yield (node,
                           f"variant entry point {node.name}() must accept "
                           "backend= and workers= together; the variant "
                           "modules are dispatch surface (route through "
                           "repro.backends)")
                    continue
                if ("backend" in params) != ("workers" in params):
                    missing = "workers" if "backend" in params else "backend"
                    yield (node,
                           f"public entry point {node.name}() takes "
                           f"{'backend' if missing == 'workers' else 'workers'}= "
                           f"but not {missing}=; backend-aware entry points "
                           "accept both so callers can select an engine "
                           "and a worker count uniformly")
