"""Whole-project analysis: import graph, symbol table, call graph.

A :class:`Project` is built once per lint run from the already-parsed
:class:`~repro.lint.registry.Module` objects.  It derives, purely from
the ASTs:

* a **module table** keyed by dotted module name (``repro/parallel/bulk.py``
  becomes ``repro.parallel.bulk``; ``__init__.py`` names its package);
* an **import graph** — for every module, the set of dotted module names
  it imports anywhere (top level or function-scoped);
* a **symbol table** — every top-level function, class, and assignment,
  plus the re-export chains created by ``from x import y`` and by a
  package's lazy ``_EXPORTS`` table;
* an approximate **call graph** — each function's calls resolved through
  its import aliases to project-defined functions, recorded on the
  function's :class:`~repro.lint.summaries.FunctionSummary`.

Construction is total: any parseable module produces a Project; unknown
constructs simply contribute nothing.  Project rules
(:class:`~repro.lint.registry.ProjectRule`) receive the instance and
query it — they never re-parse.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.registry import Module
from repro.lint.summaries import FunctionSummary, summarize_function

__all__ = ["Project", "module_name"]


def module_name(relpath: str) -> str:
    """Dotted module name for a package-relative posix path."""
    name = relpath[:-3] if relpath.endswith(".py") else relpath
    name = name.strip("/").replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name or relpath


#: alias table entry: ("module", dotted_module) for ``import x``-style
#: bindings, ("symbol", source_module, original_name) for ``from x import y``
_Alias = tuple


def _lazy_exports(package: str, stmt: ast.Assign) -> dict[str, _Alias]:
    """The re-exports of a package that resolves its names lazily: each
    ``"name": "module"`` of ``_EXPORTS = {...}`` (module relative to the
    package) is what ``from package.module import name`` would bind."""
    table = stmt.value
    if not (isinstance(table, ast.Dict) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in stmt.targets)):
        return {}
    return {key.value: ("symbol", f"{package}.{value.value}", key.value)
            for key, value in zip(table.keys, table.values, strict=True)
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)}


class Project:
    """Parsed-once view of every module handed to a lint run."""

    def __init__(self, modules: Iterable[Module]):
        #: dotted module name -> Module
        self.modules: dict[str, Module] = {}
        self.by_relpath: dict[str, Module] = {}
        #: dotted module name -> dotted module names it imports
        self.imports: dict[str, set[str]] = {}
        #: "module.symbol" -> defining top-level node
        self.symbols: dict[str, ast.AST] = {}
        #: qualname -> summary (module.func and module.Class.method)
        self.functions: dict[str, FunctionSummary] = {}
        self._defined: dict[str, dict[str, ast.AST]] = {}
        self._aliases: dict[str, dict[str, _Alias]] = {}

        for module in modules:
            name = module_name(module.relpath)
            # first writer wins on pathological duplicate relpaths
            self.modules.setdefault(name, module)
            self.by_relpath.setdefault(module.relpath, module)

        for name, module in self.modules.items():
            self._index_module(name, module)
        for name, module in self.modules.items():
            self._collect_imports(name, module)
        for summary in list(self.functions.values()):
            self._resolve_calls(summary)
        self._close_returns_int32()

    # ------------------------------------------------------------ indexing

    def _index_module(self, name: str, module: Module) -> None:
        defined: dict[str, ast.AST] = {}
        aliases: dict[str, _Alias] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[stmt.name] = stmt
                qual = f"{name}.{stmt.name}"
                self.functions[qual] = summarize_function(stmt, qual, name)
            elif isinstance(stmt, ast.ClassDef):
                defined[stmt.name] = stmt
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qual = f"{name}.{stmt.name}.{item.name}"
                        self.functions[qual] = summarize_function(
                            item, qual, name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = stmt
                if module.relpath.endswith("__init__.py"):
                    aliases.update(_lazy_exports(name, stmt))
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    defined[stmt.target.id] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    aliases[local] = ("module", target)
            elif isinstance(stmt, ast.ImportFrom):
                source = self._absolute_source(name, stmt)
                if source is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = ("symbol", source, alias.name)
        self._defined[name] = defined
        self._aliases[name] = aliases
        for symbol, node in defined.items():
            self.symbols[f"{name}.{symbol}"] = node

    @staticmethod
    def _absolute_source(modname: str, stmt: ast.ImportFrom) -> str | None:
        """Dotted source module of a ``from ... import`` statement."""
        if stmt.level == 0:
            return stmt.module
        parts = modname.split(".")
        # ``level`` strips that many trailing components relative to the
        # *package*; a module is one level deeper than its package
        base = parts[:max(len(parts) - stmt.level, 0)]
        if stmt.module:
            base.append(stmt.module)
        return ".".join(base) or None

    def _collect_imports(self, name: str, module: Module) -> None:
        edges: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute_source(name, node)
                if source is None:
                    continue
                edges.add(source)
                for alias in node.names:
                    # ``from pkg import submodule`` is a module edge too
                    child = f"{source}.{alias.name}"
                    if child in self.modules:
                        edges.add(child)
        self.imports[name] = edges

    # ----------------------------------------------------------- resolution

    def resolve_module(self, dotted: str) -> Module | None:
        return self.modules.get(dotted)

    def has_symbol(self, dotted_module: str, symbol: str) -> bool:
        """True when ``from dotted_module import symbol`` would succeed,
        as far as the project can tell (defined name, resolvable
        re-export, or sibling submodule)."""
        if self.resolve_symbol(dotted_module, symbol) is not None:
            return True
        return f"{dotted_module}.{symbol}" in self.modules

    def resolve_symbol(self, dotted_module: str, symbol: str,
                       _seen: frozenset[tuple[str, str]] = frozenset(),
                       ) -> tuple[str, ast.AST] | None:
        """Follow ``from x import y`` chains to ``(defining_module, node)``."""
        key = (dotted_module, symbol)
        if key in _seen or dotted_module not in self.modules:
            return None
        node = self._defined.get(dotted_module, {}).get(symbol)
        if node is not None:
            return dotted_module, node
        alias = self._aliases.get(dotted_module, {}).get(symbol)
        if alias is not None and alias[0] == "symbol":
            return self.resolve_symbol(alias[1], alias[2], _seen | {key})
        return None

    def module_symbols(self, dotted_module: str) -> set[str]:
        """Importable names of a project module: defined + re-exported
        symbols plus submodules present in the project."""
        names = set(self._defined.get(dotted_module, {}))
        names.update(self._aliases.get(dotted_module, {}))
        prefix = dotted_module + "."
        for other in self.modules:
            if other.startswith(prefix):
                names.add(other[len(prefix):].split(".")[0])
        return names

    def _function_aliases(self, summary: FunctionSummary) -> dict[str, _Alias]:
        """Module-level aliases overlaid with the function's own imports."""
        local = dict(self._aliases.get(summary.module, {}))
        for node in ast.walk(summary.node):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local_name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    local[local_name] = ("module", target)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute_source(summary.module, node)
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local[alias.asname or alias.name] = \
                        ("symbol", source, alias.name)
        return local

    def _lookup_callee(self, modname: str, dotted: str,
                       aliases: dict[str, _Alias]) -> str | None:
        """Resolve a dotted callee text to a project function qualname."""
        parts = dotted.split(".")
        head = parts[0]
        alias = aliases.get(head)
        if alias is not None:
            if alias[0] == "module":
                target_mod = ".".join([alias[1], *parts[1:-1]])
                if len(parts) >= 2:
                    qual = f"{target_mod}.{parts[-1]}"
                    if qual in self.functions:
                        return qual
                return None
            resolved = self.resolve_symbol(alias[1], alias[2])
            if resolved is None:
                # ``from pkg import submodule`` binds a module object
                submodule = f"{alias[1]}.{alias[2]}"
                if submodule in self.modules and len(parts) >= 2:
                    qual = ".".join([submodule, *parts[1:]])
                    return qual if qual in self.functions else None
                return None
            defmod, node = resolved
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and len(parts) == 1:
                return f"{defmod}.{node.name}"
            if isinstance(node, ast.ClassDef) and len(parts) == 2:
                qual = f"{defmod}.{node.name}.{parts[1]}"
                if qual in self.functions:
                    return qual
            return None
        if len(parts) == 1:
            qual = f"{modname}.{head}"
            return qual if qual in self.functions else None
        if len(parts) == 2:
            qual = f"{modname}.{head}.{parts[1]}"
            if qual in self.functions:
                return qual
        return None

    def _resolve_calls(self, summary: FunctionSummary) -> None:
        aliases = self._function_aliases(summary)
        for dotted, call in summary.calls:
            qual = self._lookup_callee(summary.module, dotted, aliases)
            if qual is not None and qual != summary.qualname:
                summary.call_targets[id(call)] = qual

    def callees(self, summary: FunctionSummary) -> Iterator[FunctionSummary]:
        seen: set[str] = set()
        for qual in summary.call_targets.values():
            if qual not in seen:
                seen.add(qual)
                yield self.functions[qual]

    def _close_returns_int32(self) -> None:
        """Fixed point: a function returning an int32-returning callee's
        result returns int32 itself."""
        resolved_returns: dict[str, list[str]] = {}
        for qual, summary in self.functions.items():
            aliases = self._function_aliases(summary)
            targets = []
            for dotted in summary.return_callees:
                target = self._lookup_callee(summary.module, dotted, aliases)
                if target is not None and target != qual:
                    targets.append(target)
            resolved_returns[qual] = targets
        changed = True
        while changed:
            changed = False
            for qual, summary in self.functions.items():
                if summary.returns_int32:
                    continue
                if any(self.functions[t].returns_int32
                       for t in resolved_returns[qual]):
                    summary.returns_int32 = True
                    changed = True
