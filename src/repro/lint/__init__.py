"""repro-lint: project-specific static analysis for the repro codebase.

The rules encode invariants the codebase already relies on — flat-array
mmap discipline, non-blocking async serving, int64 key promotion, backend
dispatch parity, and worker-error visibility — so they are machine-checked
on every change instead of being rediscovered one incident at a time (see
docs/STATIC_ANALYSIS.md).

Since PR 10 the linter also sees the *whole project* at once: a
:class:`~repro.lint.project.Project` parses every module a single time,
builds an import graph, a symbol table, and an approximate call graph,
and exposes per-function summaries that interprocedural rules (RL007
dtype flow, RL009 backend-contract drift) query.

Pure stdlib (``ast`` + ``tokenize``); no runtime dependencies.
"""

from repro.lint.engine import lint_modules, lint_paths, lint_source, parse_module
from repro.lint.project import Project
from repro.lint.registry import (
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    get_rule,
    register,
)
from repro.lint.summaries import FunctionSummary
from repro.lint import rules as _rules  # noqa: F401  (registers built-in rules)

__all__ = [
    "FunctionSummary",
    "Project",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "parse_module",
    "register",
]
