"""``repro-lint`` console entry point.

Exit codes: 0 clean, 1 violations found, 2 usage/IO errors — so CI and
pre-commit can gate on it directly.  ``--format json`` swaps the human
output for a machine-readable list.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.lint.engine import lint_paths
from repro.lint.output import render_json, render_text
from repro.lint.registry import all_rules, select_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("project-specific static analysis: flat-array mmap "
                     "discipline, shm lifecycle, async serving, int64 "
                     "promotion, backend parity, worker-error visibility, "
                     "plus whole-project dtype-flow, shard-race, and "
                     "backend-contract checking"))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", metavar="RULE[,RULE]",
                        help="run only these rules (codes or names)")
    parser.add_argument("--ignore", metavar="RULE[,RULE]",
                        help="skip these rules (codes or names)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def _split(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.description}")
        return 0
    try:
        rules = select_rules(_split(args.select), _split(args.ignore))
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2
    violations, errors = lint_paths(args.paths, rules=rules)
    if args.fmt == "json":
        print(render_json(violations))
    else:
        text = render_text(violations)
        if text:
            print(text)
    for error in errors:
        print(f"repro-lint: {error}", file=sys.stderr)
    if not args.quiet:
        noun = "violation" if len(violations) == 1 else "violations"
        print(f"repro-lint: {len(violations)} {noun} "
              f"({len(rules)} rules)", file=sys.stderr)
    if errors:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
