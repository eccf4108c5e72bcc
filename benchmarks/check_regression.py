"""Benchmark regression gate for the CSR hot paths.

Runs the quick backend smoke (``bench_backends.run_smoke``) — the direct
peels (``kcore``, ``truss23``, ``nucleus34``) *and* the full FND hierarchy
constructions (``fnd12``, ``fnd23``) — and compares it against the
committed ``BENCH_baseline.json``.  CI machines differ in raw speed, so
times are first rescaled by the ratio of the two runs' pure-Python
calibration loops; the gate then fails when

* any key recorded in the baseline (a workload, or a field inside one) is
  missing from the fresh run — a silent skip would let a renamed or
  dropped workload evade the gate forever,
* the CSR run of any workload is more than ``--threshold`` (default 1.5x)
  slower than the rescaled baseline, or
* the CSR backend has lost its edge over the object backend (speedup below
  ``--min-speedup``, default 1.5x — the committed baseline records ~2-4x).

The fresh run also records the query-latency section
(``bench_backends.run_query_smoke``): when the baseline carries one, the
flat-index batch speedup over the legacy per-vertex loop must stay at or
above ``--min-query-speedup`` (default 10x; ratios are dimensionless so no
rescale applies), and loading the persisted ``.npz`` index may cost at most
``--max-load-ratio`` (default 1x) of recomputing the decomposition.

The fresh run also records the scenario-variant section
(``bench_backends.run_variant_smoke``): the weighted, uncertain and
temporal-sweep decompositions on the object reference engine vs the
generic flat peel kernel (``repro.core.generic_peel``), with elementwise
λ parity asserted inside the smoke.  When the baseline carries the
section, every workload it records must be present and each ``gated``
row's object-over-kernel speedup must stay at or above
``--min-variant-speedup`` (default 2x; dimensionless, so no rescale).

The fresh run also records the disk-backend section
(``bench_backends.run_disk_smoke``): the out-of-core external-sort build
plus full FND decompositions on the windowed disk engine at
(1,2)/(2,3)/(3,4), with λ and canonical-nuclei parity against the CSR
engine asserted inside the smoke.  When the baseline carries the
section, each workload's ``disk_seconds`` may take at most
``--threshold ×`` its calibration-rescaled baseline value — the rule the
CSR rows follow.  The disk engine is gated on its own time, not on its
``disk_vs_csr`` ratio: a faster CSR engine would inflate the ratio
while the disk code stood still.  The ratio is still recorded and
printed.  An engine change that silently turns the windowed reads into
full materialisation shows up as a speed-up, which the out-of-core CI
job (RLIMIT_AS) catches instead.

λ parity between the backends (and condensed-hierarchy parity for the FND
workloads) is asserted inside the smoke run itself.  ``--update`` also
records the worker-scaling section (``bench_backends.run_parallel_smoke``)
in the baseline; in the default gate those numbers are only checked for
presence — the CI ``parallel-smoke`` job gates them directly against the
sequential time, which is machine-independent.

``--scaling PATH`` is a second gate mode for the CI ``scaling-bench``
job: instead of re-running anything it reads a freshly recorded scaling
JSON (the ``--parallel-only --json`` output of ``bench_backends.py``)
and compares its per-workload, per-worker-count ``vs_sequential``
ratios against the ``--baseline``'s committed ``parallel`` section.
Ratios are dimensionless, so the comparison is meaningful across
machines of different raw speed; a workload or worker count recorded in
the baseline but missing from the fresh run fails, as does any ratio
above ``--threshold ×`` its baseline value.

``--fold-scaling PATH`` folds a recorded scaling JSON (the weekly
``scaling-bench`` artifact from the multi-core hosted runner) into the
committed baseline's ``parallel`` section without re-running anything
else — the one-command path for replacing the 1-CPU dev-container
scaling record with real multi-core numbers.  The fold refuses runs
that did not assert hierarchy parity or that dropped workloads the
baseline records.

Usage::

    python benchmarks/check_regression.py             # gate against baseline
    python benchmarks/check_regression.py --update    # refresh the baseline
    python benchmarks/check_regression.py --scaling BENCH_scaling.json
    python benchmarks/check_regression.py --fold-scaling BENCH_scaling.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_backends import (
    run_disk_smoke, run_lint_smoke, run_parallel_smoke, run_query_smoke,
    run_smoke, run_variant_smoke)

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: calibration ratios outside this band mean the machines are too different
#: for absolute-time comparison to be meaningful; the gate then only checks
#: the object-vs-CSR speedup, which is machine-independent.
_SCALE_BAND = (0.2, 5.0)

#: per-workload fields the gate reads; all must exist in a fresh run
_ROW_KEYS = ("csr_seconds", "object_seconds", "speedup")

#: per-workload fields of the query-latency section; all must exist in a
#: fresh run (the two ratio fields are the gated ones)
_QUERY_ROW_KEYS = ("legacy_seconds", "flat_seconds", "batch_speedup",
                   "load_seconds", "decompose_seconds", "load_vs_recompute")

#: per-workload fields of the disk-backend section; all must exist in a
#: fresh run (the rescaled disk time is the gated one)
_DISK_ROW_KEYS = ("build_seconds", "disk_seconds", "csr_seconds",
                  "disk_vs_csr")

#: per-workload fields of the scenario-variant section; all must exist in
#: a fresh run (the dimensionless kernel speedup is the gated one)
_VARIANT_ROW_KEYS = ("object_seconds", "kernel_seconds", "speedup")

#: fields of the lint-runtime section; all must exist in a fresh run (the
#: dimensionless project-over-per-file overhead is the gated one)
_LINT_KEYS = ("rules", "findings", "full_seconds", "per_file_seconds",
              "project_overhead")


def _calibration_scale(fresh: dict, baseline: dict) -> float | None:
    """Fresh-over-baseline calibration ratio, or ``None`` when the
    machines differ too much for absolute times to compare."""
    scale = fresh["calibration_seconds"] / baseline["calibration_seconds"]
    return scale if _SCALE_BAND[0] <= scale <= _SCALE_BAND[1] else None


def check(fresh: dict, baseline: dict, threshold: float,
          min_speedup: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    for key in ("calibration_seconds", "workloads"):
        if key not in fresh:
            failures.append(
                f"{key}: baseline key missing from fresh run — the smoke "
                f"run no longer produces it")
    if failures:
        return failures
    scale = _calibration_scale(fresh, baseline)
    comparable = scale is not None
    if not comparable:
        print(f"note: calibration ratio outside {_SCALE_BAND}; "
              f"skipping absolute-time comparison")
    for name, base_row in baseline["workloads"].items():
        row = fresh["workloads"].get(name)
        if row is None:
            failures.append(
                f"{name}: baseline workload missing from fresh run — "
                f"renamed or dropped workloads must update the baseline "
                f"explicitly (--update)")
            continue
        missing = [key for key in _ROW_KEYS
                   if key in base_row and key not in row]
        if missing:
            failures.append(
                f"{name}: baseline field(s) {', '.join(missing)} missing "
                f"from fresh run")
            continue
        if comparable:
            budget = base_row["csr_seconds"] * scale * threshold
            if row["csr_seconds"] > budget:
                failures.append(
                    f"{name}: CSR run took {row['csr_seconds']:.3f}s, over "
                    f"budget {budget:.3f}s ({threshold}x rescaled baseline "
                    f"{base_row['csr_seconds']:.3f}s, scale {scale:.2f})")
        if row["speedup"] < min_speedup:
            failures.append(
                f"{name}: CSR speedup {row['speedup']:.2f}x fell below "
                f"{min_speedup}x (baseline recorded {base_row['speedup']:.2f}x)")
    if "parallel" in baseline and "parallel" not in fresh:
        failures.append(
            "parallel: baseline records a worker-scaling section but the "
            "fresh run has none (run with the parallel smoke, or --update)")
    return failures


def check_queries(fresh: dict, baseline: dict, min_batch_speedup: float,
                  max_load_ratio: float) -> list[str]:
    """Failure messages for the query-latency gate (empty = pass).

    The gated quantities are dimensionless, so no calibration rescale:
    the flat batch path must answer the recorded vertex→community
    workload at least ``min_batch_speedup ×`` faster than the per-vertex
    legacy loop, and loading the persisted index must cost at most
    ``max_load_ratio ×`` a fresh decomposition.  Answer parity is
    asserted inside the smoke run itself.
    """
    base = baseline.get("queries")
    if base is None:
        return []
    fresh_queries = fresh.get("queries")
    if fresh_queries is None:
        return ["queries: baseline records a query-latency section but the "
                "fresh run has none — the smoke run no longer produces it"]
    failures: list[str] = []
    if fresh_queries.get("parity") != "ok":
        failures.append(
            "queries: the fresh run did not assert flat-vs-legacy answer "
            "parity")
    for name, base_row in base["workloads"].items():
        row = fresh_queries.get("workloads", {}).get(name)
        if row is None:
            failures.append(
                f"queries/{name}: baseline workload missing from fresh run "
                f"— renamed or dropped workloads must update the baseline "
                f"explicitly (--update)")
            continue
        missing = [key for key in _QUERY_ROW_KEYS
                   if key in base_row and key not in row]
        if missing:
            failures.append(
                f"queries/{name}: baseline field(s) {', '.join(missing)} "
                f"missing from fresh run")
            continue
        if row["batch_speedup"] < min_batch_speedup:
            failures.append(
                f"queries/{name}: flat batch speedup "
                f"{row['batch_speedup']:.1f}x fell below "
                f"{min_batch_speedup}x the per-vertex legacy loop "
                f"(baseline recorded {base_row['batch_speedup']:.1f}x)")
        if row["load_vs_recompute"] > max_load_ratio:
            failures.append(
                f"queries/{name}: loading the persisted index took "
                f"{row['load_vs_recompute']:.2f}x a fresh decomposition "
                f"(gate: {max_load_ratio}x; baseline recorded "
                f"{base_row['load_vs_recompute']:.2f}x)")
    return failures


def check_disk(fresh: dict, baseline: dict, threshold: float) -> list[str]:
    """Failure messages for the disk-backend gate (empty = pass).

    The gated quantity is each workload's ``disk_seconds``, rescaled by
    the calibration ratio exactly like the CSR rows of :func:`check`
    (skipped when the machines are not comparable).  λ and
    canonical-nuclei parity against the CSR engine is asserted inside
    the smoke run itself; memory-boundedness is the out-of-core CI
    job's claim, not this gate's.
    """
    base = baseline.get("disk")
    if base is None:
        return []
    fresh_disk = fresh.get("disk")
    if fresh_disk is None:
        return ["disk: baseline records a disk-backend section but the "
                "fresh run has none — the smoke run no longer produces it"]
    failures: list[str] = []
    scale = _calibration_scale(fresh, baseline)
    if fresh_disk.get("parity") != "ok":
        failures.append(
            "disk: the fresh run did not assert disk-vs-CSR lambda and "
            "canonical-nuclei parity")
    for name, base_row in base["workloads"].items():
        row = fresh_disk.get("workloads", {}).get(name)
        if row is None:
            failures.append(
                f"disk/{name}: baseline workload missing from fresh run — "
                f"renamed or dropped workloads must update the baseline "
                f"explicitly (--update)")
            continue
        missing = [key for key in _DISK_ROW_KEYS
                   if key in base_row and key not in row]
        if missing:
            failures.append(
                f"disk/{name}: baseline field(s) {', '.join(missing)} "
                f"missing from fresh run")
            continue
        if scale is None:
            continue
        budget = base_row["disk_seconds"] * scale * threshold
        if row["disk_seconds"] > budget:
            failures.append(
                f"disk/{name}: disk run took {row['disk_seconds']:.3f}s, "
                f"over budget {budget:.3f}s ({threshold}x rescaled "
                f"baseline {base_row['disk_seconds']:.3f}s, "
                f"scale {scale:.2f})")
    return failures


def check_variants(fresh: dict, baseline: dict,
                   min_variant_speedup: float) -> list[str]:
    """Failure messages for the scenario-variant gate (empty = pass).

    The gated quantity is each ``gated`` workload's object-over-kernel
    speedup — both timings come from the same fresh run, so the ratio is
    dimensionless and no calibration rescale applies.  Elementwise λ
    parity between the object reference and the generic-peel kernel is
    asserted inside the smoke run itself.  Ungated rows (weighted — the
    object reference is already a tight heap peel) are checked for
    presence only.
    """
    base = baseline.get("variants")
    if base is None:
        return []
    fresh_variants = fresh.get("variants")
    if fresh_variants is None:
        return ["variants: baseline records a scenario-variant section but "
                "the fresh run has none — the smoke run no longer produces "
                "it"]
    failures: list[str] = []
    if fresh_variants.get("parity") != "ok":
        failures.append(
            "variants: the fresh run did not assert object-vs-kernel "
            "lambda parity")
    for name, base_row in base["workloads"].items():
        row = fresh_variants.get("workloads", {}).get(name)
        if row is None:
            failures.append(
                f"variants/{name}: baseline workload missing from fresh run "
                f"— renamed or dropped workloads must update the baseline "
                f"explicitly (--update)")
            continue
        missing = [key for key in _VARIANT_ROW_KEYS
                   if key in base_row and key not in row]
        if missing:
            failures.append(
                f"variants/{name}: baseline field(s) {', '.join(missing)} "
                f"missing from fresh run")
            continue
        if base_row.get("gated") and row["speedup"] < min_variant_speedup:
            failures.append(
                f"variants/{name}: generic-kernel speedup "
                f"{row['speedup']:.2f}x fell below {min_variant_speedup}x "
                f"the object reference (baseline recorded "
                f"{base_row['speedup']:.2f}x)")
    return failures


def check_lint(fresh: dict, baseline: dict,
               max_overhead: float) -> list[str]:
    """Failure messages for the lint-runtime gate (empty = pass).

    The gated quantity is the whole-project pass's wall time over the
    per-file rules alone — both timings come from the same fresh run,
    so the ratio is dimensionless and no calibration rescale applies.
    The budget keeps the PR 10 project layer (parse-once + import
    graph + summaries + call resolution) from silently turning the CI
    lint gate into a multiple of the per-file cost.  Cleanliness of the
    shipped tree is asserted inside the smoke run itself.
    """
    base = baseline.get("lint")
    if base is None:
        return []
    fresh_lint = fresh.get("lint")
    if fresh_lint is None:
        return ["lint: baseline records a lint-runtime section but the "
                "fresh run has none — the smoke run no longer produces it"]
    failures: list[str] = []
    missing = [key for key in _LINT_KEYS
               if key in base and key not in fresh_lint]
    if missing:
        return [f"lint: baseline field(s) {', '.join(missing)} missing "
                f"from fresh run"]
    if fresh_lint["rules"] < base["rules"]:
        failures.append(
            f"lint: fresh run registered {fresh_lint['rules']} rules, "
            f"baseline records {base['rules']} — rules must not be "
            f"dropped silently (--update after intentional removals)")
    if fresh_lint["project_overhead"] > max_overhead:
        failures.append(
            f"lint: the whole-project pass costs "
            f"{fresh_lint['project_overhead']:.2f}x the per-file rules, "
            f"over the {max_overhead}x budget (baseline recorded "
            f"{base['project_overhead']:.2f}x)")
    return failures


def check_scaling(fresh: dict, baseline: dict,
                  threshold: float) -> list[str]:
    """Failure messages for the worker-scaling gate (empty = pass).

    ``fresh`` is a recorded scaling run (either the bare
    ``run_parallel_smoke`` dict or a results file wrapping it under
    ``"parallel"``); the reference is the committed baseline's
    ``parallel`` section.  Every baseline workload and worker count must
    be present, parity must have been asserted, and each
    ``vs_sequential`` ratio may regress at most ``threshold ×``.
    """
    base = baseline.get("parallel")
    if base is None:
        return ["parallel: the baseline has no worker-scaling section "
                "(record one with --update)"]
    fresh = fresh.get("parallel", fresh)
    failures: list[str] = []
    if fresh.get("hierarchy_parity") != "ok":
        failures.append(
            "hierarchy_parity: the fresh scaling run did not assert "
            "condensed-hierarchy parity")
    workloads = fresh.get("workloads", {})
    for name, base_row in base["workloads"].items():
        row = workloads.get(name)
        if row is None:
            failures.append(
                f"{name}: baseline scaling workload missing from the fresh "
                f"run — renamed or dropped workloads must update the "
                f"baseline explicitly (--update)")
            continue
        for count, base_entry in base_row["workers"].items():
            entry = row.get("workers", {}).get(count)
            if entry is None:
                failures.append(
                    f"{name}: worker count {count} missing from the fresh "
                    f"scaling run")
                continue
            budget = base_entry["vs_sequential"] * threshold
            if entry["vs_sequential"] > budget:
                failures.append(
                    f"{name} w{count}: {entry['vs_sequential']:.2f}x the "
                    f"sequential time, over budget {budget:.2f}x "
                    f"({threshold}x baseline "
                    f"{base_entry['vs_sequential']:.2f}x)")
    return failures


def fold_scaling(scaling_path: Path, baseline_path: Path) -> int:
    """Replace the baseline's ``parallel`` section with a recorded run.

    The intended source is the weekly ``scaling-bench`` artifact from
    the multi-core hosted runner — the committed dev-container numbers
    measure serialised shards, so a real artifact strictly improves the
    record.  Refuses a run that did not assert hierarchy parity, has no
    workloads, or silently dropped workloads the current baseline
    records (a shrunken record must be an explicit decision, not a
    fold side effect).
    """
    with open(scaling_path) as handle:
        recorded = json.load(handle)
    section = recorded.get("parallel", recorded)
    if section.get("hierarchy_parity") != "ok":
        print("error: the scaling run did not assert condensed-hierarchy "
              "parity; refusing to fold it", file=sys.stderr)
        return 2
    if not section.get("workloads"):
        print("error: the scaling run records no workloads", file=sys.stderr)
        return 2
    if not baseline_path.exists():
        print(f"error: no baseline at {baseline_path}; record one with "
              f"--update first", file=sys.stderr)
        return 2
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    previous = baseline.get("parallel", {}).get("workloads", {})
    dropped = sorted(set(previous) - set(section["workloads"]))
    if dropped:
        print(f"error: scaling run drops baseline workload(s) "
              f"{', '.join(dropped)}; shrink the baseline with --update "
              f"instead", file=sys.stderr)
        return 2
    baseline["parallel"] = section
    with open(baseline_path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"folded {scaling_path} (cpu_count="
          f"{section.get('cpu_count')}, workers="
          f"{section.get('workers')}) into {baseline_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a fresh benchmark smoke run against the "
                    "committed baseline")
    parser.add_argument("--update", action="store_true",
                        help="write a fresh baseline instead of checking")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="max allowed slowdown of the CSR peel vs the "
                             "rescaled baseline (default 1.5)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="min required CSR-over-object speedup "
                             "(default 1.5)")
    parser.add_argument("--min-query-speedup", type=float, default=10.0,
                        help="min required flat-batch-over-legacy query "
                             "speedup (default 10)")
    parser.add_argument("--max-load-ratio", type=float, default=1.0,
                        help="max allowed persisted-index load time as a "
                             "fraction of a fresh decomposition (default 1)")
    parser.add_argument("--min-variant-speedup", type=float, default=2.0,
                        help="min required generic-kernel speedup over the "
                             "object reference on gated scenario-variant "
                             "rows (default 2)")
    parser.add_argument("--max-lint-overhead", type=float, default=3.0,
                        help="max allowed cost of the whole-project "
                             "repro-lint pass as a multiple of the per-file "
                             "rules alone (default 3)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per workload (best-of); use "
                             "more when recording a baseline")
    parser.add_argument("--scaling", type=Path, metavar="PATH", default=None,
                        help="gate a recorded worker-scaling JSON against "
                             "the baseline's parallel section instead of "
                             "re-running the smoke")
    parser.add_argument("--fold-scaling", type=Path, metavar="PATH",
                        default=None,
                        help="replace the baseline's parallel section with "
                             "a recorded scaling JSON (the multi-core "
                             "scaling-bench artifact) and rewrite the "
                             "baseline file")
    args = parser.parse_args(argv)

    if args.fold_scaling is not None:
        if args.update or args.scaling is not None:
            print("error: --fold-scaling is mutually exclusive with "
                  "--update and --scaling", file=sys.stderr)
            return 2
        return fold_scaling(args.fold_scaling, args.baseline)

    baseline = None
    if not args.update:
        if not args.baseline.exists():
            print(f"error: no baseline at {args.baseline}; run with --update",
                  file=sys.stderr)
            return 2
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    if args.scaling is not None:
        if args.update:
            print("error: --scaling and --update are mutually exclusive",
                  file=sys.stderr)
            return 2
        with open(args.scaling) as handle:
            fresh_scaling = json.load(handle)
        failures = check_scaling(fresh_scaling, baseline, args.threshold)
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print("worker-scaling regression gate: OK")
        return 0

    fresh = run_smoke("quick", repeats=args.repeats)
    for name, row in fresh["workloads"].items():
        print(f"{name:10s} object {row['object_seconds']:.3f}s  "
              f"csr {row['csr_seconds']:.3f}s  speedup {row['speedup']:.2f}x")
    fresh["queries"] = run_query_smoke("quick", repeats=args.repeats)
    for name, row in fresh["queries"]["workloads"].items():
        print(f"query/{name:10s} legacy {row['legacy_seconds']:.3f}s  "
              f"flat {row['flat_seconds'] * 1000:.1f}ms  "
              f"speedup {row['batch_speedup']:.0f}x  "
              f"load/recompute {row['load_vs_recompute']:.3f}")
    fresh["variants"] = run_variant_smoke("quick", repeats=args.repeats)
    for name, row in fresh["variants"]["workloads"].items():
        print(f"variant/{name:14s} object {row['object_seconds']:.3f}s  "
              f"kernel {row['kernel_seconds']:.3f}s  "
              f"speedup {row['speedup']:.2f}x"
              f"{'  [gated]' if row['gated'] else ''}")
    fresh["disk"] = run_disk_smoke("quick", repeats=args.repeats)
    for name, row in fresh["disk"]["workloads"].items():
        print(f"disk/{name:10s} build {row['build_seconds']:.3f}s  "
              f"disk {row['disk_seconds']:.3f}s  "
              f"csr {row['csr_seconds']:.3f}s  "
              f"ratio {row['disk_vs_csr']:.1f}x")
    fresh["lint"] = run_lint_smoke(repeats=args.repeats)
    lint = fresh["lint"]
    print(f"lint/src       full {lint['full_seconds']:.3f}s  "
          f"per-file {lint['per_file_seconds']:.3f}s  "
          f"project overhead {lint['project_overhead']:.2f}x")
    if args.update or (baseline is not None and "parallel" in baseline):
        # keep the worker-scaling section in lockstep with the baseline
        # (its λ/hierarchy parity asserts run as a side effect).  The
        # recorded baseline uses the full-size workloads — pool start-up
        # amortises there, so the numbers reflect the scaling story —
        # while gate runs only need the cheap quick-mode consistency pass.
        fresh["parallel"] = run_parallel_smoke(
            "full" if args.update else "quick", repeats=args.repeats)

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    failures = check(fresh, baseline, args.threshold, args.min_speedup)
    failures += check_queries(fresh, baseline, args.min_query_speedup,
                              args.max_load_ratio)
    failures += check_variants(fresh, baseline, args.min_variant_speedup)
    failures += check_disk(fresh, baseline, args.threshold)
    failures += check_lint(fresh, baseline, args.max_lint_overhead)
    if failures:
        for message in failures:
            print(f"REGRESSION: {message}", file=sys.stderr)
        return 1
    print("benchmark regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
