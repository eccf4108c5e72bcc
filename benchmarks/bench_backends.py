"""Object vs CSR vs disk engines on the peel and hierarchy hot paths.

Three modes:

* **pytest-benchmark** (``pytest benchmarks/bench_backends.py``): one
  benchmark per (workload, backend) pair on the paper's stand-in datasets.
* **standalone smoke** (``python benchmarks/bench_backends.py [--quick]
  [--json OUT]``): times the object and CSR backends on generator graphs,
  asserts the λ arrays are identical (and, for the FND workloads, that the
  condensed hierarchies match node-for-node), prints the speedups and
  optionally writes the JSON consumed by ``check_regression.py``.
* **query latency** (``run_query_smoke``, part of the default standalone
  run): the serving side of the paper's build-once/serve-many story.
  Builds one decomposition per workload, then times batch
  vertex→community queries through the flat
  :class:`repro.flatindex.FlatHierarchyIndex` against the equivalent
  per-vertex loop over the legacy
  :class:`repro.queries.HierarchyIndex` (answers asserted identical),
  plus the persistence path — ``save``/``load`` of the ``.npz`` index
  versus recomputing the decomposition from scratch.
  ``check_regression.py`` gates the recorded batch speedup (≥10×) and
  the load-vs-recompute ratio (≤1).
* **scenario variants** (``run_variant_smoke``, part of the default
  standalone run): the weighted, uncertain and temporal-sweep
  decompositions on the object reference engines vs the generic flat
  peel kernel (:mod:`repro.core.generic_peel`) through the
  :mod:`repro.backends` variant dispatch, elementwise λ parity asserted
  before any timing counts.  ``check_regression.py`` gates the recorded
  kernel speedup on the ``gated`` rows (uncertain, temporal-sweep; ≥2×).
* **disk backend** (``run_disk_smoke``, part of the default standalone
  run): the out-of-core story end to end — time the partitioned
  external-sort build (edge stream → ``.diskcsr`` directory) and a full
  FND decomposition on the windowed disk backend at (1,2)/(2,3)/(3,4),
  against the in-memory CSR engine on the same graphs.  λ and the
  condensed-hierarchy canonical form must match the CSR engine for
  every workload; ``check_regression.py`` gates the calibration-
  rescaled ``disk_seconds`` against the committed baseline and prints
  the ``disk_vs_csr`` slowdown beside it.
* **lint runtime** (``run_lint_smoke``, part of the default standalone
  run): times ``repro-lint`` over the shipped ``src`` tree — the full
  pass (per-file rules plus the whole-project analysis layer) against
  the per-file rules alone — and asserts zero findings.
  ``check_regression.py`` gates the dimensionless ``project_overhead``
  ratio (the project layer may cost at most ~3× the per-file pass).
* **worker scaling** (``--parallel``, combinable with the above): times
  the ``csr`` engine's threaded clique listing at several worker counts
  (``--workers``, default 1 2 4) against its one-thread run on the
  peel+incidence workloads *and* the end-to-end FND pipelines
  (``fnd12``/``fnd23``/``fnd34``: clique listing, frontier peel,
  level-wise hierarchy build), asserting λ parity at every count and
  condensed-hierarchy parity for every FND workload and count.
  ``--gate RATIO`` turns the run into a pass/fail check: it exits
  non-zero when a gated workload's lowest multi-worker time exceeds
  ``RATIO ×`` the one-thread time (the CI ``parallel-smoke``
  job runs this with 2 workers and 1.15); the ``scaling-bench`` job
  instead gates the recorded ratios against the committed baseline via
  ``check_regression.py --scaling``.

Workloads: the three direct peels (``kcore``, ``truss23``, ``nucleus34``)
and full FND decompositions (``fnd12``, ``fnd23``) — peel *plus*
BuildHierarchy, the paper's Figure 6 quantity.

The smoke run also times a fixed pure-Python *calibration* loop so results
recorded on one machine can be rescaled on another (see
``check_regression.py``).  Workload timing covers the full phase — initial
clique-degree counting plus the peel loop (plus hierarchy construction for
the FND workloads) — exactly what ``nucleus_decomposition`` charges.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

try:
    from repro.backends import (
        BACKENDS, as_backend, core_peel, decompose, nucleus34_peel, truss_peel)
except ImportError:  # clean checkout, package not installed: use the src tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.backends import (
        BACKENDS, as_backend, core_peel, decompose, nucleus34_peel, truss_peel)
from repro.graph import generators

from conftest import run_once

#: workload specs: ``kind="peel"`` times a bare peel function, ``kind="fnd"``
#: a full FND decomposition (peel + BuildHierarchy).  Sizes are tuned so the
#: object backend takes O(100ms), enough to dwarf timer noise in one round.
SMOKE_WORKLOADS = {
    "quick": {
        "kcore": dict(kind="peel", func="core",
                      gen=dict(n=20000, m=8, p=0.5, seed=7)),
        "truss23": dict(kind="peel", func="truss",
                        gen=dict(n=6000, m=10, p=0.6, seed=11)),
        "nucleus34": dict(kind="peel", func="nucleus34",
                          gen=dict(n=1500, m=12, p=0.7, seed=13)),
        "fnd12": dict(kind="fnd", rs=(1, 2),
                      gen=dict(n=6000, m=40, p=0.2, seed=7)),
        "fnd23": dict(kind="fnd", rs=(2, 3),
                      gen=dict(n=5000, m=10, p=0.6, seed=17)),
    },
    "full": {
        "kcore": dict(kind="peel", func="core",
                      gen=dict(n=60000, m=8, p=0.5, seed=7)),
        "truss23": dict(kind="peel", func="truss",
                        gen=dict(n=16000, m=10, p=0.6, seed=11)),
        "nucleus34": dict(kind="peel", func="nucleus34",
                          gen=dict(n=4000, m=12, p=0.7, seed=13)),
        "fnd12": dict(kind="fnd", rs=(1, 2),
                      gen=dict(n=18000, m=40, p=0.2, seed=7)),
        "fnd23": dict(kind="fnd", rs=(2, 3),
                      gen=dict(n=14000, m=10, p=0.6, seed=17)),
    },
}

_PEEL_FUNCS = {"core": core_peel, "truss": truss_peel,
               "nucleus34": nucleus34_peel}

#: query-latency workloads: one decomposition each, then batch queries
#: through the flat index vs a per-vertex legacy-index loop.
#: ``sample_step`` thins the queried vertex set so the *legacy* reference
#: loop stays a few seconds; both sides query the identical vertex list.
#: ``k_num``/``k_den`` pick the community strength as that fraction of the
#: workload's max λ (mid-depth levels: large enough to be non-trivial,
#: small enough that every vertex still resolves communities).
QUERY_WORKLOADS = {
    "quick": {
        "kcore": dict(rs=(1, 2), sample_step=4, k_num=2, k_den=3,
                      gen=dict(n=20000, m=8, p=0.5, seed=7)),
        "truss23": dict(rs=(2, 3), sample_step=1, k_num=1, k_den=3,
                        gen=dict(n=5000, m=10, p=0.6, seed=17)),
    },
    "full": {
        "kcore": dict(rs=(1, 2), sample_step=12, k_num=2, k_den=3,
                      gen=dict(n=60000, m=8, p=0.5, seed=7)),
        "truss23": dict(rs=(2, 3), sample_step=3, k_num=1, k_den=3,
                        gen=dict(n=14000, m=10, p=0.6, seed=17)),
    },
}

#: disk-backend workloads: full FND decompositions on the out-of-core
#: engine vs the in-memory CSR engine, plus the external-sort build that
#: feeds it.  Sized smaller than the CSR smoke — the disk engine's
#: windowed scalar reads trade throughput for bounded memory, the ratio
#: the smoke records as ``disk_vs_csr``.
DISK_WORKLOADS = {
    "quick": {
        "fnd12": dict(rs=(1, 2), gen=dict(n=6000, m=40, p=0.2, seed=7)),
        "fnd23": dict(rs=(2, 3), gen=dict(n=2000, m=10, p=0.6, seed=17)),
        "fnd34": dict(rs=(3, 4), gen=dict(n=800, m=12, p=0.7, seed=13)),
    },
    "full": {
        "fnd12": dict(rs=(1, 2), gen=dict(n=18000, m=40, p=0.2, seed=7)),
        "fnd23": dict(rs=(2, 3), gen=dict(n=5000, m=10, p=0.6, seed=17)),
        "fnd34": dict(rs=(3, 4), gen=dict(n=1500, m=12, p=0.7, seed=13)),
    },
}

#: scenario-variant workloads: the object reference engine vs the generic
#: flat peel kernel (``repro.core.generic_peel``) through the
#: ``repro.backends`` variant dispatch.  ``gated`` marks the rows whose
#: recorded kernel speedup ``check_regression.py`` holds to
#: ``--min-variant-speedup`` (default 2x): the uncertain row (the capped
#: downward η-degree search vs the object engine's from-scratch DP per
#: decrement) and the temporal sweep (one cached CSR re-peeled per ``h``
#: vs one object-graph rebuild per ``h``).  The weighted row is recorded
#: but ungated — the object reference is already a tight heap peel, so
#: the kernel's margin there is structural, not algorithmic.  Weights and
#: probabilities are dyadic rationals so float parity is exact on every
#: engine.  The uncertain sizes are deliberately small: the *object*
#: reference recomputes a Poisson-binomial tail DP per decrement and is
#: the slow side by an order of magnitude.
VARIANT_WORKLOADS = {
    "quick": {
        "weighted": dict(variant="weighted", gated=False,
                         gen=dict(n=20000, m=8, p=0.5, seed=7)),
        "uncertain": dict(variant="uncertain", gated=True, eta=0.5,
                          gen=dict(n=600, m=6, p=0.5, seed=11)),
        "temporal-sweep": dict(variant="temporal-sweep", gated=True,
                               copies=3,
                               gen=dict(n=4000, m=6, p=0.5, seed=13)),
    },
    "full": {
        "weighted": dict(variant="weighted", gated=False,
                         gen=dict(n=60000, m=8, p=0.5, seed=7)),
        "uncertain": dict(variant="uncertain", gated=True, eta=0.5,
                          gen=dict(n=1500, m=6, p=0.5, seed=11)),
        "temporal-sweep": dict(variant="temporal-sweep", gated=True,
                               copies=3,
                               gen=dict(n=12000, m=6, p=0.5, seed=13)),
    },
}

#: worker-scaling workloads: the three peel+incidence phases
#: (``kind="peel"``) plus the three full threaded FND constructions —
#: set-up, bulk peel *and* the level-wise hierarchy build
#: (``kind="fnd"``, condensed-hierarchy parity asserted at every worker
#: count).  ``gated`` marks the ones the CI parallel-smoke ratio gate
#: applies to; the (3,4) and FND rows are parity-checked and reported but
#: not time-gated (the scaling-bench job gates their ratios against the
#: committed baseline instead).
PARALLEL_WORKLOADS = {
    "quick": {
        "kcore": dict(kind="peel", func="core", gated=True,
                      gen=dict(n=20000, m=8, p=0.5, seed=7)),
        "truss23": dict(kind="peel", func="truss", gated=True,
                        gen=dict(n=6000, m=10, p=0.6, seed=11)),
        "nucleus34": dict(kind="peel", func="nucleus34", gated=False,
                          gen=dict(n=1500, m=12, p=0.7, seed=13)),
        "fnd12": dict(kind="fnd", rs=(1, 2), gated=False,
                      gen=dict(n=6000, m=40, p=0.2, seed=7)),
        "fnd23": dict(kind="fnd", rs=(2, 3), gated=False,
                      gen=dict(n=5000, m=10, p=0.6, seed=17)),
        "fnd34": dict(kind="fnd", rs=(3, 4), gated=False,
                      gen=dict(n=1500, m=12, p=0.7, seed=13)),
    },
    "full": {
        "kcore": dict(kind="peel", func="core", gated=True,
                      gen=dict(n=60000, m=8, p=0.5, seed=7)),
        "truss23": dict(kind="peel", func="truss", gated=True,
                        gen=dict(n=16000, m=10, p=0.6, seed=11)),
        "nucleus34": dict(kind="peel", func="nucleus34", gated=False,
                          gen=dict(n=4000, m=12, p=0.7, seed=13)),
        "fnd12": dict(kind="fnd", rs=(1, 2), gated=False,
                      gen=dict(n=18000, m=40, p=0.2, seed=7)),
        "fnd23": dict(kind="fnd", rs=(2, 3), gated=False,
                      gen=dict(n=14000, m=10, p=0.6, seed=17)),
        "fnd34": dict(kind="fnd", rs=(3, 4), gated=False,
                      gen=dict(n=4000, m=12, p=0.7, seed=13)),
    },
}


# ---------------------------------------------------------------------------
# pytest-benchmark mode
# ---------------------------------------------------------------------------
def _release(graph) -> None:
    """Disk-backend conversions own a scratch ``.diskcsr`` directory."""
    close = getattr(graph, "close", None)
    if close is not None:
        close()


@pytest.mark.benchmark(group="backends-kcore-peel")
@pytest.mark.parametrize("backend", BACKENDS)
def test_kcore_peel_backends(benchmark, dataset, backend):
    graph = as_backend(dataset, backend)  # conversion not charged to the peel
    try:
        result = run_once(benchmark, core_peel, graph, backend=backend)
    finally:
        _release(graph)
    benchmark.extra_info["dataset"] = dataset.name
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["max_lambda"] = result.max_lambda


@pytest.mark.benchmark(group="backends-truss23-peel")
@pytest.mark.parametrize("backend", BACKENDS)
def test_truss23_peel_backends(benchmark, dataset, backend):
    graph = as_backend(dataset, backend)
    try:
        result = run_once(benchmark, truss_peel, graph, backend=backend)
    finally:
        _release(graph)
    benchmark.extra_info["dataset"] = dataset.name
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["max_lambda"] = result.max_lambda


@pytest.mark.benchmark(group="backends-nucleus34-peel")
@pytest.mark.parametrize("backend", BACKENDS)
def test_nucleus34_peel_backends(benchmark, dataset, backend):
    graph = as_backend(dataset, backend)
    try:
        result = run_once(benchmark, nucleus34_peel, graph, backend=backend)
    finally:
        _release(graph)
    benchmark.extra_info["dataset"] = dataset.name
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["max_lambda"] = result.max_lambda


@pytest.mark.benchmark(group="backends-fnd-hierarchy")
@pytest.mark.parametrize("rs", [(1, 2), (2, 3)], ids=["12", "23"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_fnd_hierarchy_backends(benchmark, dataset, backend, rs):
    graph = as_backend(dataset, backend)
    r, s = rs
    try:
        result = run_once(benchmark, decompose, graph, r, s,
                          algorithm="fnd", backend=backend)
    finally:
        _release(graph)
    benchmark.extra_info["dataset"] = dataset.name
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["max_lambda"] = result.max_lambda


# ---------------------------------------------------------------------------
# standalone smoke mode
# ---------------------------------------------------------------------------
def calibration_seconds() -> float:
    """Time a fixed pure-Python list workload (machine-speed yardstick)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        data = list(range(200000))
        for value in data:
            if value & 1:
                acc += value
        best = min(best, time.perf_counter() - start)
    return best


def _best_of(repeats: int, func, *args, **kwargs) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def condensed_signature(decomposition):
    """The condensed hierarchy as comparable data: (k, member cells) per
    nucleus node — what the acceptance criteria call the node λ multiset
    plus cell→nucleus map."""
    tree = decomposition.hierarchy.condense()
    return sorted((node.k, tuple(sorted(tree.subtree_cells(node.id))))
                  for node in tree.nodes)


def run_smoke(mode: str = "quick", repeats: int = 3) -> dict:
    """Time every smoke workload on both backends; λ must match exactly
    (FND workloads additionally prove condensed-hierarchy parity)."""
    results: dict = {
        "mode": mode,
        "calibration_seconds": calibration_seconds(),
        "workloads": {},
    }
    for name, spec in SMOKE_WORKLOADS[mode].items():
        gen = spec["gen"]
        graph = generators.powerlaw_cluster(
            gen["n"], gen["m"], gen["p"], seed=gen["seed"],
            name=f"{name}-smoke")
        csr = as_backend(graph, "csr")
        csr.hot_arrays()  # structure build is not part of the peel
        _ = graph.edge_index
        if spec["kind"] == "peel":
            peel_func = _PEEL_FUNCS[spec["func"]]
            obj_seconds, obj_result = _best_of(repeats, peel_func, graph,
                                               backend="object")
            csr_seconds, csr_result = _best_of(repeats, peel_func, csr,
                                               backend="csr")
            max_lambda = obj_result.max_lambda
        else:
            r, s = spec["rs"]
            obj_seconds, obj_result = _best_of(
                repeats, decompose, graph, r, s,
                algorithm="fnd", backend="object")
            csr_seconds, csr_result = _best_of(
                repeats, decompose, csr, r, s,
                algorithm="fnd", backend="csr")
            max_lambda = obj_result.max_lambda
            if condensed_signature(obj_result) != \
                    condensed_signature(csr_result):
                raise AssertionError(
                    f"{name}: backends disagree on the condensed hierarchy "
                    f"— CSR FND is broken")
        if obj_result.lam != csr_result.lam:
            raise AssertionError(
                f"{name}: backends disagree on lambda — CSR engine is broken")
        results["workloads"][name] = {
            "n": graph.n,
            "m": graph.m,
            "max_lambda": max_lambda,
            "object_seconds": round(obj_seconds, 6),
            "csr_seconds": round(csr_seconds, 6),
            "speedup": round(obj_seconds / csr_seconds, 3),
        }
    return results


def run_query_smoke(mode: str = "quick", repeats: int = 3) -> dict:
    """Time the serving hot path: flat batch queries vs the legacy
    per-vertex loop, plus persisted-index load vs recomputing.

    The flat answers must equal the legacy answers for every queried
    vertex (each community compared as a sorted cell list); the legacy
    reference is timed once (it is the slow side by orders of magnitude)
    and the flat/batch and load paths best-of ``repeats``.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.flatindex import FlatHierarchyIndex
    from repro.queries import HierarchyIndex

    results: dict = {"mode": mode, "workloads": {}}
    for name, spec in QUERY_WORKLOADS[mode].items():
        gen = spec["gen"]
        graph = generators.powerlaw_cluster(
            gen["n"], gen["m"], gen["p"], seed=gen["seed"],
            name=f"{name}-query-smoke")
        csr = as_backend(graph, "csr")
        csr.hot_arrays()
        r, s = spec["rs"]
        decompose_seconds, decomposition = _best_of(
            1, decompose, csr, r, s, algorithm="fnd", backend="csr")
        build_seconds, flat = _best_of(1, FlatHierarchyIndex, decomposition)
        legacy = HierarchyIndex(decomposition)
        legacy._nodes_of_vertex  # warm the lazy maps: time queries, not set-up
        k = max(1, spec["k_num"] * decomposition.max_lambda // spec["k_den"])
        vertices = list(range(0, graph.n, spec["sample_step"]))

        def legacy_loop(index=legacy, vertices=vertices, k=k):
            return [index.communities_of_vertex(v, k) for v in vertices]

        legacy_seconds, legacy_answers = _best_of(1, legacy_loop)
        flat_answers = flat.communities_of_vertex_batch(vertices, k)
        for mine, theirs in zip(flat_answers, legacy_answers):
            if [c.tolist() for c in mine] != [sorted(c) for c in theirs]:
                raise AssertionError(
                    f"{name}: flat and legacy indexes disagree — the flat "
                    f"query index is broken")
        del legacy_answers, flat_answers  # keep timing free of their memory
        flat_seconds, _ = _best_of(
            repeats, flat.communities_of_vertex_batch, vertices, k)
        with tempfile.TemporaryDirectory() as tmp:
            path = _Path(tmp) / f"{name}.npz"
            save_seconds, _ = _best_of(1, flat.save, path)
            load_seconds, loaded = _best_of(
                repeats, FlatHierarchyIndex.load, path)
            assert loaded.num_cells == flat.num_cells
        results["workloads"][name] = {
            "n": graph.n,
            "m": graph.m,
            "r": r,
            "s": s,
            "k": k,
            "vertices_queried": len(vertices),
            "legacy_seconds": round(legacy_seconds, 6),
            "flat_seconds": round(flat_seconds, 6),
            "batch_speedup": round(legacy_seconds / flat_seconds, 3),
            "decompose_seconds": round(decompose_seconds, 6),
            "build_seconds": round(build_seconds, 6),
            "save_seconds": round(save_seconds, 6),
            "load_seconds": round(load_seconds, 6),
            "load_vs_recompute": round(load_seconds / decompose_seconds, 4),
        }
    # every workload above proved flat-vs-legacy answer parity
    results["parity"] = "ok"
    return results


def run_disk_smoke(mode: str = "quick", repeats: int = 3) -> dict:
    """Time the out-of-core disk backend against the in-memory CSR engine.

    Per workload: best-of ``repeats`` external-sort builds (edge stream
    → a fresh ``.diskcsr`` scratch directory each time), then best-of
    ``repeats`` full FND decompositions on the disk backend over the
    last build, against the same decomposition on the CSR engine.  λ
    must match elementwise and the condensed hierarchies must agree on
    their canonical form — the cross-engine parity contract (the two
    engines may number internal hierarchy nodes differently, but the
    nuclei they describe must be identical).
    """
    from repro.external.build import build_diskcsr

    results: dict = {"mode": mode, "workloads": {}}
    for name, spec in DISK_WORKLOADS[mode].items():
        gen = spec["gen"]
        graph = generators.powerlaw_cluster(
            gen["n"], gen["m"], gen["p"], seed=gen["seed"],
            name=f"{name}-disk-smoke")
        csr = as_backend(graph, "csr")
        csr.hot_arrays()
        r, s = spec["rs"]
        build_seconds = float("inf")
        disk = None
        for _ in range(repeats):
            if disk is not None:
                disk.close()
            start = time.perf_counter()
            disk = build_diskcsr(graph.edges(), n=graph.n, name=graph.name)
            build_seconds = min(build_seconds, time.perf_counter() - start)
        try:
            disk_seconds, disk_result = _best_of(
                repeats, decompose, disk, r, s,
                algorithm="fnd", backend="disk")
        finally:
            disk.close()
        csr_seconds, csr_result = _best_of(
            repeats, decompose, csr, r, s, algorithm="fnd", backend="csr")
        if disk_result.lam != csr_result.lam:
            raise AssertionError(
                f"{name}: disk and CSR engines disagree on lambda — the "
                f"out-of-core engine is broken")
        if disk_result.hierarchy.canonical_nuclei() != \
                csr_result.hierarchy.canonical_nuclei():
            raise AssertionError(
                f"{name}: disk and CSR engines disagree on the canonical "
                f"nuclei — the out-of-core hierarchy construction is broken")
        results["workloads"][name] = {
            "n": graph.n,
            "m": graph.m,
            "r": r,
            "s": s,
            "max_lambda": disk_result.max_lambda,
            "build_seconds": round(build_seconds, 6),
            "disk_seconds": round(disk_seconds, 6),
            "csr_seconds": round(csr_seconds, 6),
            "disk_vs_csr": round(disk_seconds / csr_seconds, 3),
        }
    # every workload above proved lambda + canonical-nuclei parity
    results["parity"] = "ok"
    return results


def run_variant_smoke(mode: str = "quick", repeats: int = 3) -> dict:
    """Time the scenario variants: object reference vs the generic kernel.

    Per workload the object engine and the generic-peel kernel run the
    same decomposition through the :mod:`repro.backends` variant dispatch
    (``backend="object"`` vs ``backend="csr"``); λ must match elementwise
    before any timing counts.  The temporal row times the full profile
    sweep — the kernel side reuses one cached CSR across every ``h``,
    the object side materialises a thresholded graph per ``h``.
    """
    from repro.backends import (
        temporal_core_sweep, uncertain_core_peel, weighted_core_peel)
    from repro.graph.temporal import TemporalGraph

    results: dict = {"mode": mode, "workloads": {}}
    for name, spec in VARIANT_WORKLOADS[mode].items():
        gen = spec["gen"]
        graph = generators.powerlaw_cluster(
            gen["n"], gen["m"], gen["p"], seed=gen["seed"],
            name=f"{name}-variant-smoke")
        csr = as_backend(graph, "csr")
        csr.hot_arrays()
        _ = graph.edge_index
        if spec["variant"] == "weighted":
            values = [0.25 * (1 + i % 8) for i in range(graph.m)]
            obj_seconds, obj_result = _best_of(
                repeats, weighted_core_peel, graph, values,
                backend="object")
            ker_seconds, ker_result = _best_of(
                repeats, weighted_core_peel, csr, values, backend="csr")
            obj_lam, ker_lam = obj_result.lam, ker_result.lam
        elif spec["variant"] == "uncertain":
            values = [(0.25, 0.5, 0.75, 1.0)[i % 4] for i in range(graph.m)]
            obj_seconds, obj_result = _best_of(
                repeats, uncertain_core_peel, graph, values,
                eta=spec["eta"], backend="object")
            ker_seconds, ker_result = _best_of(
                repeats, uncertain_core_peel, csr, values,
                eta=spec["eta"], backend="csr")
            obj_lam, ker_lam = obj_result.lam, ker_result.lam
        else:  # temporal-sweep: the full (k, h) profile, every threshold
            events = [(u, v, t) for u, v in graph.edges()
                      for t in range(1 + (u + v) % spec["copies"])]
            temporal = TemporalGraph(graph.n, events)
            temporal.csr()  # cache build is not part of the sweep timing
            obj_seconds, obj_sweep = _best_of(
                repeats, temporal_core_sweep, temporal, backend="object")
            ker_seconds, ker_sweep = _best_of(
                repeats, temporal_core_sweep, temporal, backend="csr")
            obj_lam = {h: r.lam for h, r in obj_sweep.items()}
            ker_lam = {h: r.lam for h, r in ker_sweep.items()}
        if obj_lam != ker_lam:
            raise AssertionError(
                f"{name}: object and kernel engines disagree on lambda — "
                f"the generic-peel variant engine is broken")
        results["workloads"][name] = {
            "n": graph.n,
            "m": graph.m,
            "gated": spec["gated"],
            "object_seconds": round(obj_seconds, 6),
            "kernel_seconds": round(ker_seconds, 6),
            "speedup": round(obj_seconds / ker_seconds, 3),
        }
    # every workload above proved elementwise object-vs-kernel λ parity
    results["parity"] = "ok"
    return results


def run_lint_smoke(repeats: int = 3) -> dict:
    """Time ``repro-lint`` over the shipped ``src`` tree.

    Two timed passes: the full run (all rules — the per-file set plus
    the whole-project layer, which parses every module once and builds
    the import graph, symbol table, call resolution and function
    summaries) and the per-file rules alone.  The recorded
    ``project_overhead`` ratio is dimensionless, so the committed
    baseline gates it portably: growing the project analysis may not
    silently turn the CI lint gate into a multiple of the per-file
    cost.  The full pass must also come back clean — the
    self-application gate, asserted here so a dirty tree fails the
    bench job too.
    """
    import repro
    from repro.lint import ProjectRule, all_rules, lint_paths

    src = Path(repro.__file__).resolve().parents[1]
    rules = all_rules()
    per_file_rules = [r for r in rules if not isinstance(r, ProjectRule)]

    full_seconds, outcome = _best_of(repeats, lint_paths, [src])
    violations, errors = outcome
    if errors:
        raise AssertionError(f"repro-lint could not read src: {errors}")
    if violations:
        raise AssertionError(
            f"repro-lint found {len(violations)} violation(s) in the "
            f"shipped tree; the bench gate requires a clean src")
    per_file_seconds, _ = _best_of(repeats, lint_paths, [src],
                                   per_file_rules)
    return {
        "rules": len(rules),
        "per_file_rules": len(per_file_rules),
        "findings": len(violations),
        "full_seconds": round(full_seconds, 6),
        "per_file_seconds": round(per_file_seconds, 6),
        "project_overhead": round(full_seconds / per_file_seconds, 3),
    }


def run_parallel_smoke(mode: str = "quick",
                       workers: tuple[int, ...] = (1, 2, 4),
                       repeats: int = 3) -> dict:
    """Time the ``csr`` engine at each listing worker count vs its
    one-thread run on the peel+incidence and FND-construction
    workloads.

    λ must match the one-thread result elementwise at every worker
    count, and every threaded FND decomposition must reproduce its
    condensed hierarchy node-for-node at every count (the
    hierarchy-parity half of the CI gate).

    Every leg runs in one process: a worker count only sets how
    many threads the triangle/K₄ listing maps its kernel ranges over,
    capped at the CPUs in the affinity mask.  The cap and the thread
    count each leg actually got are recorded (``available_cpus`` and
    ``threads``), so readers can tell real overlap from a capped run.
    """
    import os

    from repro.graph.csr import available_cpus

    cpus = available_cpus()
    results: dict = {
        "mode": mode,
        "cpu_count": os.cpu_count(),
        "available_cpus": cpus,
        "workers": list(workers),
        "threads": {str(count): min(count, cpus) for count in workers},
        "workloads": {},
    }
    _run_parallel_workloads(results, mode, workers, repeats)
    return results


def _run_parallel_workloads(results: dict, mode: str,
                            workers: tuple[int, ...], repeats: int) -> None:
    for name, spec in PARALLEL_WORKLOADS[mode].items():
        gen = spec["gen"]
        graph = generators.powerlaw_cluster(
            gen["n"], gen["m"], gen["p"], seed=gen["seed"],
            name=f"{name}-parallel-smoke")
        csr = as_backend(graph, "csr")
        csr.hot_arrays()
        if spec["kind"] == "peel":
            func = _PEEL_FUNCS[spec["func"]]
            args = (csr,)
        else:  # full FND decomposition: set-up + bulk peel + construction
            func = decompose
            args = (csr, *spec["rs"])
        # the reference leg is pinned to one thread, so a REPRO_WORKERS in
        # the environment cannot thread it
        legs = [{"backend": "csr", "workers": 1}] + [
            {"backend": "csr", "workers": count} for count in workers]
        seconds = [float("inf")] * len(legs)
        outputs: list = [None] * len(legs)
        # the legs alternate within every repeat, so a slow stretch of a
        # shared host hits each leg alike, not whichever ran during it
        for _ in range(repeats):
            for i, kwargs in enumerate(legs):
                start = time.perf_counter()
                outputs[i] = func(*args, **kwargs)
                seconds[i] = min(seconds[i], time.perf_counter() - start)
        seq_seconds, seq_result = seconds[0], outputs[0]
        seq_signature = (condensed_signature(seq_result)
                         if spec["kind"] == "fnd" else None)
        row: dict = {
            "n": graph.n,
            "m": graph.m,
            "gated": spec["gated"],
            "sequential_seconds": round(seq_seconds, 6),
            "workers": {},
        }
        for count, par_seconds, par_result in zip(
                workers, seconds[1:], outputs[1:], strict=True):
            if par_result.lam != seq_result.lam:
                raise AssertionError(
                    f"{name}: {count}-worker lambda differs from the "
                    f"one-thread csr run — the threaded listing is broken")
            if seq_signature is not None and \
                    condensed_signature(par_result) != seq_signature:
                raise AssertionError(
                    f"{name}: {count}-worker condensed hierarchy differs "
                    f"from the one-thread csr run — the threaded "
                    f"pipeline is broken")
            row["workers"][str(count)] = {
                "seconds": round(par_seconds, 6),
                "vs_sequential": round(par_seconds / seq_seconds, 3),
            }
        results["workloads"][name] = row
    # every fnd workload above proved condensed parity at every count
    results["hierarchy_parity"] = "ok"


def gate_parallel(results: dict, ratio: float) -> list[str]:
    """Failure messages for the CI parallel-smoke gate (empty = pass).

    A gated workload fails when its best multi-worker time exceeds
    ``ratio ×`` the one-thread csr time.  Single-worker legs are the
    reference's own path and never gate.
    """
    failures = []
    for name, row in results["workloads"].items():
        if not row["gated"]:
            continue
        multi = [entry for count, entry in row["workers"].items()
                 if count != "1"]
        if not multi:
            continue
        best = min(w["vs_sequential"] for w in multi)
        if best > ratio:
            failures.append(
                f"{name}: best multi-worker peel is {best:.2f}x the "
                f"one-thread csr time (gate: {ratio}x)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="object vs CSR vs disk backend peel/hierarchy "
                    "comparison, plus the csr listing's worker scaling")
    parser.add_argument("--quick", action="store_true",
                        help="small graphs (the CI smoke configuration)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the results as JSON")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--parallel", action="store_true",
                        help="also run the worker-scaling comparison")
    parser.add_argument("--parallel-only", action="store_true",
                        help="run only the worker-scaling comparison")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts for --parallel (default 1 2 4)")
    parser.add_argument("--gate", type=float, metavar="RATIO", default=None,
                        help="fail when a gated workload's best multi-worker "
                             "time exceeds RATIO x sequential")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results: dict = {}
    if not args.parallel_only:
        results = run_smoke(mode, repeats=args.repeats)
        print(f"calibration: {results['calibration_seconds'] * 1000:.1f} ms")
        for name, row in results["workloads"].items():
            print(f"{name:10s} n={row['n']:>6} m={row['m']:>7}  "
                  f"object {row['object_seconds']:.3f}s  "
                  f"csr {row['csr_seconds']:.3f}s  "
                  f"speedup {row['speedup']:.2f}x  (identical lambda)")
        queries = run_query_smoke(mode, repeats=args.repeats)
        results["queries"] = queries
        print("query latency (flat batch vs legacy per-vertex, identical "
              "answers)")
        for name, row in queries["workloads"].items():
            print(f"{name:10s} k={row['k']} "
                  f"vertices={row['vertices_queried']:>6}  "
                  f"legacy {row['legacy_seconds']:.3f}s  "
                  f"flat {row['flat_seconds'] * 1000:.1f}ms  "
                  f"speedup {row['batch_speedup']:.0f}x  "
                  f"load {row['load_seconds'] * 1000:.1f}ms "
                  f"({row['load_vs_recompute']:.3f}x recompute)")
        variants = run_variant_smoke(mode, repeats=args.repeats)
        results["variants"] = variants
        print("scenario variants (object reference vs generic kernel, "
              "identical lambda)")
        for name, row in variants["workloads"].items():
            print(f"{name:14s} n={row['n']:>6} m={row['m']:>7}  "
                  f"object {row['object_seconds']:.3f}s  "
                  f"kernel {row['kernel_seconds']:.3f}s  "
                  f"speedup {row['speedup']:.2f}x"
                  f"{'  [gated >= 2x]' if row['gated'] else ''}")
        disk = run_disk_smoke(mode, repeats=args.repeats)
        results["disk"] = disk
        print("disk backend (out-of-core build + FND vs in-memory CSR, "
              "identical nuclei)")
        for name, row in disk["workloads"].items():
            print(f"{name:10s} n={row['n']:>6} m={row['m']:>7}  "
                  f"build {row['build_seconds']:.3f}s  "
                  f"disk {row['disk_seconds']:.3f}s  "
                  f"csr {row['csr_seconds']:.3f}s  "
                  f"ratio {row['disk_vs_csr']:.1f}x")
        lint = run_lint_smoke(repeats=args.repeats)
        results["lint"] = lint
        print(f"repro-lint src ({lint['rules']} rules, "
              f"{lint['findings']} findings): "
              f"full {lint['full_seconds']:.3f}s  "
              f"per-file {lint['per_file_seconds']:.3f}s  "
              f"project overhead {lint['project_overhead']:.2f}x")
    if args.parallel or args.parallel_only:
        parallel = run_parallel_smoke(mode, workers=tuple(args.workers),
                                      repeats=args.repeats)
        results["parallel"] = parallel
        threads = " ".join(f"w{count}->{t}"
                           for count, t in parallel["threads"].items())
        print(f"parallel scaling (cpu_count={parallel['cpu_count']}, "
              f"available_cpus={parallel['available_cpus']}, "
              f"listing threads {threads})")
        for name, row in parallel["workloads"].items():
            scaling = "  ".join(
                f"w{count}={entry['seconds']:.3f}s"
                f" ({entry['vs_sequential']:.2f}x)"
                for count, entry in row["workers"].items())
            print(f"{name:10s} seq={row['sequential_seconds']:.3f}s  "
                  f"{scaling}  (identical lambda)")
        print("hierarchy parity: ok")
        if args.gate is not None:
            failures = gate_parallel(parallel, args.gate)
            for message in failures:
                print(f"GATE FAILURE: {message}", file=sys.stderr)
            if failures:
                return 1
            print(f"parallel gate: OK (<= {args.gate}x sequential)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
