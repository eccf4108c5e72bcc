"""The level-wise hierarchy construction and the threaded ``csr`` pipeline.

The contract under test: ``decompose(..., backend="csr", workers=N)``
produces λ elementwise identical and a *condensed* hierarchy
node-for-node identical to the one-thread CSR engine (itself held to
the object engine), for (1,2), (2,3) and (3,4), at every worker count,
deterministically.
Covers the layers bottom-up:

* the level-edge kernel against a brute-force oracle, on the (1,2)
  adjacency and the (2,3)/(3,4) incidences;
* the level-wise build vs the object engine's FND;
* the full pipeline — repeated-run determinism, and the single-core /
  ``workers=1`` paths that never build a thread pool.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.graph.csr as csr_module
from repro.backends import (
    as_backend,
    core_peel,
    decompose,
    nucleus34_peel,
    truss_peel,
)
from repro.core.csr_peel import incidence_arrays
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.parallel import hierarchy_from_lambda, incidence_level_edges

RS_PAIRS = ((1, 2), (2, 3), (3, 4))


def random_csr(seed: int, max_n: int = 40) -> CSRGraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p = rng.choice([0.0, 0.1, 0.3, 0.6])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return CSRGraph(n, edges)


def concat_chunks(chunks):
    """A level-edge kernel's ``(a, b)`` chunks, concatenated in order."""
    parts = list(chunks)
    return tuple(np.concatenate([part[i] for part in parts]
                                or [np.empty(0, dtype=np.int64)])
                 for i in range(2))


def build_from_lambda(csr: CSRGraph, r: int, s: int, lam):
    """The level-wise hierarchy of settled ``lam`` over the (r, s)
    incidence of ``csr``."""
    _, _, ptr, comps = incidence_arrays(csr, r, s)
    return hierarchy_from_lambda(r, s, lam, ptr, comps)


def condensed_signature(hierarchy):
    tree = hierarchy.condense()
    return sorted((node.k, tuple(sorted(tree.subtree_cells(node.id))))
                  for node in tree.nodes)


def skeleton_signature(hierarchy):
    """The raw skeleton — byte-level determinism, stricter than condensed."""
    return (hierarchy.node_lambda, hierarchy.parent, hierarchy.comp,
            hierarchy.root)


@pytest.fixture(scope="module")
def powerlaw_csr() -> CSRGraph:
    graph = generators.powerlaw_cluster(400, 6, 0.5, seed=9)
    return as_backend(graph, "csr")


# ---------------------------------------------------------------------------
# level-edge kernels
# ---------------------------------------------------------------------------
def assert_level_edges_match_brute_force(ptr, comps, lam) -> None:
    """Every level's pairs from :func:`incidence_level_edges` equal the
    per-clique rule: a clique whose minimum λ is ``k`` joins its smallest
    λ = ``k`` cell to each companion."""
    for k in range(1, int(lam.max(initial=0)) + 1):
        frontier = np.flatnonzero(lam == k)
        a, b = concat_chunks(
            incidence_level_edges(ptr, comps, lam, frontier, k))
        got = set(zip(a.tolist(), b.tolist()))
        expected = set()
        for u in frontier.tolist():
            for slot in range(ptr[u], ptr[u + 1]):
                clique = [u] + [int(c[slot]) for c in comps]
                lams = [int(lam[c]) for c in clique]
                if min(lams) != k:
                    continue  # the clique activates at a lower level
                if min(c for c, cl in zip(clique, lams) if cl == k) != u:
                    continue  # another frontier cell owns this clique
                for other in clique[1:]:
                    expected.add((u, other))
        assert got == expected


class TestLevelEdgeKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_core_level_edges_match_brute_force(self, seed):
        # (1,2)'s incidence is the adjacency: an edge is a 2-clique
        csr = random_csr(seed)
        lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
        assert_level_edges_match_brute_force(csr.indptr, (csr.indices,), lam)

    @pytest.mark.parametrize("seed", range(4))
    def test_incidence_level_edges_match_brute_force(self, seed):
        csr = random_csr(seed, max_n=30)
        for (r, s), peel in (((2, 3), truss_peel), ((3, 4), nucleus34_peel)):
            _, _, ptr, comps = incidence_arrays(csr, r, s)
            lam = np.asarray(peel(csr, backend="object").lam, dtype=np.int64)
            assert_level_edges_match_brute_force(ptr, comps, lam)


# ---------------------------------------------------------------------------
# in-process level-wise construction
# ---------------------------------------------------------------------------
class TestLevelwiseConstruction:
    @pytest.mark.parametrize("seed", range(8))
    def test_core_hierarchy_matches_sequential(self, seed):
        csr = random_csr(seed)
        reference = decompose(csr, 1, 2, algorithm="fnd", backend="object")
        lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
        hierarchy = build_from_lambda(csr, 1, 2, lam)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    @pytest.mark.parametrize("seed", range(8))
    def test_truss_hierarchy_matches_sequential(self, seed):
        csr = random_csr(seed, max_n=30)
        reference = decompose(csr, 2, 3, algorithm="fnd", backend="object")
        lam = np.asarray(truss_peel(csr, backend="object").lam, dtype=np.int64)
        hierarchy = build_from_lambda(csr, 2, 3, lam)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    def test_nucleus34_hierarchy_matches_sequential(self, powerlaw_csr):
        reference = decompose(powerlaw_csr, 3, 4, algorithm="fnd",
                              backend="object")
        lam = np.asarray(nucleus34_peel(powerlaw_csr, backend="object").lam,
                         dtype=np.int64)
        hierarchy = build_from_lambda(powerlaw_csr, 3, 4, lam)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3)], ids=["12", "23"])
    def test_nodes_numbered_by_lambda_then_smallest_cell(self, rs):
        # the served index's node order depends on it; twenty disjoint K₅
        # put twenty nodes on one λ level
        csr = as_backend(generators.planted_cliques(
            20, 5, bridge_edges=0, noise_vertices=7, noise_edges=9, seed=4),
            "csr")
        peel = core_peel if rs == (1, 2) else truss_peel
        lam = np.asarray(peel(csr, backend="object").lam)
        hierarchy = build_from_lambda(csr, *rs, lam)
        comp = np.asarray(hierarchy.comp)
        node_lambda = np.asarray(hierarchy.node_lambda).tolist()
        root = hierarchy.root
        assert root == len(node_lambda) - 1
        keys = [(node_lambda[node], int(np.flatnonzero(comp == node)[0]))
                for node in range(root)]
        assert node_lambda[:root].count(max(node_lambda)) == 20
        assert keys == sorted(keys)

    def test_empty_and_edgeless_graphs(self):
        for csr in (CSRGraph(0, []), CSRGraph(5, [])):
            lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
            hierarchy = build_from_lambda(csr, 1, 2, lam)
            hierarchy.validate()
            assert hierarchy.num_subnuclei == 0
            assert all(c == hierarchy.root for c in hierarchy.comp)


# ---------------------------------------------------------------------------
# the threaded csr pipeline through the backend
# ---------------------------------------------------------------------------
class TestParallelFndParity:
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_condensed_parity_at_every_worker_count(
            self, powerlaw_csr, rs, workers):
        sequential = decompose(powerlaw_csr, *rs, algorithm="fnd",
                               backend="csr", workers=1)
        parallel = decompose(powerlaw_csr, *rs, algorithm="fnd",
                             backend="csr", workers=workers)
        assert parallel.lam == sequential.lam
        parallel.hierarchy.validate()
        assert condensed_signature(parallel.hierarchy) == \
            condensed_signature(sequential.hierarchy)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_deterministic_across_repeated_runs(
            self, powerlaw_csr, rs):
        first = decompose(powerlaw_csr, *rs, algorithm="fnd",
                          backend="csr", workers=3)
        second = decompose(powerlaw_csr, *rs, algorithm="fnd",
                           backend="csr", workers=3)
        assert skeleton_signature(first.hierarchy) == \
            skeleton_signature(second.hierarchy)
        assert first.lam == second.lam

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_sweep_two_workers(self, seed):
        csr = random_csr(seed)
        for rs in RS_PAIRS:
            sequential = decompose(csr, *rs, algorithm="fnd",
                                   backend="csr", workers=1)
            parallel = decompose(csr, *rs, algorithm="fnd",
                                 backend="csr", workers=2)
            assert parallel.lam == sequential.lam, (seed, rs)
            assert condensed_signature(parallel.hierarchy) == \
                condensed_signature(sequential.hierarchy), (seed, rs)

    def test_single_core_hosts_degrade_to_sequential_path(
            self, powerlaw_csr, monkeypatch):
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 1)
        monkeypatch.setattr(
            csr_module, "ThreadPoolExecutor",
            _RaisingPool)  # the degraded path must never build a pool
        sequential = decompose(powerlaw_csr, 2, 3, algorithm="fnd",
                               backend="csr", workers=1)
        degraded = decompose(powerlaw_csr, 2, 3, algorithm="fnd",
                             backend="csr", workers=4)
        assert degraded.lam == sequential.lam
        assert condensed_signature(degraded.hierarchy) == \
            condensed_signature(sequential.hierarchy)

    def test_workers_one_never_builds_a_pool(
            self, powerlaw_csr, monkeypatch):
        monkeypatch.setattr(csr_module, "ThreadPoolExecutor", _RaisingPool)
        for rs in RS_PAIRS:
            result = decompose(powerlaw_csr, *rs, algorithm="fnd",
                               backend="csr", workers=1)
            reference = decompose(powerlaw_csr, *rs, algorithm="fnd",
                                  backend="object")
            assert result.lam == reference.lam


class _RaisingPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool must not be built on this path")
