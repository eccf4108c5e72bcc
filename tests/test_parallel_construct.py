"""The level-wise parallel hierarchy construction (PR 4).

The contract under test: ``decompose(..., backend="csr-parallel",
workers=N)`` produces λ elementwise identical and a *condensed*
hierarchy node-for-node identical to the in-process CSR engine (itself
held to the object engine), for (1,2), (2,3) and (3,4), at every worker
count, deterministically.
Covers the layers bottom-up:

* the level-edge kernels against brute-force oracles;
* the worker-side spanning-forest reduction;
* the batch forest primitives (``make_nodes`` / ``adopt_roots``) on
  both the flat and the shared rooted forest;
* the in-process (``pool=None``) level-wise build vs the object
  engine's FND;
* the full pooled pipeline — including every-level farming, repeated-run
  determinism, and the single-core / ``workers=1`` degradation paths;
* the sparse pool-farmed decrement merge of the bulk peels.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.parallel.bulk as bulk_module
import repro.parallel.construct as construct_module
from repro.backends import (
    as_backend,
    core_peel,
    decompose,
    nucleus34_peel,
    truss_peel,
)
from repro.core.csr_peel import truss_incidence_arrays
from repro.core.disjoint_set import ArrayRootedForest
from repro.graph import generators
from repro.graph.csr import CSRGraph, csr_arrays_int64
from repro.parallel import (
    WorkerPool,
    bulk_core_peel,
    bulk_nucleus34_peel,
    bulk_truss_peel,
    core_hierarchy_from_lambda,
    core_level_edges,
    incidence_hierarchy_from_lambda,
    incidence_level_edges,
    merge_sparse_decrements,
    share_forest,
    spanning_forest_reduce,
)
from repro.parallel.bulk import FORCE_SHARDING_ENV

RS_PAIRS = ((1, 2), (2, 3), (3, 4))


def random_csr(seed: int, max_n: int = 40) -> CSRGraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p = rng.choice([0.0, 0.1, 0.3, 0.6])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return CSRGraph(n, edges)


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


@pytest.fixture
def forced_sharding(monkeypatch):
    monkeypatch.setenv(FORCE_SHARDING_ENV, "1")
    monkeypatch.setattr(bulk_module, "POOL_CROSSOVER_EDGES", 0)


# ---------------------------------------------------------------------------
# level-edge kernels
# ---------------------------------------------------------------------------
class TestLevelEdgeKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_core_level_edges_match_brute_force(self, seed):
        csr = random_csr(seed)
        arrays = csr_arrays_int64(csr)
        indptr, indices = arrays["indptr"], arrays["indices"]
        lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
        for k in range(1, int(lam.max(initial=0)) + 1):
            frontier = np.flatnonzero(lam == k)
            a, b = core_level_edges(indptr, indices, lam, frontier, k)
            got = set(zip(a.tolist(), b.tolist()))
            expected = set()
            for u, v in csr.edges():
                if min(lam[u], lam[v]) != k:
                    continue  # the edge activates at a different level
                owner, other = (u, v) if lam[u] == k else (v, u)
                if lam[other] == k:
                    owner, other = min(u, v), max(u, v)
                expected.add((owner, other))
            assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_incidence_level_edges_match_brute_force(self, seed):
        csr = random_csr(seed, max_n=30)
        sup, ptr, comps = truss_incidence_arrays(csr)
        lam = np.asarray(truss_peel(csr, backend="object").lam, dtype=np.int64)
        for k in range(1, int(lam.max(initial=0)) + 1):
            frontier = np.flatnonzero(lam == k)
            a, b = incidence_level_edges(ptr, comps, lam, frontier, k)
            got = set(zip(a.tolist(), b.tolist()))
            expected = set()
            for u in frontier.tolist():
                for slot in range(ptr[u], ptr[u + 1]):
                    clique = [u] + [int(c[slot]) for c in comps]
                    lams = [int(lam[c]) for c in clique]
                    if min(lams) != k:
                        continue
                    if min(c for c, cl in zip(clique, lams) if cl == k) != u:
                        continue  # another frontier edge owns this triangle
                    for other in clique[1:]:
                        expected.add((u, other))
            assert got == expected

    def test_spanning_forest_reduce_preserves_connectivity(self):
        rng = random.Random(3)
        nodes = list(range(50))
        a = np.array([rng.choice(nodes) for _ in range(300)], dtype=np.int64)
        b = np.array([rng.choice(nodes) for _ in range(300)], dtype=np.int64)
        ra, rb = spanning_forest_reduce(a, b)
        # one star per component: the same components, no redundant pair,
        # and every pair led by one of the input owners
        touched = set(a.tolist()) | set(b.tolist())
        full = _components(zip(a.tolist(), b.tolist()), touched)
        reduced = _components(zip(ra.tolist(), rb.tolist()), touched)
        assert full == reduced
        assert len(ra) == len(touched) - len(full)
        assert set(ra.tolist()) <= set(a.tolist())

    def test_spanning_forest_reduce_empty_and_deterministic(self):
        empty = np.empty(0, dtype=np.int64)
        ra, rb = spanning_forest_reduce(empty, empty)
        assert len(ra) == 0 and len(rb) == 0
        a = np.array([5, 1, 5, 1, 9], dtype=np.int64)
        b = np.array([6, 2, 6, 6, 9], dtype=np.int64)
        first = spanning_forest_reduce(a, b)
        second = spanning_forest_reduce(a, b)
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()


def _components(pairs, nodes):
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    groups: dict[int, set] = {}
    for x in nodes:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


# ---------------------------------------------------------------------------
# forest batch primitives
# ---------------------------------------------------------------------------
class TestForestBatchPrimitives:
    def test_array_forest_make_nodes_and_adopt_roots(self):
        forest = ArrayRootedForest()
        first = forest.make_nodes(4)
        assert first == 0 and len(forest) == 4
        forest.link(0, 1)
        root = forest.make_node()
        forest.adopt_roots(root)
        assert forest.parent == [1, root, root, root, -1]

    def test_shared_forest_make_nodes_and_adopt_roots(self):
        forest = share_forest(ArrayRootedForest(), capacity=6)
        try:
            first = forest.make_nodes(4)
            assert first == 0 and len(forest) == 4
            forest.link(2, 3)
            root = forest.make_node()
            forest.adopt_roots(root)
            assert forest.parent[:forest.size].tolist() == [
                root, root, 3, root, -1]
            with pytest.raises(IndexError):
                forest.make_nodes(2)
        finally:
            forest.bundle.unlink()

    def test_attach_node_alias_matches_attach(self):
        forest = ArrayRootedForest()
        forest.make_nodes(3)
        forest.attach_node(1, 0)
        assert forest.parent[1] == 0 and forest.root[1] == 0


# ---------------------------------------------------------------------------
# in-process level-wise construction
# ---------------------------------------------------------------------------
class TestLevelwiseConstruction:
    @pytest.mark.parametrize("seed", range(8))
    def test_core_hierarchy_matches_sequential(self, seed):
        csr = random_csr(seed)
        reference = decompose(csr, 1, 2, algorithm="fnd", backend="object")
        lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
        hierarchy = core_hierarchy_from_lambda(csr, lam)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    @pytest.mark.parametrize("seed", range(8))
    def test_truss_hierarchy_matches_sequential(self, seed):
        csr = random_csr(seed, max_n=30)
        reference = decompose(csr, 2, 3, algorithm="fnd", backend="object")
        _, ptr, comps = truss_incidence_arrays(csr)
        lam = np.asarray(truss_peel(csr, backend="object").lam, dtype=np.int64)
        hierarchy = incidence_hierarchy_from_lambda(2, 3, lam, ptr, comps)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    def test_nucleus34_hierarchy_matches_sequential(self, powerlaw_csr):
        from repro.core.csr_peel import nucleus34_incidence_arrays

        reference = decompose(powerlaw_csr, 3, 4, algorithm="fnd",
                              backend="object")
        _, _, ptr, comps = nucleus34_incidence_arrays(powerlaw_csr)
        lam = np.asarray(nucleus34_peel(powerlaw_csr, backend="object").lam,
                         dtype=np.int64)
        hierarchy = incidence_hierarchy_from_lambda(3, 4, lam, ptr, comps)
        hierarchy.validate()
        assert condensed_signature(hierarchy) == \
            condensed_signature(reference.hierarchy)

    def test_empty_and_edgeless_graphs(self):
        for csr in (CSRGraph(0, []), CSRGraph(5, [])):
            lam = np.asarray(core_peel(csr, backend="object").lam, dtype=np.int64)
            hierarchy = core_hierarchy_from_lambda(csr, lam)
            hierarchy.validate()
            assert hierarchy.num_subnuclei == 0
            assert all(c == hierarchy.root for c in hierarchy.comp)


# ---------------------------------------------------------------------------
# the pooled pipeline through the backend
# ---------------------------------------------------------------------------
class TestParallelFndParity:
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_condensed_parity_at_every_worker_count(
            self, powerlaw_csr, forced_sharding, rs, workers):
        sequential = decompose(powerlaw_csr, *rs, algorithm="fnd",
                               backend="csr")
        parallel = decompose(powerlaw_csr, *rs, algorithm="fnd",
                             backend="csr-parallel", workers=workers)
        assert parallel.lam == sequential.lam
        parallel.hierarchy.validate()
        assert condensed_signature(parallel.hierarchy) == \
            condensed_signature(sequential.hierarchy)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_deterministic_across_repeated_runs(
            self, powerlaw_csr, forced_sharding, rs):
        first = decompose(powerlaw_csr, *rs, algorithm="fnd",
                          backend="csr-parallel", workers=3)
        second = decompose(powerlaw_csr, *rs, algorithm="fnd",
                           backend="csr-parallel", workers=3)
        assert skeleton_signature(first.hierarchy) == \
            skeleton_signature(second.hierarchy)
        assert first.lam == second.lam

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_parity_with_every_level_farmed(
            self, powerlaw_csr, forced_sharding, monkeypatch, rs):
        monkeypatch.setattr(construct_module, "MIN_LEVEL_SLOTS", 0)
        sequential = decompose(powerlaw_csr, *rs, algorithm="fnd",
                               backend="csr")
        parallel = decompose(powerlaw_csr, *rs, algorithm="fnd",
                             backend="csr-parallel", workers=2)
        assert parallel.lam == sequential.lam
        assert condensed_signature(parallel.hierarchy) == \
            condensed_signature(sequential.hierarchy)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_sweep_two_workers(self, forced_sharding, seed):
        csr = random_csr(seed)
        for rs in RS_PAIRS:
            sequential = decompose(csr, *rs, algorithm="fnd", backend="csr")
            parallel = decompose(csr, *rs, algorithm="fnd",
                                 backend="csr-parallel", workers=2)
            assert parallel.lam == sequential.lam, (seed, rs)
            assert condensed_signature(parallel.hierarchy) == \
                condensed_signature(sequential.hierarchy), (seed, rs)

    def test_single_core_hosts_degrade_to_sequential_path(
            self, powerlaw_csr, monkeypatch):
        monkeypatch.setenv(FORCE_SHARDING_ENV, "0")
        monkeypatch.setattr(bulk_module, "POOL_CROSSOVER_EDGES", 0)
        monkeypatch.setattr(
            "repro.parallel.pool.WorkerPool",
            _RaisingPool)  # the degraded path must never build a pool
        sequential = decompose(powerlaw_csr, 2, 3, algorithm="fnd",
                               backend="csr")
        degraded = decompose(powerlaw_csr, 2, 3, algorithm="fnd",
                             backend="csr-parallel", workers=4)
        assert degraded.lam == sequential.lam
        assert condensed_signature(degraded.hierarchy) == \
            condensed_signature(sequential.hierarchy)

    def test_workers_one_never_builds_a_pool(
            self, powerlaw_csr, forced_sharding, monkeypatch):
        monkeypatch.setattr("repro.parallel.pool.WorkerPool", _RaisingPool)
        result = decompose(powerlaw_csr, 1, 2, algorithm="fnd",
                           backend="csr-parallel", workers=1)
        sequential = decompose(powerlaw_csr, 1, 2, algorithm="fnd",
                               backend="csr")
        assert result.lam == sequential.lam


class _RaisingPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool must not be built on this path")


# ---------------------------------------------------------------------------
# sparse pool-farmed decrements
# ---------------------------------------------------------------------------
class TestSparseShardedDecrement:
    @pytest.fixture
    def every_round_farmed(self, monkeypatch):
        monkeypatch.setattr(bulk_module, "MIN_SHARD_SLOTS", 0)

    def test_merge_sparse_decrements_sums_overlaps(self):
        empty = np.empty(0, dtype=np.int64)
        targets, counts = merge_sparse_decrements([
            (empty, empty),
            (np.array([2, 5], dtype=np.int64),
             np.array([1, 3], dtype=np.int64)),
            (np.array([5, 9], dtype=np.int64),
             np.array([2, 1], dtype=np.int64)),
        ])
        assert targets.tolist() == [2, 5, 9]
        assert counts.tolist() == [1, 5, 1]
        targets, counts = merge_sparse_decrements([(empty, empty)])
        assert len(targets) == 0 and len(counts) == 0

    def test_farmed_rounds_match_sequential(self, powerlaw_csr,
                                            every_round_farmed):
        with WorkerPool(2) as pool:
            assert bulk_core_peel(powerlaw_csr, pool).lam == \
                core_peel(powerlaw_csr, backend="object").lam
            assert bulk_truss_peel(powerlaw_csr, pool).lam == \
                truss_peel(powerlaw_csr, backend="object").lam

    def test_farmed_nucleus34_matches_sequential(self, every_round_farmed):
        csr = as_backend(generators.powerlaw_cluster(150, 6, 0.6, seed=2),
                         "csr")
        with WorkerPool(3) as pool:
            assert bulk_nucleus34_peel(csr, pool).lam == \
                nucleus34_peel(csr, backend="object").lam
