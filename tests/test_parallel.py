"""The shared-memory parallel subsystem: parity, pooling, edge cases.

Covers the four layers of :mod:`repro.parallel`:

* shm — zero-copy bundle round-trips (in-process and cross-process) and
  the shared rooted forest;
* kernels — decrement/sharding helpers against brute-force oracles;
* bulk — round-synchronous peel λ parity with the object engine,
  in-process and through a real worker pool (sharding forced and the
  pool gate lowered, so the worker protocol is exercised on any host);
* dispatch — the ``csr-parallel`` backend, worker-count resolution and
  validation, and the guarantee that ``workers=1`` never spawns a pool.
"""

from __future__ import annotations

import multiprocessing
import random

import numpy as np
import pytest

import repro.parallel.bulk as bulk_module
from repro.backends import (
    BACKENDS,
    as_backend,
    core_peel,
    decompose,
    nucleus34_peel,
    resolve_backend,
    truss_peel,
)
from repro.core.csr_peel import nucleus34_incidence
from repro.core.disjoint_set import ArrayRootedForest
from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.graph.csr import (
    CSRGraph,
    csr_k4_triangle_ids,
    csr_triangle_edge_ids,
)
from repro.parallel import (
    WORKERS_ENV,
    SharedArrayBundle,
    SharedRootedForest,
    WorkerPool,
    bulk_core_peel,
    bulk_nucleus34_peel,
    bulk_truss_peel,
    parallel_triangle_edge_ids,
    parallel_truss_incidence,
    resolve_workers,
    share_forest,
    weighted_cuts,
)
from repro.parallel.bulk import FORCE_SHARDING_ENV, sharding_effective
from repro.parallel.incidence import parallel_nucleus34_incidence


def random_csr(seed: int, max_n: int = 60) -> CSRGraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p = rng.choice([0.05, 0.2, 0.4])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return CSRGraph(n, edges)


@pytest.fixture(scope="module")
def powerlaw_csr() -> CSRGraph:
    graph = generators.powerlaw_cluster(600, 8, 0.6, seed=5)
    return as_backend(graph, "csr")


@pytest.fixture
def forced_sharding(monkeypatch):
    """Exercise the worker protocol even on single-core hosts, at any
    input size."""
    monkeypatch.setenv(FORCE_SHARDING_ENV, "1")
    monkeypatch.setattr(bulk_module, "POOL_CROSSOVER_EDGES", 0)


# ---------------------------------------------------------------------------
# shm layer
# ---------------------------------------------------------------------------
class TestSharedMemory:
    def test_bundle_round_trip_same_process(self):
        arrays = {"a": np.arange(10, dtype=np.int64),
                  "b": np.array([7], dtype=np.int64),
                  "empty": np.empty(0, dtype=np.int64)}
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.spec)
            for key, arr in arrays.items():
                assert np.array_equal(attached[key], arr)
            # writes through the attached view are visible to the owner
            attached["a"][3] = 99
            assert bundle["a"][3] == 99
            attached.close()

    def test_bundle_cross_process_write(self):
        def child(spec, done):
            attached = SharedArrayBundle.attach(spec)
            attached["a"][...] = attached["a"] * 2
            attached.close()
            done.send("ok")
            done.close()

        ctx = multiprocessing.get_context()
        with SharedArrayBundle.create(
                {"a": np.arange(5, dtype=np.int64)}) as bundle:
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=child, args=(bundle.spec, child_end))
            proc.start()
            assert parent_end.recv() == "ok"
            proc.join(timeout=10)
            assert bundle["a"].tolist() == [0, 2, 4, 6, 8]

    def test_unlink_frees_segments(self):
        bundle = SharedArrayBundle.create(
            {"a": np.arange(4, dtype=np.int64)})
        spec = bundle.spec
        bundle.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArrayBundle.attach(spec)

    def test_shared_forest_matches_array_forest(self):
        forest = ArrayRootedForest()
        nodes = [forest.make_node() for _ in range(8)]
        forest.union(nodes[0], nodes[1])
        forest.union(nodes[1], nodes[2])
        forest.attach(forest.find(nodes[3]), nodes[4])
        shared = share_forest(forest, capacity=12)
        with shared.bundle:
            assert len(shared) == len(forest)
            for node in nodes:
                assert shared.find(node, compress=False) == \
                    forest.find(node, compress=False)
            # keeps working as a forest: new nodes + unions in shared memory
            extra = shared.make_node()
            shared.union(extra, nodes[0])
            attached = SharedRootedForest.attach(shared.bundle.spec,
                                                 shared.size)
            assert attached.find(extra) == shared.find(extra)
            attached.bundle.close()
            round_trip = shared.to_array_forest()
            assert round_trip.parent[:len(forest)] != [] \
                and len(round_trip) == shared.size

    def test_shared_forest_capacity_exhausted(self):
        shared = share_forest(ArrayRootedForest(), capacity=1)
        with shared.bundle:
            shared.make_node()
            with pytest.raises(IndexError):
                shared.make_node()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
class TestKernels:
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_weighted_cuts_cover_and_monotone(self, parts):
        rng = random.Random(parts)
        weights = np.array([rng.randint(0, 50) for _ in range(23)])
        cuts = weighted_cuts(weights, parts)
        assert cuts[0] == 0 and cuts[-1] == len(weights)
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))
        assert len(cuts) == max(parts, 1) + 1

    def test_weighted_cuts_empty_and_zero_weights(self):
        assert weighted_cuts(np.empty(0, dtype=np.int64), 3)[-1] == 0
        cuts = weighted_cuts(np.zeros(10, dtype=np.int64), 2)
        assert cuts[0] == 0 and cuts[-1] == 10


# ---------------------------------------------------------------------------
# vectorised K4 listing (the incidence set-up the workers shard)
# ---------------------------------------------------------------------------
class TestVectorisedK4:
    @pytest.mark.parametrize("seed", range(6))
    def test_numpy_k4_equals_python(self, seed):
        csr = random_csr(seed, max_n=40)
        assert csr_k4_triangle_ids(csr, use_numpy=True) == \
            csr_k4_triangle_ids(csr, use_numpy=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_numpy_incidence_equals_python(self, seed):
        csr = random_csr(seed + 100, max_n=40)
        assert nucleus34_incidence(csr, use_numpy=True) == \
            nucleus34_incidence(csr, use_numpy=False)


# ---------------------------------------------------------------------------
# bulk peels, in-process
# ---------------------------------------------------------------------------
class TestBulkPeels:
    @pytest.mark.parametrize("seed", range(10))
    def test_lambda_parity_random(self, seed):
        csr = random_csr(seed)
        assert bulk_core_peel(csr).lam == core_peel(csr, backend="object").lam
        assert bulk_truss_peel(csr).lam == truss_peel(csr, backend="object").lam
        assert bulk_nucleus34_peel(csr).lam == nucleus34_peel(csr, backend="object").lam

    def test_lambda_parity_powerlaw(self, powerlaw_csr):
        assert bulk_core_peel(powerlaw_csr).lam == \
            core_peel(powerlaw_csr, backend="object").lam
        assert bulk_truss_peel(powerlaw_csr).lam == \
            truss_peel(powerlaw_csr, backend="object").lam

    def test_long_cascade_stays_linear(self):
        # a path graph peels in ~n/2 frontier rounds; the bucket-driven
        # loop must keep per-round cost proportional to the frontier, not
        # the graph (a full-array rescan per round would take minutes)
        import time

        n = 60000
        csr = CSRGraph(n, [(i, i + 1) for i in range(n - 1)])
        start = time.perf_counter()
        result = bulk_core_peel(csr)
        elapsed = time.perf_counter() - start
        assert result.lam == core_peel(csr, backend="object").lam
        assert elapsed < 10.0  # quadratic behaviour would take minutes

    def test_bulk_order_is_valid_peel_order(self, powerlaw_csr):
        result = bulk_core_peel(powerlaw_csr)
        seen = sorted(result.order)
        assert seen == list(range(powerlaw_csr.n))
        # lambda values along the order never decrease (frontier rounds
        # peel in non-decreasing k)
        lams = [result.lam[v] for v in result.order]
        assert all(a <= b for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------
# worker pool + sharded execution
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_sharded_listing_matches_sequential(self, powerlaw_csr):
        sequential = csr_triangle_edge_ids(powerlaw_csr)
        with WorkerPool(3) as pool:
            sharded = parallel_triangle_edge_ids(powerlaw_csr, pool)
        for a, b in zip(sequential, sharded):
            assert np.array_equal(a, b)

    def test_sharded_incidence_deterministic_across_worker_counts(self):
        csr = random_csr(7, max_n=50)
        with WorkerPool(2) as pool:
            two = parallel_truss_incidence(csr, pool)
        with WorkerPool(3) as pool:
            three = parallel_truss_incidence(csr, pool)
        for a, b in zip(two, three):
            assert np.array_equal(a, b)

    def test_huge_vertex_ids_fall_back_without_key_overflow(self):
        # past _MAX_KEYED_N the int64 triple keys would wrap; the parallel
        # builder must fall back to the guarded sequential path
        from repro.graph.csr import _MAX_KEYED_N

        n = _MAX_KEYED_N + 8
        clique = [(u, v) for i, u in enumerate([n - 4, n - 3, n - 2, n - 1])
                  for v in [n - 4, n - 3, n - 2, n - 1][i + 1:]]
        clique += [(u, v) for i, u in enumerate([0, 1, 2, 3])
                   for v in [0, 1, 2, 3][i + 1:]]
        csr = CSRGraph(n, clique)
        sequential = nucleus34_incidence(csr)
        with WorkerPool(2) as pool:
            triangles, sup, ptr, comps = parallel_nucleus34_incidence(
                csr, pool)
        assert triangles == sequential[0]
        assert sup.tolist() == sequential[1]

    def test_sharded_nucleus34_incidence_matches_sequential(self):
        csr = random_csr(11, max_n=45)
        with WorkerPool(2) as pool:
            triangles, sup, ptr, comps = parallel_nucleus34_incidence(
                csr, pool)
        s_tri, s_sup, s_ptr, s_comps = nucleus34_incidence(csr)
        assert triangles == s_tri
        assert sup.tolist() == s_sup and ptr.tolist() == s_ptr
        assert [c.tolist() for c in comps] == [list(c) for c in s_comps]

    def test_pool_peel_parity(self, powerlaw_csr):
        with WorkerPool(2) as pool:
            assert bulk_core_peel(powerlaw_csr, pool=pool).lam == \
                core_peel(powerlaw_csr, backend="object").lam
            assert bulk_truss_peel(powerlaw_csr, pool=pool).lam == \
                truss_peel(powerlaw_csr, backend="object").lam
            assert bulk_nucleus34_peel(powerlaw_csr, pool=pool).lam == \
                nucleus34_peel(powerlaw_csr, backend="object").lam

    def test_pool_survives_task_errors(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="unknown pool command"):
                pool.broadcast(("no-such-command",))
            # the pipes stay usable after a failed command
            pool.broadcast(("unbind",))

    def test_pool_empty_and_tiny_graphs(self):
        for n, edges in [(0, []), (1, []), (2, [(0, 1)])]:
            csr = CSRGraph(n, edges)
            with WorkerPool(2) as pool:
                assert bulk_core_peel(csr, pool=pool).lam == \
                    core_peel(csr, backend="object").lam


# ---------------------------------------------------------------------------
# backend dispatch + worker-count edge cases
# ---------------------------------------------------------------------------
class TestBackendDispatch:
    def test_backend_list_and_auto_resolution(self, powerlaw_csr):
        assert "csr-parallel" in BACKENDS
        # the parallel engine is never auto-selected
        assert resolve_backend(powerlaw_csr, None) == "csr"
        assert resolve_backend(powerlaw_csr.to_object(), None) == "object"
        assert isinstance(as_backend(powerlaw_csr.to_object(),
                                     "csr-parallel"), CSRGraph)

    def test_peel_parity_through_backend(self, powerlaw_csr,
                                         forced_sharding):
        for func in (core_peel, truss_peel, nucleus34_peel):
            expected = func(powerlaw_csr, backend="object").lam
            assert func(powerlaw_csr, backend="csr-parallel",
                        workers=1).lam == expected
            assert func(powerlaw_csr, backend="csr-parallel",
                        workers=2).lam == expected

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_decompose_condensed_hierarchy_parity(self, rs,
                                                  forced_sharding):
        graph = generators.powerlaw_cluster(400, 7, 0.6, seed=9)
        csr = as_backend(graph, "csr")
        r, s = rs
        sequential = decompose(csr, r, s, algorithm="fnd", backend="csr")
        parallel = decompose(csr, r, s, algorithm="fnd",
                             backend="csr-parallel", workers=2)
        assert sequential.lam == parallel.lam
        assert sequential.hierarchy.canonical_nuclei() == \
            parallel.hierarchy.canonical_nuclei()
        seq_tree = sequential.hierarchy.condense()
        par_tree = parallel.hierarchy.condense()
        assert sorted((node.k, tuple(sorted(
            seq_tree.subtree_cells(node.id)))) for node in seq_tree.nodes) \
            == sorted((node.k, tuple(sorted(
                par_tree.subtree_cells(node.id)))) for node in par_tree.nodes)

    @pytest.mark.parametrize("bad", [0, -1, -100, 1.5, "three", True])
    def test_invalid_worker_counts_raise(self, bad, powerlaw_csr):
        with pytest.raises(InvalidParameterError):
            resolve_workers(bad)
        with pytest.raises(InvalidParameterError):
            core_peel(powerlaw_csr, backend="csr-parallel", workers=bad)

    def test_workers_env_resolution(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit beats the environment
        monkeypatch.setenv(WORKERS_ENV, "  4 ")
        assert resolve_workers(None) == 4
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("raw", ["zero", "2.5", "-3", "0"])
    def test_workers_env_invalid_values_raise(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(InvalidParameterError):
            resolve_workers(None)

    def test_workers_one_spawns_no_pool(self, monkeypatch, powerlaw_csr):
        def boom(*args, **kwargs):
            raise AssertionError("a process pool was spawned for workers=1")

        monkeypatch.setattr("repro.parallel.pool.WorkerPool.__init__", boom)
        expected = core_peel(powerlaw_csr, backend="object").lam
        assert core_peel(powerlaw_csr, backend="csr-parallel",
                         workers=1).lam == expected
        assert decompose(powerlaw_csr, 2, 3, backend="csr-parallel",
                         workers=1).lam == \
            decompose(powerlaw_csr, 2, 3, backend="csr").lam

    def test_workers_env_feeds_backend_dispatch(self, monkeypatch,
                                                powerlaw_csr):
        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setenv(FORCE_SHARDING_ENV, "1")
        monkeypatch.setattr(bulk_module, "POOL_CROSSOVER_EDGES", 0)
        result = core_peel(powerlaw_csr, backend="csr-parallel")
        assert result.lam == core_peel(powerlaw_csr, backend="object").lam

    def test_sharding_effective_override(self, monkeypatch):
        monkeypatch.setenv(FORCE_SHARDING_ENV, "1")
        assert sharding_effective() is True
        monkeypatch.setenv(FORCE_SHARDING_ENV, "off")
        assert sharding_effective() is False
        monkeypatch.delenv(FORCE_SHARDING_ENV)
        from repro.parallel.bulk import _available_cpus
        assert sharding_effective() == (_available_cpus() >= 2)

    def test_single_core_hosts_degrade_to_bulk(self, monkeypatch,
                                               powerlaw_csr):
        # with sharding off, a multi-worker request must not spawn a pool
        monkeypatch.setenv(FORCE_SHARDING_ENV, "0")
        monkeypatch.setattr(bulk_module, "POOL_CROSSOVER_EDGES", 0)

        def boom(*args, **kwargs):
            raise AssertionError("pool spawned although sharding is off")

        monkeypatch.setattr("repro.parallel.pool.WorkerPool.__init__", boom)
        result = core_peel(powerlaw_csr, backend="csr-parallel", workers=4)
        assert result.lam == core_peel(powerlaw_csr, backend="object").lam
