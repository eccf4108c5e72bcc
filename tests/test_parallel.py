"""The ``csr`` engine's listing threads: parity, threaded listing, edge cases.

Covers:

* the chunk helper that splits the listing kernels' work into ranges;
* the vectorised K₄ listing, the round decrement kernel and the
  in-process bulk peel against brute-force oracles and the object
  engine;
* the thread pool behind ``workers=``: the triangle and K₄ listings
  and incidences at any worker count equal the single-worker arrays byte
  for byte, the thread count never exceeds the CPUs in the affinity
  mask, and no process is ever started;
* dispatch — ``workers=`` on ``backend="csr"``, worker-count resolution
  and validation on every backend and variant peel, the rejection of
  unknown backend names, and the guarantee that one worker never builds
  an executor.
"""

from __future__ import annotations

import multiprocessing.process
import os
import random
import sys
import threading
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import repro.graph.csr as csr_module
from repro.backends import (
    BACKENDS,
    WORKERS_ENV,
    as_backend,
    build_query_index,
    core_peel,
    decompose,
    directed_core_peel,
    nucleus34_peel,
    resolve_backend,
    resolve_workers,
    temporal_core_peel,
    temporal_core_sweep,
    truss_peel,
    uncertain_core_peel,
    weighted_core_peel,
)
from repro.cli import main
from repro.core.csr_peel import (
    incidence_arrays,
    nucleus34_incidence,
    nucleus34_incidence_arrays,
    truss_incidence_arrays,
)
from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.cliques import four_cliques, triangles
from repro.graph.directed import DirectedGraph
from repro.graph.temporal import TemporalGraph
from repro.graph.csr import (
    CSRGraph,
    _chunk_starts,
    csr_k4_arrays,
    csr_k4_triangle_ids,
    csr_triangle_edge_ids,
    triangle_tuples,
)
from repro.parallel import bulk_peel, incidence_decrement

from _graphs import GENERATOR_SUITE, assert_same_bytes


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
def eight_cpus(monkeypatch):
    """Let the listing use up to 8 threads whatever the host's affinity
    mask, so the 3- and 8-thread range splits run on any host."""
    monkeypatch.setattr(csr_module, "available_cpus", lambda: 8)


class InlineExecutor:
    """A stand-in for ``ThreadPoolExecutor`` that records ``max_workers``
    and runs ``map`` in the calling thread."""

    def __init__(self, created: list, max_workers: int):
        created.append(max_workers)

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_executor(monkeypatch) -> list:
    """Replace the listing's executor; returns the recorded ``max_workers``."""
    created: list = []
    monkeypatch.setattr(
        csr_module, "ThreadPoolExecutor",
        lambda max_workers: InlineExecutor(created, max_workers))
    return created


def _refuse_threads(*args, **kwargs):
    raise AssertionError("this path must not build a pool or start a thread")


def _listings(csr: CSRGraph, workers: int) -> tuple:
    return (csr_triangle_edge_ids(csr, workers), csr_k4_arrays(csr, workers),
            truss_incidence_arrays(csr, workers),
            nucleus34_incidence_arrays(csr, workers))


# ---------------------------------------------------------------------------
# the chunk helper
# ---------------------------------------------------------------------------
class TestKernels:
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_chunk_starts_cover_and_monotone(self, parts):
        rng = random.Random(parts)
        weights = np.array([rng.randint(0, 50) for _ in range(23)])
        cuts = _chunk_starts(weights, parts)
        assert cuts[0] == 0 and cuts[-1] == len(weights)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        # at least `parts` ranges, none heavier than its share unless a
        # single entry is
        assert len(cuts) - 1 >= parts
        share = int(weights.sum()) // parts
        for lo, hi in zip(cuts, cuts[1:]):
            assert hi - lo == 1 or int(weights[lo:hi].sum()) <= share

    def test_chunk_starts_empty_and_zero_weights(self):
        assert _chunk_starts(np.empty(0, dtype=np.int64), 3) == [0]
        assert _chunk_starts(np.zeros(10, dtype=np.int64), 2) == [0, 10]

    def test_chunk_starts_budget_splits_by_threads(self, monkeypatch):
        monkeypatch.setattr(csr_module, "_KERNEL_CHUNK_PAIRS", 100)
        weights = np.full(40, 10, dtype=np.int64)
        for parts in (1, 2, 4):
            cuts = _chunk_starts(weights, parts)
            sums = [int(weights[lo:hi].sum())
                    for lo, hi in zip(cuts, cuts[1:])]
            assert max(sums) <= 100 // parts
            assert sum(sums) == 400


# ---------------------------------------------------------------------------
# vectorised K4 listing (the incidence set-up the workers shard)
# ---------------------------------------------------------------------------
def reference_k4(graph: Graph):
    """Lex triangles and the K₄ triangle-id rows, from the object graph's
    pure-python clique listings: ``(triangles, (q1, q2, q3, q4))``."""
    tris = sorted(triangles(graph))
    tri_id = {tri: tid for tid, tri in enumerate(tris)}
    rows = [(tri_id[(u, v, w)], tri_id[(u, v, x)], tri_id[(u, w, x)],
             tri_id[(v, w, x)])
            for u, v, w, x in sorted(four_cliques(graph))]
    return tris, tuple(list(column) for column in zip(*rows)) or ([],) * 4


def reference_nucleus34_incidence(graph: Graph):
    """The triangle→K₄ incidence filled clique by clique from
    :func:`reference_k4`: ``(triangles, sup, ptr, comps)``."""
    tris, quads = reference_k4(graph)
    slots: list[list[tuple[int, ...]]] = [[] for _ in tris]
    for quad in zip(*quads):
        for i, tid in enumerate(quad):
            slots[tid].append(quad[:i] + quad[i + 1:])
    sup = [len(rows) for rows in slots]
    ptr = [0, *accumulate(sup)]
    comps = tuple([row[j] for rows in slots for row in rows]
                  for j in range(3))
    return tris, sup, ptr, comps


class TestVectorisedK4:
    @pytest.mark.parametrize("seed", range(6))
    def test_numpy_k4_equals_python(self, seed):
        csr = random_csr(seed, max_n=40)
        assert csr_k4_triangle_ids(csr) == \
            reference_k4(Graph(csr.n, csr.edges()))

    @pytest.mark.parametrize("seed", range(4))
    def test_numpy_incidence_equals_python(self, seed):
        csr = random_csr(seed + 100, max_n=40)
        assert nucleus34_incidence(csr) == \
            reference_nucleus34_incidence(Graph(csr.n, csr.edges()))


# ---------------------------------------------------------------------------
# the bulk peel, in-process
# ---------------------------------------------------------------------------
class TestBulkPeels:
    @pytest.mark.parametrize("seed", range(10))
    def test_lambda_parity_random(self, seed):
        csr = random_csr(seed)
        assert bulk_peel(csr, 1, 2).lam == core_peel(csr, backend="object").lam
        assert bulk_peel(csr, 2, 3).lam == truss_peel(csr, backend="object").lam
        assert bulk_peel(csr, 3, 4).lam == \
            nucleus34_peel(csr, backend="object").lam

    def test_lambda_parity_powerlaw(self, powerlaw_csr):
        assert bulk_peel(powerlaw_csr, 1, 2).lam == \
            core_peel(powerlaw_csr, backend="object").lam
        assert bulk_peel(powerlaw_csr, 2, 3).lam == \
            truss_peel(powerlaw_csr, backend="object").lam

    def test_long_cascade_stays_linear(self):
        # a path graph peels in ~n/2 frontier rounds; the bucket-driven
        # loop must keep per-round cost proportional to the frontier, not
        # the graph (a full-array rescan per round would take minutes)
        import time

        n = 60000
        csr = CSRGraph(n, [(i, i + 1) for i in range(n - 1)])
        start = time.perf_counter()
        result = bulk_peel(csr, 1, 2)
        elapsed = time.perf_counter() - start
        assert result.lam == core_peel(csr, backend="object").lam
        assert elapsed < 10.0  # quadratic behaviour would take minutes

    def test_support_gaps_cost_no_memory(self):
        # buckets exist only for the support levels present: two cells
        # 2·10⁵ levels apart, with no s-clique between them (an empty
        # incidence), peel in two rounds with no per-level state
        import tracemalloc

        from repro.parallel.bulk import _round_loop

        sup = np.array([200_000, 0], dtype=np.int64)
        ptr = np.zeros(3, dtype=np.int64)
        comps = (np.empty(0, dtype=np.int64),)
        tracemalloc.start()
        try:
            lam, max_lambda, order = _round_loop(sup, ptr, comps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert lam.tolist() == [200_000, 0] and max_lambda == 200_000
        assert order.tolist() == [1, 0]

    def test_star_parity(self):
        # a hub of degree 3000, in a K₉ with eight of its leaves: supports
        # 1 and 3000 at (1,2), two λ levels at (1,2) and (2,3)
        leaves = 3000
        graph = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)]
                      + [(u, v) for u in range(1, 9) for v in range(u + 1, 9)])
        csr = as_backend(graph, "csr")
        assert bulk_peel(csr, 1, 2).lam == \
            core_peel(graph, backend="object").lam
        for (r, s), k9_lambda in (((1, 2), 8), ((2, 3), 7)):
            want = decompose(graph, r, s, backend="object")
            got = decompose(csr, r, s, backend="csr")
            assert got.lam == want.lam
            assert got.max_lambda == want.max_lambda == k9_lambda
            assert got.hierarchy.canonical_nuclei() == \
                want.hierarchy.canonical_nuclei()

    def test_bulk_order_is_valid_peel_order(self, powerlaw_csr):
        result = bulk_peel(powerlaw_csr, 1, 2)
        seen = sorted(result.order)
        assert seen == list(range(powerlaw_csr.n))
        # lambda values along the order never decrease (frontier rounds
        # peel in non-decreasing k)
        lams = [result.lam[v] for v in result.order]
        assert all(a <= b for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------
# the round decrement kernel
# ---------------------------------------------------------------------------
class TestDecrementKernel:
    """:func:`incidence_decrement` against a per-clique rule, from random
    mid-peel states at every (r, s)."""

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)],
                             ids=["12", "23", "34"])
    @pytest.mark.parametrize("graph", GENERATOR_SUITE,
                             ids=[g.name for g in GENERATOR_SUITE])
    def test_matches_per_clique_rule(self, graph, rs):
        _, _, ptr, comps = incidence_arrays(as_backend(graph, "csr"), *rs)
        size = len(ptr) - 1
        cliques = sorted({tuple(sorted([cell, *(int(c[slot]) for c in comps)]))
                          for cell in range(size)
                          for slot in range(ptr[cell], ptr[cell + 1])})
        rng = random.Random(f"{graph.name}-{rs}")
        for rnd in range(4):
            # cells peeled in earlier rounds, this round's frontier, and
            # the rest alive; then whole cliques pulled into the frontier,
            # so same-level cells share cliques
            peel_round = np.array(
                [rng.randrange(rnd) if rnd and draw < 0.2
                 else rnd if draw < 0.45 else -1
                 for draw in (rng.random() for _ in range(size))],
                dtype=np.int64)
            for clique in rng.sample(cliques, min(3, len(cliques))):
                peel_round[[c for c in clique if peel_round[c] < 0]] = rnd
            frontier = np.flatnonzero(peel_round == rnd)
            want: Counter = Counter()
            for clique in cliques:
                rounds = peel_round[list(clique)]
                if ((rounds >= 0) & (rounds < rnd)).any():
                    continue  # spent in an earlier round: decrements nothing
                if (rounds == rnd).any():
                    # its smallest frontier id owns it: each live cell
                    # loses one, however many frontier cells it holds
                    want.update(c for c, x in zip(clique, rounds) if x < 0)
            targets, counts = incidence_decrement(ptr, comps, peel_round,
                                                  frontier, rnd)
            assert targets.tolist() == sorted(want)
            assert counts.tolist() == [want[c] for c in sorted(want)]


# ---------------------------------------------------------------------------
# the listing thread pool
# ---------------------------------------------------------------------------
class TestWorkerPool:
    """The thread pool the ``csr`` listing maps its ranges over."""

    def test_sharded_listing_matches_sequential(self, powerlaw_csr,
                                                eight_cpus):
        sequential = csr_triangle_edge_ids(powerlaw_csr)
        assert_same_bytes(csr_triangle_edge_ids(powerlaw_csr, 3), sequential)

    def test_sharded_incidence_deterministic_across_worker_counts(
            self, eight_cpus):
        csr = random_csr(7, max_n=50)
        assert_same_bytes(truss_incidence_arrays(csr, 2),
                          truss_incidence_arrays(csr, 3))

    def test_huge_vertex_ids_match_unshifted_graph(self):
        # two layouts past the old 2**21-vertex cliff: every id shifted by
        # 2**21, and ids ending at 2**21 + 15, where (u·n + v)·n + w triple
        # keys pass 2**63 for some triangles and not for others.  The
        # eid(u, v)·n + w keys stay below m·n, so each shifted graph (its
        # low vertices isolated) takes the one listing path and, its cell
        # ids unchanged, gets the unshifted graph's answers
        graph = generators.powerlaw_cluster(80, 6, 0.6, seed=3)
        base = as_backend(graph, "csr")
        expected = {rs: decompose(graph, *rs, backend="object")
                    for rs in ((2, 3), (3, 4))}
        for shift in (1 << 21, (1 << 21) + 16 - base.n):
            huge = CSRGraph.from_arrays(base.n + shift, base.esrc + shift,
                                        base.etgt + shift)
            for (r, s), want in expected.items():
                assert want.max_lambda > 1
                for workers in (1, 2):
                    got = decompose(huge, r, s, backend="csr",
                                    workers=workers)
                    where = (shift, r, s, workers)
                    assert got.lam == want.lam, where
                    assert got.hierarchy.canonical_nuclei() == \
                        want.hierarchy.canonical_nuclei(), where

    def test_sharded_nucleus34_incidence_matches_sequential(self,
                                                            eight_cpus):
        csr = random_csr(11, max_n=45)
        triangles, sup, ptr, comps = nucleus34_incidence_arrays(csr, 2)
        s_tri, s_sup, s_ptr, s_comps = nucleus34_incidence(csr)
        assert triangles.dtype == np.int64 and triangles.shape == \
            (len(s_tri), 3)
        assert triangle_tuples(triangles) == s_tri
        assert sup.tolist() == s_sup and ptr.tolist() == s_ptr
        assert [c.tolist() for c in comps] == list(s_comps)

    def test_pool_peel_parity(self, powerlaw_csr, eight_cpus):
        assert bulk_peel(powerlaw_csr, 2, 3, 2).lam == \
            truss_peel(powerlaw_csr, backend="object").lam
        assert bulk_peel(powerlaw_csr, 3, 4, 2).lam == \
            nucleus34_peel(powerlaw_csr, backend="object").lam

    def test_pool_survives_task_errors(self, powerlaw_csr, monkeypatch,
                                       eight_cpus):
        real = csr_module.triangle_pair_kernel
        calls = []

        def failing_kernel(*args):
            calls.append(args[-2:])
            if len(calls) == 2:
                raise RuntimeError("kernel range failed")
            return real(*args)

        monkeypatch.setattr(csr_module, "triangle_pair_kernel",
                            failing_kernel)
        with pytest.raises(RuntimeError, match="kernel range failed"):
            csr_triangle_edge_ids(powerlaw_csr, 2)
        monkeypatch.setattr(csr_module, "triangle_pair_kernel", real)
        # a failed range leaves nothing behind: the next listing is whole
        assert_same_bytes(csr_triangle_edge_ids(powerlaw_csr, 2),
                          csr_triangle_edge_ids(powerlaw_csr))

    def test_pool_empty_and_tiny_graphs(self, eight_cpus):
        for n, edges in [(0, []), (1, []), (2, [(0, 1)]),
                         (3, [(0, 1), (1, 2), (0, 2)])]:
            csr = CSRGraph(n, edges)
            for (r, s), peel in (((2, 3), truss_peel),
                                 ((3, 4), nucleus34_peel)):
                assert bulk_peel(csr, r, s, 2).lam == \
                    peel(csr, backend="object").lam

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_no_process_is_started(self, rs, monkeypatch):
        def no_process(self):
            raise AssertionError("the csr listing started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_process)
        graph = as_backend(generators.powerlaw_cluster(200, 6, 0.6, seed=2),
                           "csr")
        parallel = decompose(graph, *rs, backend="csr", workers=4)
        sequential = decompose(graph, *rs, backend="csr", workers=1)
        assert parallel.lam == sequential.lam
        assert parallel.hierarchy.canonical_nuclei() == \
            sequential.hierarchy.canonical_nuclei()

    def test_threads_capped_by_affinity_mask(self, powerlaw_csr, monkeypatch,
                                             inline_executor):
        monkeypatch.setattr(threading.Thread, "start", _refuse_threads)
        want = _listings(powerlaw_csr, 1)
        assert inline_executor == []
        assert_same_bytes(_listings(powerlaw_csr, 10**6), want)
        cpus = len(os.sched_getaffinity(0))
        assert all(count <= cpus for count in inline_executor)
        if cpus > 1:
            assert inline_executor
        # a wider mask widens the pool, never past the request
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 3)
        inline_executor.clear()
        assert_same_bytes(_listings(powerlaw_csr, 10**6), want)
        assert inline_executor and set(inline_executor) == {3}
        inline_executor.clear()
        assert_same_bytes(_listings(powerlaw_csr, 2), want)
        assert inline_executor and set(inline_executor) == {2}

    def test_many_threads_under_fast_switching(self, powerlaw_csr,
                                               eight_cpus):
        # more threads than cores, switching as often as the interpreter
        # allows: the kernels share their inputs read-only and each range
        # returns its own arrays, so no interleaving can change the bytes
        want = _listings(powerlaw_csr, 1)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert_same_bytes(_listings(powerlaw_csr, 8), want)
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("name", ["edgeless", "star", "k5",
                                      "few-forward-runs"])
    def test_listings_equal_single_worker(self, name, workers, eight_cpus):
        graphs = {
            "edgeless": CSRGraph(6, []),
            "star": CSRGraph(9, [(0, v) for v in range(1, 9)]),
            "k5": CSRGraph(5, [(u, v) for u in range(5)
                               for v in range(u + 1, 5)]),
            # K4 plus a tail: 3 non-empty forward runs, fewer than threads
            "few-forward-runs": CSRGraph(6, [(0, 1), (0, 2), (0, 3), (1, 2),
                                             (1, 3), (2, 3), (3, 4),
                                             (4, 5)]),
        }
        csr = graphs[name]
        assert_same_bytes(_listings(csr, workers), _listings(csr, 1))


# ---------------------------------------------------------------------------
# backend dispatch + worker-count edge cases
# ---------------------------------------------------------------------------
class TestBackendDispatch:
    def test_backend_list_and_auto_resolution(self, powerlaw_csr):
        assert BACKENDS == ("object", "csr", "disk")
        assert resolve_backend(powerlaw_csr, None) == "csr"
        assert resolve_backend(powerlaw_csr.to_object(), None) == "object"
        assert isinstance(as_backend(powerlaw_csr.to_object(), "csr"),
                          CSRGraph)

    def test_retired_backend_name_is_rejected(self, powerlaw_csr):
        # threads are a csr option, not an engine: the old name is gone
        # with no alias, from every entry point
        graph = generators.complete_graph(5)
        named = r"choose from \('object', 'csr', 'disk'\)"
        calls = [
            lambda: core_peel(powerlaw_csr, backend="csr-parallel"),
            lambda: decompose(graph, 2, 3, backend="csr-parallel"),
            lambda: build_query_index(graph, backend="csr-parallel",
                                      workers=2),
            lambda: weighted_core_peel(graph, [1.0] * graph.m,
                                       backend="csr-parallel"),
            lambda: directed_core_peel(DirectedGraph(3, [(0, 1), (1, 2)]),
                                       backend="csr-parallel"),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError, match=named):
                call()

    def test_retired_backend_name_is_a_cli_usage_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["decompose", str(path), "--backend", "csr-parallel"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'csr-parallel'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
    def test_bad_workers_rejected_on_every_backend(self, bad):
        graph = generators.complete_graph(5)
        directed = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        temporal = TemporalGraph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        for backend in BACKENDS:
            calls = [
                lambda: core_peel(graph, backend=backend, workers=bad),
                lambda: truss_peel(graph, backend=backend, workers=bad),
                lambda: nucleus34_peel(graph, backend=backend, workers=bad),
                lambda: decompose(graph, 2, 3, backend=backend,
                                  workers=bad),
                lambda: build_query_index(graph, backend=backend,
                                          workers=bad),
                lambda: weighted_core_peel(graph, [1.0] * graph.m,
                                           backend=backend, workers=bad),
                lambda: uncertain_core_peel(graph, [0.5] * graph.m,
                                            backend=backend, workers=bad),
            ]
            for call in calls:
                with pytest.raises(InvalidParameterError, match="workers"):
                    call()
        # the flat-native variant graphs have no disk representation
        for backend in (None, "object", "csr"):
            for call in (
                    lambda: directed_core_peel(directed, backend=backend,
                                               workers=bad),
                    lambda: temporal_core_peel(temporal, backend=backend,
                                               workers=bad),
                    lambda: temporal_core_sweep(temporal, backend=backend,
                                                workers=bad)):
                with pytest.raises(InvalidParameterError, match="workers"):
                    call()

    def test_peel_parity_through_backend(self, powerlaw_csr):
        for func in (core_peel, truss_peel, nucleus34_peel):
            expected = func(powerlaw_csr, backend="object").lam
            assert func(powerlaw_csr, backend="csr",
                        workers=1).lam == expected
            assert func(powerlaw_csr, backend="csr",
                        workers=2).lam == expected

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_decompose_condensed_hierarchy_parity(self, rs):
        graph = generators.powerlaw_cluster(400, 7, 0.6, seed=9)
        csr = as_backend(graph, "csr")
        r, s = rs
        sequential = decompose(csr, r, s, algorithm="fnd", backend="csr",
                               workers=1)
        parallel = decompose(csr, r, s, algorithm="fnd", backend="csr",
                             workers=2)
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
            core_peel(powerlaw_csr, backend="csr", workers=bad)

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
        monkeypatch.setattr(csr_module, "ThreadPoolExecutor",
                            _refuse_threads)
        expected = core_peel(powerlaw_csr, backend="object").lam
        assert core_peel(powerlaw_csr, backend="csr",
                         workers=1).lam == expected
        assert decompose(powerlaw_csr, 2, 3, backend="csr",
                         workers=1).lam == \
            truss_peel(powerlaw_csr, backend="object").lam

    def test_workers_env_feeds_backend_dispatch(self, monkeypatch,
                                                powerlaw_csr,
                                                inline_executor):
        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 4)
        result = truss_peel(powerlaw_csr, backend="csr")
        assert result.lam == truss_peel(powerlaw_csr, backend="object").lam
        assert inline_executor and set(inline_executor) == {2}

    def test_single_core_hosts_degrade_to_bulk(self, monkeypatch,
                                               powerlaw_csr):
        # one CPU in the affinity mask: a multi-worker request must not
        # build a thread pool
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 1)
        monkeypatch.setattr(csr_module, "ThreadPoolExecutor",
                            _refuse_threads)
        for func in (core_peel, truss_peel, nucleus34_peel):
            result = func(powerlaw_csr, backend="csr", workers=4)
            assert result.lam == func(powerlaw_csr, backend="object").lam
