"""CSR backend: structural parity, peel parity and backend dispatch.

Every test pits :class:`CSRGraph` (and the direct peels built on it)
against the object backend, which the rest of the suite already validates
against networkx and brute-force oracles — so agreement here transitively
certifies the CSR engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_module
from repro.backends import (
    BACKENDS,
    as_backend,
    as_csr,
    as_object,
    core_peel,
    decompose,
    resolve_backend,
    truss_peel,
)
from repro.core.bucket import FlatBucketQueue
from repro.core.csr_peel import nucleus34_fill, truss_fill
from repro.core.peeling import peel
from repro.core.views import CSRTriangleView, EdgeView, VertexView, build_view
from repro.errors import InvalidGraphError, InvalidParameterError
from repro.external.diskcsr import as_diskcsr
from repro.external.engine import _disk_triangles
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.cliques import (
    edge_triangle_counts,
    triangle_k4_counts,
    triangles,
)
from repro.graph.csr import (
    CSRGraph,
    csr_edge_support,
    csr_forward_structure,
    csr_k4_arrays,
    csr_triangle_edge_ids,
    stable_order,
)
from repro.kcore.core import core_numbers, degeneracy
from repro.ktruss.truss import truss_numbers

from _graphs import (
    GENERATOR_SUITE,
    TIE_GRAPHS,
    assert_same_bytes,
    dense_small_graphs,
    reference_csr_arrays,
    reference_fill_incidence,
    reference_forward_structure,
    small_graphs,
)

_ids = [g.name for g in GENERATOR_SUITE]
_ORDER_GRAPHS = TIE_GRAPHS + GENERATOR_SUITE
_order_ids = [f"tie-{g.name}" for g in TIE_GRAPHS] + _ids

ARRAYS = ("indptr", "indices", "eids", "esrc", "etgt")


def _k4_counts_by_triple(view) -> dict:
    """ω₄ of every triangle of a (3,4) view, keyed by its vertex triple."""
    return {view.cell_vertices(tid): count
            for tid, count in enumerate(view.initial_degrees())}


def _reference_incidence_truss_peel(graph: Graph) -> list[int]:
    """λ₃ from the frontier rounds over an edge→triangle incidence built
    from the object graph's triangle listing and edge index."""
    from repro.parallel.bulk import _incidence_rounds

    index = graph.edge_index
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.m)]
    for u, v, w in triangles(graph):
        uv, uw, vw = index.id_of(u, v), index.id_of(u, w), index.id_of(v, w)
        rows[uv].append((uw, vw))
        rows[uw].append((uv, vw))
        rows[vw].append((uv, uw))
    sup = np.array([len(row) for row in rows], dtype=np.int64)
    ptr = np.concatenate(([0], np.cumsum(sup))).astype(np.int64)
    comps = tuple(np.array([pair[i] for row in rows for pair in row],
                           dtype=np.int64) for i in (0, 1))
    return _incidence_rounds(sup, ptr, comps)[0].tolist()


def _build_variants(graph: Graph) -> list[CSRGraph]:
    """Every way to build a CSR: from the edge list, from duplicated and
    reversed edges, and from the object graph."""
    edges = list(graph.edges())
    noisy = [(v, u) for u, v in reversed(edges)] + edges[::2]
    return [CSRGraph(graph.n, edges), CSRGraph(graph.n, noisy),
            CSRGraph.from_graph(graph)]


# ---------------------------------------------------------------------------
# structural parity
# ---------------------------------------------------------------------------
class TestStructure:
    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_adjacency_matches_object(self, graph):
        for csr in _build_variants(graph):
            assert (csr.n, csr.m) == (graph.n, graph.m)
            assert csr.degrees() == graph.degrees()
            for v in graph.vertices():
                assert list(csr.neighbors(v)) == graph.neighbors(v)
                assert csr.neighbor_set(v) == graph.neighbor_set(v)
            assert list(csr.edges()) == list(graph.edges())

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_edge_ids_match_edge_index(self, graph):
        index = graph.edge_index
        for csr in _build_variants(graph):
            assert len(csr.edge_index) == len(index)
            for eid in range(graph.m):
                u, v = index.endpoints(eid)
                assert csr.endpoints(eid) == (u, v)
                assert csr.edge_id(u, v) == eid
                assert csr.edge_id(v, u) == eid
                assert csr.edge_index.id_of(u, v) == eid
            assert csr.edge_id(0, graph.n + 5) is None or graph.n == 0

    def test_build_paths_agree_exactly(self):
        graph = generators.powerlaw_cluster(300, 6, 0.5, seed=2)
        expected = reference_csr_arrays(graph)
        for csr in _build_variants(graph):
            assert {key: getattr(csr, key).tolist()
                    for key in expected} == expected

    def test_duplicate_and_reversed_edges_tolerated(self):
        csr = CSRGraph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert csr.m == 2
        assert list(csr.edges()) == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(3, [(1, 1)])

    @pytest.mark.parametrize("edges", [
        [(0, 1), (5, 5), (0, 7)],  # a self loop is checked before the range
        [(0, 1), (0, 7), (1, 1)],  # the first bad edge in input order wins
        [(2, -1), (1, 1)],
        [(1, 2)] * 600 + [(2, 3)],  # well past any small-input size
    ])
    def test_bad_edges_rejected_like_graph(self, edges):
        with pytest.raises(InvalidGraphError) as expected:
            Graph(3, edges)
        with pytest.raises(InvalidGraphError) as raised:
            CSRGraph(3, edges)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("edges", [
        [(0, 1.5)],
        [(0, 1), (1.0, 2)],  # integral floats are not truncated either
        [(0, 1), ("1", 2)],
    ])
    def test_non_integer_endpoints_rejected(self, edges):
        with pytest.raises(TypeError, match="non-integer endpoint"):
            CSRGraph(3, edges)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(2, [(0, 5)])
        with pytest.raises(InvalidGraphError):
            CSRGraph(-1, [])

    @given(small_graphs())
    @settings(max_examples=40)
    def test_common_neighbors_match(self, g):
        csr = CSRGraph.from_graph(g)
        for u in range(min(g.n, 6)):
            for v in range(min(g.n, 6)):
                if u != v:
                    assert csr.common_neighbors(u, v) == g.common_neighbors(u, v)
                    assert csr.has_edge(u, v) == g.has_edge(u, v)

    def test_round_trip(self):
        graph = generators.erdos_renyi(40, 0.2, seed=1, name="rt")
        csr = as_csr(graph)
        back = as_object(csr)
        assert back == graph
        assert back.name == "rt"


# ---------------------------------------------------------------------------
# storage contract
# ---------------------------------------------------------------------------
def _all_ints(values) -> bool:
    return all(type(x) is int for x in values)


class TestStorage:
    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_int64_read_only_arrays_and_python_int_accessors(self, graph):
        csr = CSRGraph(graph.n, graph.edges())
        arrays = {key: getattr(csr, key) for key in ARRAYS}
        for key, array in arrays.items():
            assert array.dtype == np.int64, key
            assert not array.flags.writeable, key
        snapshot = {key: array.tobytes() for key, array in arrays.items()}

        assert type(csr.n) is int and type(csr.m) is int
        assert type(csr.degrees()) is list and _all_ints(csr.degrees())
        for v in csr.vertices():
            assert type(csr.degree(v)) is int
            assert type(csr.neighbors(v)) is list
            assert _all_ints(csr.neighbors(v))
            assert _all_ints(csr.neighbor_set(v))
        for eid, (u, v) in enumerate(csr.edges()):
            assert _all_ints((u, v)) and _all_ints(csr.endpoints(eid))
            assert type(csr.edge_id(u, v)) is int
            assert csr.has_edge(u, v) is True
            assert _all_ints(csr.common_neighbors(u, v))
        index = csr.edge_index
        assert type(index.source) is list and _all_ints(index.source)
        assert type(index.target) is list and _all_ints(index.target)

        # engines read the graph's own arrays: decomposing twice leaves
        # them untouched, and every answer is JSON-ready
        for r, s in ((1, 2), (2, 3), (3, 4)):
            for _ in range(2):
                result = decompose(csr, r, s)
                json.dumps(result.lam)
                json.dumps([result.view.cell_vertices(c)
                            for c in range(result.view.num_cells)])
        for key, array in arrays.items():
            assert getattr(csr, key) is array
            assert array.tobytes() == snapshot[key], key


# ---------------------------------------------------------------------------
# triangle / clique enumeration parity
# ---------------------------------------------------------------------------
class TestEnumeration:
    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_edge_support_matches(self, graph):
        # the vectorised count on a CSRGraph, the scalar merge scans on
        # the disk backend's windowed arrays
        csr = CSRGraph.from_graph(graph)
        expected = edge_triangle_counts(graph)
        assert csr_edge_support(csr) == expected
        with as_diskcsr(graph) as disk:
            assert csr_edge_support(disk) == expected

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_triangle_sets_match(self, graph):
        # the disk engine's triangle scan: each triangle once, in
        # lexicographic order, with the CSR graph's edge ids
        csr = CSRGraph.from_graph(graph)
        with as_diskcsr(graph) as disk:
            found = list(_disk_triangles(disk))
        assert [t[:3] for t in found] == sorted(set(triangles(graph)))
        for u, v, w, e_uv, e_uw, e_vw in found:
            assert (e_uv, e_uw, e_vw) == (
                csr.edge_id(u, v), csr.edge_id(u, w), csr.edge_id(v, w))

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_k4_counts_match_by_triple(self, graph):
        csr = CSRGraph.from_graph(graph)
        obj_id, obj_counts = triangle_k4_counts(graph)
        counts = _k4_counts_by_triple(CSRTriangleView(csr))
        assert {t: obj_counts[i] for t, i in obj_id.items()} == counts
        # the same listing runs over the disk backend's memory maps
        with as_diskcsr(graph) as disk:
            assert _k4_counts_by_triple(CSRTriangleView(disk)) == counts


class TestStableOrders:
    """The packed-key sorts equal the stable sorts they replaced, tie for
    tie: ``stable_order`` against ``np.argsort(kind="stable")``, and the
    forward structure and incidence fills against the lexsort and
    stable-argsort code kept in ``_graphs``."""

    @pytest.mark.parametrize("keys, size", [
        ([], 1), ([], 0), ([0], 1), ([4], 5), ([3] * 50, 4),
        ([6, 0, 6, 6, 0, 6, 3] * 9, 7), (list(range(30, -1, -1)) * 3, 31)],
        ids=["empty", "empty-no-range", "one-zero", "one-at-top",
             "all-equal", "at-size-minus-one", "descending-runs"])
    def test_stable_order_equals_stable_argsort(self, keys, size):
        keys = np.array(keys, dtype=np.int64)
        got = stable_order(keys, size)
        assert got.dtype == np.int64
        assert got.tolist() == np.argsort(keys, kind="stable").tolist()

    @given(st.integers(min_value=1, max_value=2**40).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(
            st.integers(min_value=0, max_value=size - 1), max_size=300))))
    @settings(max_examples=200, deadline=None)
    def test_stable_order_random_keys(self, case):
        size, keys = case
        keys = np.array(keys, dtype=np.int64)
        assert stable_order(keys, size).tolist() == \
            np.argsort(keys, kind="stable").tolist()

    def test_stable_order_rejects_keys_that_do_not_pack(self):
        keys = np.zeros(4, dtype=np.int64)
        assert stable_order(keys, 2**61 - 1).tolist() == [0, 1, 2, 3]
        with pytest.raises(OverflowError):
            stable_order(keys, 2**61)

    @pytest.mark.parametrize("graph", _ORDER_GRAPHS, ids=_order_ids)
    def test_forward_structure_equals_lexsort_reference(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert_same_bytes(csr_forward_structure(csr),
                                 reference_forward_structure(csr))

    @pytest.mark.parametrize("graph", _ORDER_GRAPHS, ids=_order_ids)
    def test_fills_equal_stable_argsort_reference(self, graph):
        csr = CSRGraph.from_graph(graph)
        e1, e2, e3 = csr_triangle_edge_ids(csr)
        sup, ptr, comps = truss_fill(csr.m, e1, e2, e3)
        want_sup, want_ptr, want_comps = reference_fill_incidence(
            [e1, e2, e3], [(e2, e3), (e1, e3), (e1, e2)], csr.m)
        assert_same_bytes((sup, ptr, *comps),
                                 (want_sup, want_ptr, *want_comps))
        tri_keys, (q1, q2, q3, q4) = csr_k4_arrays(csr)
        _, sup, ptr, comps = nucleus34_fill(csr, tri_keys, (q1, q2, q3, q4))
        want_sup, want_ptr, want_comps = reference_fill_incidence(
            [q1, q2, q3, q4],
            [(q2, q3, q4), (q1, q3, q4), (q1, q2, q4), (q1, q2, q3)],
            len(tri_keys))
        assert_same_bytes((sup, ptr, *comps),
                                 (want_sup, want_ptr, *want_comps))


# ---------------------------------------------------------------------------
# peel parity
# ---------------------------------------------------------------------------
class TestPeels:
    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_core_peel_matches(self, graph):
        expected = peel(VertexView(graph))
        result = core_peel(CSRGraph.from_graph(graph))
        assert result.lam == expected.lam
        assert result.max_lambda == expected.max_lambda

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_truss_peel_matches_both_strategies(self, graph):
        # the frontier rounds over the CSR engine's incidence and over one
        # built from the object graph's triangle listing
        expected = peel(EdgeView(graph))
        csr = CSRGraph.from_graph(graph)
        result = truss_peel(csr)
        assert result.lam == expected.lam
        assert _reference_incidence_truss_peel(graph) == expected.lam
        assert result.max_lambda == expected.max_lambda

    @given(small_graphs())
    @settings(max_examples=60)
    def test_core_peel_matches_random(self, g):
        assert core_peel(as_csr(g)).lam == peel(VertexView(g)).lam

    @given(dense_small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_truss_peel_matches_random(self, g):
        expected = peel(EdgeView(g)).lam
        assert truss_peel(as_csr(g)).lam == expected
        assert _reference_incidence_truss_peel(g) == expected

    def test_core_peel_order_is_degeneracy_order(self):
        g = generators.powerlaw_cluster(80, 4, 0.5, seed=9)
        result = core_peel(as_csr(g))
        position = {v: i for i, v in enumerate(result.order)}
        for v in g.vertices():
            later = sum(1 for w in g.neighbors(v) if position[w] > position[v])
            assert later <= result.max_lambda
        values = [result.lam[v] for v in result.order]
        assert values == sorted(values)

    @given(small_graphs())
    @settings(max_examples=40)
    def test_generic_peel_flat_queue_matches(self, g):
        view = VertexView(g)
        assert peel(view, queue_kind="flat").lam == peel(view).lam

    def test_flat_queue_rejects_non_unit_updates(self):
        queue = FlatBucketQueue([3, 3, 3])
        with pytest.raises(ValueError):
            queue.update(0, 1)


# ---------------------------------------------------------------------------
# cell views over CSR
# ---------------------------------------------------------------------------
class TestCSRViews:
    @given(dense_small_graphs(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_view_lambda_matches_all_rs(self, g):
        """Cell ids are representation-independent, so the λ arrays of the
        two backends must agree element-for-element on every (r, s)."""
        csr = as_csr(g)
        for r, s in ((1, 2), (2, 3), (3, 4), (1, 3)):
            obj_view = build_view(g, r, s)
            csr_view = build_view(csr, r, s)
            cells = [obj_view.cell_vertices(c)
                     for c in range(obj_view.num_cells)]
            assert cells == [csr_view.cell_vertices(c)
                             for c in range(csr_view.num_cells)]
            assert peel(obj_view).lam == peel(csr_view).lam


# ---------------------------------------------------------------------------
# backend dispatch layer
# ---------------------------------------------------------------------------
class TestBackends:
    def test_unknown_backend_rejected(self):
        g = generators.complete_graph(4)
        with pytest.raises(InvalidParameterError):
            core_peel(g, backend="gpu")
        with pytest.raises(InvalidParameterError):
            as_backend(g, "gpu")

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_peel_helpers_agree_across_backends(self, graph):
        assert core_peel(graph, "object").lam == core_peel(graph, "csr").lam
        assert truss_peel(graph, "object").lam == truss_peel(graph, "csr").lam

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_high_level_helpers_accept_both_representations(self, graph):
        csr = as_csr(graph)
        assert core_numbers(csr) == core_numbers(graph)
        assert core_numbers(graph, backend="csr") == core_numbers(graph)
        assert degeneracy(csr) == degeneracy(graph)
        assert truss_numbers(csr) == truss_numbers(graph)
        assert truss_numbers(graph, backend="csr", convention="truss") == \
            truss_numbers(graph, convention="truss")

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("algorithm", ["fnd", "dft", "naive"])
    def test_decompose_hierarchies_match(self, rs, algorithm, monkeypatch):
        # two listing threads even on single-core hosts, so the threaded
        # csr leg really runs its threaded path
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 2)
        graph = generators.powerlaw_cluster(120, 5, 0.6, seed=4)
        r, s = rs
        # the disk backend runs traversal algorithms for (1,2) only (the
        # spooled incidence is consumed by the peel); FND covers all (r,s)
        under_test = [(b, 1) for b in BACKENDS
                      if b != "disk" or algorithm == "fnd" or rs == (1, 2)]
        under_test.append(("csr", 2))
        results = {leg: decompose(graph, r, s, algorithm=algorithm,
                                  backend=leg[0], workers=leg[1])
                   for leg in under_test}
        obj = results["object", 1]
        for leg in under_test[1:]:
            other = results[leg]
            assert obj.lam == other.lam, leg
            assert obj.hierarchy.canonical_nuclei() == \
                other.hierarchy.canonical_nuclei(), leg

    def test_decompose_34_matches_elementwise(self):
        graph = generators.planted_cliques(3, 6, bridge_edges=2, seed=1)
        obj = decompose(graph, 3, 4, backend="object")
        csr = decompose(graph, 3, 4, backend="csr")
        assert obj.lam == csr.lam
        assert [obj.view.cell_vertices(c) for c in range(obj.view.num_cells)] \
            == [csr.view.cell_vertices(c) for c in range(csr.view.num_cells)]

    def test_explicit_backend_request_is_honored(self):
        g = generators.complete_graph(5)
        csr = as_csr(g)
        assert resolve_backend(csr, None) == "csr"
        assert resolve_backend(g, None) == "object"
        assert resolve_backend(csr, "object") == "object"  # not overridden
        with pytest.raises(InvalidParameterError):
            resolve_backend(g, "gpu")
        assert core_numbers(csr, backend="object") == core_numbers(csr)
