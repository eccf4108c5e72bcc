"""CSR backend: structural parity, peel parity and backend dispatch.

Every test pits :class:`CSRGraph` (and the direct peels built on it)
against the object backend, which the rest of the suite already validates
against networkx and brute-force oracles — so agreement here transitively
certifies the CSR engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

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
from repro.core.csr_peel import truss_incidence
from repro.core.peeling import peel
from repro.core.views import EdgeView, VertexView, build_view
from repro.errors import InvalidGraphError, InvalidParameterError
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.cliques import (
    edge_triangle_counts,
    triangle_k4_counts,
    triangles,
)
from repro.graph.csr import (
    HAVE_NUMPY,
    CSRGraph,
    csr_edge_support,
    csr_triangle_k4_counts,
    csr_triangles,
)
from repro.kcore.core import core_numbers, degeneracy
from repro.ktruss.truss import truss_numbers

from _graphs import dense_small_graphs, small_graphs

GENERATOR_SUITE = [
    Graph.empty(0, name="empty"),
    Graph.empty(7, name="isolated"),
    Graph(6, [(0, 1), (2, 3)], name="disconnected-edges"),
    generators.complete_graph(6, name="k6"),
    generators.path_graph(9, name="path"),
    generators.star(8, name="star"),
    generators.ring_of_cliques(4, 5, name="ring-of-cliques"),
    generators.planted_cliques(3, 6, bridge_edges=2, name="planted"),
    generators.erdos_renyi(60, 0.15, seed=3, name="er"),
    generators.barabasi_albert(120, 4, seed=5, name="ba"),
    generators.powerlaw_cluster(150, 5, 0.6, seed=9, name="plc"),
]

_ids = [g.name for g in GENERATOR_SUITE]


def _python_incidence_truss_peel(csr: CSRGraph) -> list[int]:
    """λ₃ from the frontier rounds over the pure-python incidence."""
    import numpy as np

    from repro.parallel.bulk import _bulk_incidence_peel

    sup, ptr, comp1, comp2 = (np.asarray(column, dtype=np.int64) for column
                              in truss_incidence(csr, use_numpy=False))
    return _bulk_incidence_peel(sup, ptr, (comp1, comp2), None).lam


def _build_variants(graph: Graph) -> list[CSRGraph]:
    edges = list(graph.edges())
    variants = [CSRGraph(graph.n, edges, use_numpy=False),
                CSRGraph.from_graph(graph)]
    if HAVE_NUMPY:
        variants.append(CSRGraph(graph.n, edges, use_numpy=True))
    return variants


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
        python_built, from_graph, numpy_built = (
            _build_variants(graph) if HAVE_NUMPY
            else _build_variants(graph) + [None])
        for other in (from_graph, numpy_built):
            if other is None:
                continue
            assert other.indptr == python_built.indptr
            assert other.indices == python_built.indices
            assert other.eids == python_built.eids
            assert other.esrc == python_built.esrc
            assert other.etgt == python_built.etgt

    def test_duplicate_and_reversed_edges_tolerated(self):
        csr = CSRGraph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert csr.m == 2
        assert list(csr.edges()) == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(3, [(1, 1)])
        if HAVE_NUMPY:
            with pytest.raises(InvalidGraphError):
                CSRGraph(3, [(1, 1)], use_numpy=True)

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
# triangle / clique enumeration parity
# ---------------------------------------------------------------------------
class TestEnumeration:
    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_edge_support_matches(self, graph):
        csr = CSRGraph.from_graph(graph)
        expected = edge_triangle_counts(graph)
        assert csr_edge_support(csr, use_numpy=False) == expected
        if HAVE_NUMPY:
            assert csr_edge_support(csr, use_numpy=True) == expected

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_triangle_sets_match(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert set(csr_triangles(csr)) == set(triangles(graph))

    @pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=_ids)
    def test_k4_counts_match_by_triple(self, graph):
        csr = CSRGraph.from_graph(graph)
        obj_id, obj_counts = triangle_k4_counts(graph)
        csr_id, csr_counts = csr_triangle_k4_counts(csr)
        assert {t: obj_counts[i] for t, i in obj_id.items()} == \
            {t: csr_counts[i] for t, i in csr_id.items()}


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
        # the frontier rounds over the numpy incidence and over the
        # pure-python reference incidence (the small-graph fallback)
        expected = peel(EdgeView(graph))
        csr = CSRGraph.from_graph(graph)
        result = truss_peel(csr)
        assert result.lam == expected.lam
        assert _python_incidence_truss_peel(csr) == expected.lam
        assert result.max_lambda == expected.max_lambda

    @given(small_graphs())
    @settings(max_examples=60)
    def test_core_peel_matches_random(self, g):
        assert core_peel(as_csr(g)).lam == peel(VertexView(g)).lam

    @given(dense_small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_truss_peel_matches_random(self, g):
        expected = peel(EdgeView(g)).lam
        csr = as_csr(g)
        assert truss_peel(csr).lam == expected
        assert _python_incidence_truss_peel(csr) == expected

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
        # force sharding so the csr-parallel leg really runs the worker
        # path even on single-core hosts (with the default workers=1 it
        # would silently duplicate the csr leg)
        monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
        graph = generators.powerlaw_cluster(120, 5, 0.6, seed=4)
        r, s = rs
        # the disk backend runs traversal algorithms for (1,2) only (the
        # spooled incidence is consumed by the peel); FND covers all (r,s)
        under_test = [b for b in BACKENDS
                      if b != "disk" or algorithm == "fnd" or rs == (1, 2)]
        results = {b: decompose(graph, r, s, algorithm=algorithm, backend=b,
                                workers=2 if b == "csr-parallel" else None)
                   for b in under_test}
        obj = results["object"]
        for backend in under_test[1:]:
            other = results[backend]
            assert obj.lam == other.lam, backend
            assert obj.hierarchy.canonical_nuclei() == \
                other.hierarchy.canonical_nuclei(), backend

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
