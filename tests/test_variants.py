"""Weighted and directed core variants."""

import pytest
from hypothesis import given, settings

from repro.errors import InvalidGraphError, InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.directed import DirectedGraph
from repro.kcore import core_numbers
from repro.kcore.variants import (
    directed_core_numbers,
    weighted_core_numbers,
    weighted_k_core,
)

from _graphs import small_graphs


class TestWeightedCores:
    def test_unit_weights_match_unweighted(self, social):
        weights = [1.0] * social.m
        weighted = weighted_core_numbers(social, weights)
        assert weighted == [float(x) for x in core_numbers(social)]

    def test_scaling_weights_scales_lambda(self, k4):
        ones = weighted_core_numbers(k4, [1.0] * 6)
        doubled = weighted_core_numbers(k4, [2.0] * 6)
        assert doubled == [2 * x for x in ones]

    def test_weight_dict_either_orientation(self):
        g = Graph(3, [(0, 1), (1, 2)])
        by_pair = {(1, 0): 3.0, (1, 2): 1.0}
        lam = weighted_core_numbers(g, by_pair)
        assert lam[0] == 3.0

    def test_missing_weight_raises(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidParameterError):
            weighted_core_numbers(g, {(0, 1): 1.0})

    def test_wrong_length_raises(self, k4):
        with pytest.raises(InvalidParameterError):
            weighted_core_numbers(k4, [1.0])

    def test_negative_weight_raises(self, k4):
        with pytest.raises(InvalidParameterError):
            weighted_core_numbers(k4, [-1.0] * 6)

    def test_backends_agree(self, social):
        weights = [0.5 + (i % 7) * 0.25 for i in range(social.m)]
        reference = weighted_core_numbers(social, weights, backend="object")
        for backend, workers in (("csr", 1), ("csr", 2), ("disk", 1)):
            assert weighted_core_numbers(social, weights, backend=backend,
                                         workers=workers) == reference

    def test_heavy_block_separates(self):
        # two triangles, one with heavy edges: only it survives threshold 4
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        weights = {(0, 1): 5.0, (0, 2): 5.0, (1, 2): 5.0,
                   (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0}
        cores = weighted_k_core(g, 4.0, weights)
        assert cores == [[0, 1, 2]]

    def test_connected_weighted_cores_split(self):
        # figure-2 style: two heavy triangles joined by a light path
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6),
                      (2, 3), (3, 4)])
        weights = {e: (5.0 if e in {(0, 1), (0, 2), (1, 2),
                                    (4, 5), (4, 6), (5, 6)} else 0.5)
                   for e in g.edges()}
        cores = weighted_k_core(g, 6.0, weights)
        assert cores == [[0, 1, 2], [4, 5, 6]]


class TestDirectedGraph:
    def test_shape(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.m == 3
        assert g.out_degrees() == [1, 1, 1]
        assert g.in_degrees() == [1, 1, 1]

    def test_duplicate_arcs_merged(self):
        g = DirectedGraph(2, [(0, 1), (0, 1)])
        assert g.m == 1

    def test_self_loops_dropped(self):
        g = DirectedGraph(2, [(0, 0), (0, 1)])
        assert g.m == 1

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidGraphError):
            DirectedGraph(2, [(0, 5)])

    def test_csr_matches_arcs(self):
        arcs = [(0, 2), (0, 1), (2, 1)]
        g = DirectedGraph(3, arcs)
        sptr, sidx = g.succ_arrays()
        assert [sidx[p] for p in range(sptr[0], sptr[1])] == [1, 2]
        pptr, pidx = g.pred_arrays()
        assert [pidx[p] for p in range(pptr[1], pptr[2])] == [0, 2]


class TestDirectedCores:
    def test_directed_cycle(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        in_core, out_core = directed_core_numbers(g)
        assert in_core == [1, 1, 1]
        assert out_core == [1, 1, 1]

    def test_acyclic_graph_all_zero(self):
        # a DAG has no subgraph with min in-degree >= 1: peeling cascades
        g = DirectedGraph(5, [(0, i) for i in range(1, 5)])
        in_core, out_core = directed_core_numbers(g)
        assert in_core == [0] * 5
        assert out_core == [0] * 5

    def test_self_loops_ignored(self):
        in_core, out_core = directed_core_numbers(
            DirectedGraph(2, [(0, 0), (0, 1)]))
        assert in_core == [0, 0]  # the lone arc unravels once 0 is peeled

    def test_cycle_with_tail(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        in_core, out_core = directed_core_numbers(g)
        # the tail vertex is fed by the cycle, so it has in-core 1 —
        # but it feeds nothing, so its out-core is 0
        assert in_core == [1, 1, 1, 1]
        assert out_core == [1, 1, 1, 0]

    def test_complete_bidirected_matches_undirected(self, k4):
        arcs = [(u, v) for u, v in k4.edges()] + \
               [(v, u) for u, v in k4.edges()]
        in_core, out_core = directed_core_numbers(DirectedGraph(4, arcs))
        assert in_core == [3, 3, 3, 3]
        assert out_core == [3, 3, 3, 3]

    def test_backends_agree(self):
        g = DirectedGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                              (4, 2), (1, 4)])
        assert directed_core_numbers(g, backend="object") == \
            directed_core_numbers(g, backend="csr")

    def test_requires_directed_graph(self, k4):
        with pytest.raises(InvalidParameterError):
            directed_core_numbers(k4)

    def test_disk_backend_rejected(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(InvalidParameterError):
            directed_core_numbers(g, backend="disk")


class TestDeprecatedDirectedForm:
    def test_shim_warns_and_agrees(self):
        arcs = [(0, 1), (1, 2), (2, 0)]
        with pytest.warns(DeprecationWarning, match="DirectedGraph"):
            legacy = directed_core_numbers(3, arcs)
        assert legacy == directed_core_numbers(DirectedGraph(3, arcs))

    def test_arcs_with_graph_rejected(self):
        g = DirectedGraph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError):
            directed_core_numbers(g, [(0, 1)])


@given(small_graphs(max_n=10))
@settings(max_examples=40, deadline=None)
def test_unit_weighted_equals_unweighted_random(g):
    weighted = weighted_core_numbers(g, [1.0] * g.m)
    assert weighted == [float(x) for x in core_numbers(g)]


@given(small_graphs(max_n=10))
@settings(max_examples=30, deadline=None)
def test_bidirected_equals_undirected_random(g):
    arcs = [(u, v) for u, v in g.edges()] + [(v, u) for u, v in g.edges()]
    in_core, out_core = directed_core_numbers(DirectedGraph(g.n, arcs))
    expected = core_numbers(g)
    assert in_core == expected
    assert out_core == expected


@given(small_graphs(max_n=10))
@settings(max_examples=30, deadline=None)
def test_weighted_kernel_matches_object_random(g):
    """λ parity between the object reference and the generic heap kernel."""
    weights = [0.25 * (1 + (u + 2 * v) % 5) for u, v in g.edges()]
    assert weighted_core_numbers(g, weights, backend="csr") == \
        weighted_core_numbers(g, weights, backend="object")


@given(small_graphs(max_n=9))
@settings(max_examples=30, deadline=None)
def test_directed_kernel_matches_object_random(g):
    arcs = [(u, v) if (u + v) % 2 else (v, u) for u, v in g.edges()]
    dg = DirectedGraph(g.n, arcs)
    assert directed_core_numbers(dg, backend="csr") == \
        directed_core_numbers(dg, backend="object")
