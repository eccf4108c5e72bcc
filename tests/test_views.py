"""Cell views: degrees and coface iteration for each (r, s)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.views import (
    CSRTriangleView,
    EdgeView,
    GenericCliqueView,
    TriangleView,
    VertexView,
    build_view,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.parallel.fnd import frontier_fnd

from _graphs import GENERATOR_SUITE, dense_small_graphs


class TestVertexView:
    def test_cells_are_vertices(self, k4):
        view = VertexView(k4)
        assert view.num_cells == 4
        assert view.initial_degrees() == [3, 3, 3, 3]

    def test_cofaces_are_neighbours(self, k4):
        view = VertexView(k4)
        assert sorted(c for (c,) in view.cofaces(0)) == [1, 2, 3]

    def test_cell_vertices(self, k4):
        assert VertexView(k4).cell_vertices(2) == (2,)


class TestEdgeView:
    def test_degrees_are_triangle_counts(self, k4):
        view = EdgeView(k4)
        assert view.num_cells == 6
        assert view.initial_degrees() == [2] * 6

    def test_cofaces_pair_other_edges(self, k4):
        view = EdgeView(k4)
        e01 = k4.edge_index.id_of(0, 1)
        cofaces = list(view.cofaces(e01))
        assert len(cofaces) == 2  # triangles (0,1,2) and (0,1,3)
        for pair in cofaces:
            assert len(pair) == 2
            verts = {v for e in pair for v in view.cell_vertices(e)}
            assert {0, 1}.issubset(verts)

    def test_triangle_free_graph(self, petersen):
        view = EdgeView(petersen)
        assert all(d == 0 for d in view.initial_degrees())
        assert all(list(view.cofaces(e)) == [] for e in range(view.num_cells))


class TestTriangleView:
    def test_k5_degrees(self, k5):
        view = TriangleView(k5)
        assert view.num_cells == 10
        assert view.initial_degrees() == [2] * 10

    def test_cofaces_triple_other_triangles(self, k4):
        view = TriangleView(k4)
        cofaces = list(view.cofaces(0))
        assert len(cofaces) == 1  # K4 contains exactly one 4-clique
        assert len(cofaces[0]) == 3

    def test_cell_vertices_sorted(self, k5):
        view = TriangleView(k5)
        for cell in range(view.num_cells):
            a, b, c = view.cell_vertices(cell)
            assert a < b < c


class TestGenericView:
    def test_matches_vertex_view(self, k4):
        generic = GenericCliqueView(k4, 1, 2)
        fast = VertexView(k4)
        assert generic.num_cells == fast.num_cells
        assert generic.initial_degrees() == fast.initial_degrees()

    def test_invalid_parameters(self, k4):
        with pytest.raises(InvalidParameterError):
            GenericCliqueView(k4, 2, 2)
        with pytest.raises(InvalidParameterError):
            GenericCliqueView(k4, 0, 2)

    def test_13_view(self, k5):
        # (1,3): vertex cells, triangle cofaces
        view = GenericCliqueView(k5, 1, 3)
        assert view.num_cells == 5
        assert view.initial_degrees() == [6] * 5  # C(4,2) triangles per vertex

    def test_24_view(self, k5):
        # (2,4): edge cells, K4 cofaces
        view = GenericCliqueView(k5, 2, 4)
        assert view.num_cells == 10
        assert view.initial_degrees() == [3] * 10  # C(3,2)=3 K4s per edge

    def test_coface_tuples_have_right_size(self, k5):
        view = GenericCliqueView(k5, 2, 4)
        for pair in view.cofaces(0):
            assert len(pair) == 5  # C(4,2) - 1


class TestBuildView:
    def test_dispatch(self, k4):
        assert isinstance(build_view(k4, 1, 2), VertexView)
        assert isinstance(build_view(k4, 2, 3), EdgeView)
        assert isinstance(build_view(k4, 3, 4), TriangleView)
        assert isinstance(build_view(k4, 1, 3), GenericCliqueView)

    def test_invalid(self, k4):
        with pytest.raises(InvalidParameterError):
            build_view(k4, 2, 1)

    def test_vertices_of_cells(self, k4):
        view = build_view(k4, 2, 3)
        assert view.vertices_of_cells(range(view.num_cells)) == {0, 1, 2, 3}


@given(dense_small_graphs(max_n=8))
@settings(max_examples=40)
def test_generic_views_match_fast_paths(g):
    """The generic implementation is the oracle for the fast (2,3)/(3,4)."""
    for r, s, fast_type in ((2, 3, EdgeView), (3, 4, TriangleView)):
        fast = fast_type(g)
        generic = GenericCliqueView(g, r, s)
        # align cell ids via vertex tuples
        fast_cells = {fast.cell_vertices(i): i for i in range(fast.num_cells)}
        generic_cells = {generic.cell_vertices(i): i
                         for i in range(generic.num_cells)}
        assert set(fast_cells) == set(generic_cells)
        fd, gd = fast.initial_degrees(), generic.initial_degrees()
        for verts, fid in fast_cells.items():
            gid = generic_cells[verts]
            assert fd[fid] == gd[gid]
            fast_cofaces = {
                frozenset(fast.cell_vertices(c) for c in tup)
                for tup in fast.cofaces(fid)}
            generic_cofaces = {
                frozenset(generic.cell_vertices(c) for c in tup)
                for tup in generic.cofaces(gid)}
            assert fast_cofaces == generic_cofaces


@given(dense_small_graphs(max_n=8))
@settings(max_examples=30)
def test_degree_equals_coface_count(g):
    for r, s in ((1, 2), (2, 3), (3, 4)):
        view = build_view(g, r, s)
        degrees = view.initial_degrees()
        for cell in range(view.num_cells):
            assert degrees[cell] == sum(1 for _ in view.cofaces(cell))


@pytest.mark.parametrize("graph", GENERATOR_SUITE, ids=lambda g: g.name)
def test_csr_triangle_views_hold_arrays_and_match_object_view(graph):
    """Both CSR (3,4) views — built from the graph and handed out by the
    FND pipeline — keep the triangles as one int64 array and answer every
    question like the object engine's :class:`TriangleView`."""
    csr = CSRGraph.from_graph(graph)
    reference = TriangleView(graph)
    cells = range(reference.num_cells)
    for view in (build_view(csr, 3, 4), frontier_fnd(csr, 3, 4)[2]):
        assert isinstance(view, CSRTriangleView)
        assert view._vertices.dtype == np.int64
        assert view._vertices.shape == (reference.num_cells, 3)
        assert view.num_cells == reference.num_cells
        assert view.initial_degrees() == reference.initial_degrees()
        assert [view.cell_vertices(c) for c in cells] == \
            [reference.cell_vertices(c) for c in cells]
        assert all(type(v) is int for c in cells
                   for v in view.cell_vertices(c))
        assert [sorted(view.cofaces(c)) for c in cells] == \
            [sorted(reference.cofaces(c)) for c in cells]
        for chosen in (cells, cells[::3], []):
            assert view.vertices_of_cells(iter(chosen)) == \
                reference.vertices_of_cells(chosen)
