"""Component-wise decomposition must equal the whole-graph run."""

import pytest
from hypothesis import given, settings

from repro.core.decomposition import nucleus_decomposition
from repro.core.partition import decompose_by_components, merge_hierarchies
from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.graph.adjacency import Graph

from _graphs import small_graphs


def two_islands() -> Graph:
    """Two K4-plus-pendant islands and one isolated vertex."""
    edges = []
    for base in (0, 5):
        edges.extend((base + i, base + j) for i in range(4)
                     for j in range(i + 1, 4))
        edges.append((base + 0, base + 4))
    return Graph(11, edges)


class TestMergedEqualsWhole:
    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_islands(self, rs):
        g = two_islands()
        r, s = rs
        merged = decompose_by_components(g, r, s)
        whole = nucleus_decomposition(g, r, s, algorithm="fnd")
        merged.hierarchy.validate()
        assert merged.lam == whole.lam
        assert merged.hierarchy.canonical_nuclei() == \
            whole.hierarchy.canonical_nuclei()

    def test_connected_graph_single_component(self, social):
        merged = decompose_by_components(social, 1, 2)
        whole = nucleus_decomposition(social, 1, 2, algorithm="fnd")
        assert merged.hierarchy.canonical_nuclei() == \
            whole.hierarchy.canonical_nuclei()

    def test_isolated_vertices_only(self):
        merged = decompose_by_components(Graph.empty(4), 1, 2)
        merged.hierarchy.validate()
        assert merged.hierarchy.canonical_nuclei() == set()

    def test_algorithm_choice_propagates(self):
        g = two_islands()
        merged = decompose_by_components(g, 1, 2, algorithm="lcps")
        assert merged.algorithm == "lcps+components"
        whole = nucleus_decomposition(g, 1, 2, algorithm="lcps")
        assert merged.hierarchy.canonical_nuclei() == \
            whole.hierarchy.canonical_nuclei()

    def test_timing_aggregated(self):
        merged = decompose_by_components(two_islands(), 1, 2)
        assert merged.peel_seconds >= 0
        assert merged.total_seconds >= merged.peel_seconds


class TestProcessPool:
    def test_parallel_matches_sequential(self):
        g = two_islands()
        sequential = decompose_by_components(g, 1, 2)
        parallel = decompose_by_components(g, 1, 2, processes=2)
        assert parallel.hierarchy.canonical_nuclei() == \
            sequential.hierarchy.canonical_nuclei()

    def test_no_fork_start_method_runs_sequentially(self, monkeypatch):
        # where fork does not exist (Windows), get_context("fork") raises
        # ValueError; the documented fallback is the sequential path
        import multiprocessing

        def no_fork_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)
        g = two_islands()
        fallback = decompose_by_components(g, 1, 2, processes=2)
        sequential = decompose_by_components(g, 1, 2, processes=None)
        assert fallback.hierarchy.canonical_nuclei() == \
            sequential.hierarchy.canonical_nuclei()
        assert fallback.lam == sequential.lam


class TestMergeValidation:
    def test_bad_cell_map_rejected(self):
        g = generators.complete_graph(3)
        h = nucleus_decomposition(g, 1, 2, algorithm="fnd").hierarchy
        with pytest.raises(InvalidParameterError):
            merge_hierarchies([(h, [0, 1])], 1, 2, 3)


@given(small_graphs(max_n=12))
@settings(max_examples=40, deadline=None)
def test_random_graphs_merge_equals_whole(g):
    merged = decompose_by_components(g, 1, 2)
    whole = nucleus_decomposition(g, 1, 2, algorithm="fnd")
    merged.hierarchy.validate()
    assert merged.lam == whole.lam
    assert merged.hierarchy.canonical_nuclei() == \
        whole.hierarchy.canonical_nuclei()


@given(small_graphs(max_n=9))
@settings(max_examples=20, deadline=None)
def test_random_graphs_merge_equals_whole_23(g):
    merged = decompose_by_components(g, 2, 3)
    whole = nucleus_decomposition(g, 2, 3, algorithm="fnd")
    assert merged.hierarchy.canonical_nuclei() == \
        whole.hierarchy.canonical_nuclei()
