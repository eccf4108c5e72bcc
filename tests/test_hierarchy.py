"""The Hierarchy / NucleusTree result types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_module
from repro.backends import as_backend, decompose
from repro.core.decomposition import nucleus_decomposition
from repro.core.hierarchy import Hierarchy
from repro.examples_graphs import figure2_graph, figure5_graph
from repro.export import (
    hierarchy_from_json,
    hierarchy_to_json,
    load_hierarchy_npz,
    save_hierarchy_npz,
)
from repro.flatindex import FlatHierarchyIndex
from repro.graph import generators
from repro.graph.adjacency import Graph

from _graphs import GENERATOR_SUITE, assert_lowered_like_reference, small_graphs

RS_PAIRS = [(1, 2), (2, 3), (3, 4)]

#: every engine and algorithm that builds a hierarchy, with its (r, s)
#: pairs: (backend, listing threads, algorithm, (r, s))
HIERARCHY_BUILDS = [
    (backend, workers, algorithm, rs)
    for backend, workers, algorithm, pairs in (
        ("object", 1, "naive", RS_PAIRS), ("object", 1, "dft", RS_PAIRS),
        ("object", 1, "fnd", RS_PAIRS), ("object", 1, "lcps", [(1, 2)]),
        ("csr", 1, "fnd", RS_PAIRS), ("csr", 1, "lcps", [(1, 2)]),
        ("csr", 2, "fnd", RS_PAIRS), ("disk", 1, "fnd", RS_PAIRS))
    for rs in pairs]


def _build_id(case) -> str:
    backend, workers, algorithm, (r, s) = case
    engine = f"{backend}-parallel" if workers > 1 else backend
    return f"{engine}-{algorithm}-{r}{s}"


def _build(graph, backend, workers, algorithm, rs, monkeypatch=None):
    """Decompose ``graph`` on one engine; a threaded csr build lists on
    ``workers`` threads whatever the host's affinity mask
    (``monkeypatch`` given)."""
    if workers > 1 and monkeypatch is not None:
        monkeypatch.setattr(csr_module, "available_cpus", lambda: workers)
    converted = as_backend(graph, "object" if backend == "object" else "csr")
    return decompose(converted, *rs, algorithm=algorithm, backend=backend,
                     workers=workers)


def deep_clique_graph() -> Graph:
    """K₆₀ plus, for each d in 1..58, one vertex joined to d clique
    vertices: one nested nucleus per level, so the condensed tree is
    57-59 deep at (1,2), (2,3) and (3,4)."""
    edges = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    edges += [(59 + d, i) for d in range(1, 59) for i in range(d)]
    return Graph(60 + 58, edges, name="deep-clique")


def build_manual_hierarchy() -> Hierarchy:
    """Small hand-made skeleton: root(0) <- A(2) <- B(3), C(3); B~B2 merged."""
    #   nodes: 0=A(λ2) 1=B(λ3) 2=B2(λ3, same nucleus as B) 3=C(λ3) 4=root
    node_lambda = [2, 3, 3, 3, 0]
    parent = [4, 0, 1, 0, None]
    #   cells: λ: two at 2 (A), three at 3 (B/B2/C), one at 0 (root)
    lam = [2, 2, 3, 3, 3, 0]
    comp = [0, 0, 1, 2, 3, 4]
    return Hierarchy(1, 2, lam, node_lambda, parent, comp, root=4,
                     algorithm="manual")


class TestHierarchyBasics:
    def test_counts(self):
        h = build_manual_hierarchy()
        assert h.num_cells == 6
        assert h.num_nodes == 5
        assert h.num_subnuclei == 4
        assert h.max_lambda == 3

    def test_members(self):
        h = build_manual_hierarchy()
        assert h.members(0) == [0, 1]
        assert h.members(4) == [5]

    def test_children_lists(self):
        h = build_manual_hierarchy()
        children = h.children_lists()
        assert children[4] == [0]
        assert sorted(children[0]) == [1, 3]

    def test_validate_passes(self):
        build_manual_hierarchy().validate()

    def test_validate_catches_bad_comp(self):
        h = build_manual_hierarchy()
        h.comp[0] = 1  # cell with lambda 2 assigned to a lambda-3 node
        with pytest.raises(AssertionError):
            h.validate()

    def test_validate_catches_cycle(self):
        h = build_manual_hierarchy()
        h.parent[1] = 2
        h.parent[2] = 1
        with pytest.raises(AssertionError):
            h.validate()

    def test_repr(self):
        assert "manual" in repr(build_manual_hierarchy())


class TestCondense:
    def test_equal_lambda_nodes_grouped(self):
        h = build_manual_hierarchy()
        tree = h.condense()
        # B and B2 collapse: root, A, B+B2, C
        assert len(tree) == 4
        ks = sorted(node.k for node in tree.nodes)
        assert ks == [0, 2, 3, 3]

    def test_subtree_cells_nested(self):
        h = build_manual_hierarchy()
        tree = h.condense()
        a = next(n for n in tree.nodes if n.k == 2)
        assert sorted(tree.subtree_cells(a.id)) == [0, 1, 2, 3, 4]

    def test_own_cells_partition(self):
        h = build_manual_hierarchy()
        tree = h.condense()
        all_cells = sorted(c for n in tree.nodes for c in n.own_cells)
        assert all_cells == list(range(6))

    def test_condense_cached(self):
        h = build_manual_hierarchy()
        assert h.condense() is h.condense()

    def test_depth_and_leaves(self):
        tree = build_manual_hierarchy().condense()
        assert tree.depth() == 2
        assert len(tree.leaves()) == 2

    def test_format_output(self):
        text = build_manual_hierarchy().condense().format()
        assert "k=0" in text and "k=3" in text

    def test_format_truncation(self):
        text = build_manual_hierarchy().condense().format(max_nodes=1)
        assert "truncated" in text


class TestCanonicalNuclei:
    def test_manual(self):
        fam = build_manual_hierarchy().canonical_nuclei()
        assert (2, frozenset({0, 1, 2, 3, 4})) in fam
        assert (3, frozenset({2, 3})) in fam
        assert (3, frozenset({4})) in fam
        assert len(fam) == 3

    def test_chain_nodes_dropped(self):
        # root <- empty chain node (λ1, no members, one child) <- leaf (λ2)
        h = Hierarchy(1, 2, lam=[2, 2], node_lambda=[1, 2, 0],
                      parent=[2, 0, None], comp=[1, 1], root=2,
                      algorithm="manual")
        fam = h.canonical_nuclei()
        assert fam == {(2, frozenset({0, 1}))}


class TestNucleusOfCell:
    def test_max_nucleus(self):
        g = figure2_graph()
        h = nucleus_decomposition(g, 1, 2, algorithm="dft").hierarchy
        assert sorted(h.nucleus_of_cell(0)) == [0, 1, 2, 3]      # its 3-core
        assert sorted(h.nucleus_of_cell(8)) == list(range(10))   # the 2-core

    def test_lower_level_nucleus(self):
        g = figure2_graph()
        h = nucleus_decomposition(g, 1, 2, algorithm="fnd").hierarchy
        assert sorted(h.nucleus_of_cell(0, k=2)) == list(range(10))
        assert sorted(h.nucleus_of_cell(0, k=1)) == list(range(11))

    def test_k_above_lambda_raises(self):
        g = figure2_graph()
        h = nucleus_decomposition(g, 1, 2, algorithm="fnd").hierarchy
        with pytest.raises(ValueError):
            h.nucleus_of_cell(10, k=5)

    def test_skipped_level_resolves_to_denser_nucleus(self):
        g = generators.complete_graph(5)  # all lambda 4, no level-2 node
        h = nucleus_decomposition(g, 1, 2, algorithm="dft").hierarchy
        assert sorted(h.nucleus_of_cell(0, k=2)) == [0, 1, 2, 3, 4]


class TestOnRealDecompositions:
    def test_figure5_three_levels(self):
        g = figure5_graph()
        result = nucleus_decomposition(g, 1, 2, algorithm="fnd")
        tree = result.hierarchy.condense()
        ks = sorted({n.k for n in tree.nodes})
        assert ks == [0, 4, 5, 6]
        leaves = tree.leaves()
        assert len(leaves) == 3  # K7 and the two K6s

    def test_all_cells_covered_once(self):
        g = generators.powerlaw_cluster(120, 5, 0.5, seed=4)
        h = nucleus_decomposition(g, 2, 3, algorithm="fnd").hierarchy
        tree = h.condense()
        cells = sorted(c for n in tree.nodes for c in n.own_cells)
        assert cells == list(range(h.num_cells))


class TestLoweringMatchesReference:
    """The array condense and the flat index's tour passes reproduce the
    disjoint-set condense and the stack walk they replaced
    (``_graphs.reference_condense`` / ``reference_tour``)."""

    @pytest.mark.parametrize("case", HIERARCHY_BUILDS, ids=_build_id)
    @pytest.mark.parametrize("graph", GENERATOR_SUITE,
                             ids=[g.name for g in GENERATOR_SUITE])
    def test_generator_suite(self, graph, case, monkeypatch):
        result = _build(graph, *case, monkeypatch)
        assert_lowered_like_reference(result.hierarchy,
                                      FlatHierarchyIndex(result))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.sampled_from(
        [case for case in HIERARCHY_BUILDS if case[1] == 1]))
    def test_random_graphs(self, graph, case):
        result = _build(graph, *case)
        assert_lowered_like_reference(result.hierarchy,
                                      FlatHierarchyIndex(result))

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_round_tripped_hierarchies(self, backend, rs, tmp_path):
        result = _build(GENERATOR_SUITE[-1], backend, 1, "fnd", rs)
        save_hierarchy_npz(result.hierarchy, tmp_path / "h.npz")
        for restored in (hierarchy_from_json(hierarchy_to_json(
                             result.hierarchy)),
                         load_hierarchy_npz(tmp_path / "h.npz")):
            index = FlatHierarchyIndex(hierarchy=restored,
                                       graph=result.graph, view=result.view)
            assert_lowered_like_reference(restored, index)

    @pytest.mark.parametrize("rs, depth", [((1, 2), 59), ((2, 3), 58),
                                           ((3, 4), 57)],
                             ids=["12", "23", "34"])
    def test_deep_tree(self, rs, depth):
        result = _build(deep_clique_graph(), "csr", 1, "fnd", rs)
        assert result.hierarchy.condense().depth() == depth
        assert_lowered_like_reference(result.hierarchy,
                                      FlatHierarchyIndex(result))

    @pytest.mark.parametrize("algorithm", ["naive", "dft", "fnd"])
    def test_deep_tree_object_skeletons(self, algorithm):
        result = _build(deep_clique_graph(), "object", 1, algorithm,
                        (1, 2))
        assert result.hierarchy.condense().depth() == 59
        assert_lowered_like_reference(result.hierarchy,
                                      FlatHierarchyIndex(result))

    def test_manual_skeleton(self):
        assert_lowered_like_reference(build_manual_hierarchy())
