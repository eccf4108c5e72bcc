"""Cross-backend parity for the CSR-native hierarchy paths.

PR 1 proved λ parity for the peels; this suite pins down the full
hierarchy story: direct CSR FND (1,2)/(2,3)/(3,4) against the object
engine, LCPS-on-CSR against LCPS-on-object, condensed LCPS against DFT
(the empty-bracket-chain regression), the (3,4) direct peel elementwise,
and the backend-dispatch defaults (``backend=None`` follows the input
representation — the PR 1 regression where a ``CSRGraph`` silently fell
back to the object engine).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

import repro.backends as backends
from repro.backends import (
    as_csr,
    core_peel,
    decompose,
    nucleus34_peel,
    truss_peel,
)
from repro.core.decomposition import nucleus_decomposition
from repro.core.fnd import fnd_decomposition
from repro.core.hierarchy import NucleusTree
from repro.core.lcps import lcps_hierarchy
from repro.core.peeling import peel
from repro.core.views import build_view
from repro.errors import InvalidParameterError
from repro.flatindex import FlatHierarchyIndex
from repro.examples_graphs import figure2_graph, figure4_graph, figure5_graph
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.parallel.fnd import frontier_fnd

from _graphs import dense_small_graphs, small_graphs

FIXED_GRAPHS = [
    Graph.empty(0),                                   # empty
    Graph.empty(5),                                   # vertices, no edges
    Graph(6, [(0, 1), (2, 3), (4, 5)]),               # triangle-free matching
    generators.star(7),                               # triangle-free, one hub
    Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)]),  # disconnected
    figure2_graph(),
    figure4_graph(),
    figure5_graph(),
    generators.ring_of_cliques(4, 5),
    generators.planted_cliques(3, 6, bridge_edges=2, seed=1),
    generators.powerlaw_cluster(120, 5, 0.6, seed=4),
]


def condensed_signature(hierarchy):
    """(k, member cells) of every condensed nucleus node — the node λ
    multiset plus the cell→nucleus map in one comparable value."""
    tree = hierarchy.condense()
    return sorted((node.k, tuple(sorted(tree.subtree_cells(node.id))))
                  for node in tree.nodes)


# ---------------------------------------------------------------------------
# FND: direct CSR vs object engine
# ---------------------------------------------------------------------------
class TestCsrFndParity:
    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)],
                             ids=["12", "23", "34"])
    def test_fixed_graphs(self, rs):
        r, s = rs
        for g in FIXED_GRAPHS:
            obj = decompose(g, r, s, algorithm="fnd", backend="object")
            csr = decompose(as_csr(g), r, s, algorithm="fnd")
            assert obj.lam == csr.lam, g.name
            csr.hierarchy.validate()
            assert condensed_signature(obj.hierarchy) == \
                condensed_signature(csr.hierarchy), g.name

    def test_no_object_graph_constructed(self, monkeypatch):
        """`decompose(csr, algorithm="fnd")` must never convert back."""
        csr = as_csr(generators.planted_cliques(2, 5, seed=3))
        monkeypatch.setattr(CSRGraph, "to_object", lambda self: pytest.fail(
            "direct CSR FND converted the graph back to the object engine"))
        for r, s in ((1, 2), (2, 3), (3, 4)):
            result = decompose(csr, r, s, algorithm="fnd")
            assert result.graph is csr
            result.hierarchy.validate()

    def test_view_reports_cells_without_reenumeration(self):
        g = generators.planted_cliques(2, 6, bridge_edges=0, seed=1)
        obj = decompose(g, 3, 4, algorithm="fnd", backend="object")
        csr = decompose(as_csr(g), 3, 4, algorithm="fnd")
        cells = range(obj.view.num_cells)
        assert [obj.view.cell_vertices(c) for c in cells] == \
            [csr.view.cell_vertices(c) for c in cells]
        # coface queries still work on the reused-enumeration view
        assert sorted(csr.view.cofaces(0)) == sorted(obj.view.cofaces(0))

    def test_unsupported_rs_rejected(self):
        csr = as_csr(generators.complete_graph(5))
        with pytest.raises(InvalidParameterError):
            frontier_fnd(csr, 1, 3)

    def test_instrumentation_matches_structure(self):
        from repro.core.fnd import FndInstrumentation

        g = generators.powerlaw_cluster(80, 4, 0.5, seed=2)
        stats = FndInstrumentation()
        _, hierarchy, _ = frontier_fnd(as_csr(g), 1, 2,
                                       instrumentation=stats)
        assert stats.num_subnuclei == hierarchy.num_subnuclei

    @given(small_graphs(max_n=11))
    @settings(max_examples=40, deadline=None)
    def test_12_random(self, g):
        obj = decompose(g, 1, 2, algorithm="fnd", backend="object")
        csr = decompose(as_csr(g), 1, 2, algorithm="fnd")
        assert obj.lam == csr.lam
        assert condensed_signature(obj.hierarchy) == \
            condensed_signature(csr.hierarchy)

    @given(dense_small_graphs(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_23_34_random(self, g):
        for r, s in ((2, 3), (3, 4)):
            obj = decompose(g, r, s, algorithm="fnd", backend="object")
            csr = decompose(as_csr(g), r, s, algorithm="fnd")
            assert obj.lam == csr.lam
            csr.hierarchy.validate()
            assert condensed_signature(obj.hierarchy) == \
                condensed_signature(csr.hierarchy)


# ---------------------------------------------------------------------------
# (3,4) direct peel: λ arrays elementwise
# ---------------------------------------------------------------------------
class TestNucleus34Peel:
    def test_fixed_graphs_elementwise(self):
        for g in FIXED_GRAPHS:
            assert nucleus34_peel(g).lam == nucleus34_peel(as_csr(g)).lam, \
                g.name

    @given(dense_small_graphs(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_random_elementwise(self, g):
        direct = nucleus34_peel(as_csr(g))
        generic = peel(build_view(g, 3, 4))
        assert direct.lam == generic.lam
        assert direct.max_lambda == generic.max_lambda


# ---------------------------------------------------------------------------
# LCPS: CSR traversal and the empty-bracket-chain fix
# ---------------------------------------------------------------------------
class TestLcpsCsr:
    def test_fixed_graphs_csr_vs_object(self):
        for g in FIXED_GRAPHS:
            obj = decompose(g, 1, 2, algorithm="lcps", backend="object")
            csr = decompose(as_csr(g), 1, 2, algorithm="lcps")
            assert obj.lam == csr.lam, g.name
            csr.hierarchy.validate()
            assert condensed_signature(obj.hierarchy) == \
                condensed_signature(csr.hierarchy), g.name

    def test_deep_component_has_no_empty_chain(self):
        """A component whose minimum λ is k > 1 must not grow k-1 empty
        intermediate nodes (the open_node(1, ...) regression)."""
        g = generators.complete_graph(5)  # single component, min lambda 4
        h = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
        # skeleton: exactly one λ=4 node plus the root
        assert sorted(h.node_lambda) == [0, 4]
        tree = h.condense()
        assert sorted(n.k for n in tree.nodes) == [0, 4]
        for node in tree.nodes:
            assert node.own_cells or node.id == tree.root

    def test_skipped_level_between_cores_is_spliced(self):
        """Two K4s joined by a path: no empty λ=2 bracket nodes survive."""
        g = figure2_graph()
        h = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
        for node in range(h.num_nodes):
            if node != h.root:
                assert h.members(node), "member-less chain node survived"

    def test_condensed_nodes_match_dft_fixed(self):
        for g in FIXED_GRAPHS:
            lcps = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
            dft = nucleus_decomposition(g, 1, 2, algorithm="dft").hierarchy
            assert condensed_signature(lcps) == condensed_signature(dft), \
                g.name

    @given(small_graphs(max_n=11))
    @settings(max_examples=40, deadline=None)
    def test_condensed_nodes_match_dft_random(self, g):
        lcps = nucleus_decomposition(g, 1, 2, algorithm="lcps").hierarchy
        lcps.validate()
        dft = nucleus_decomposition(g, 1, 2, algorithm="dft").hierarchy
        assert condensed_signature(lcps) == condensed_signature(dft)

    @given(small_graphs(max_n=11))
    @settings(max_examples=30, deadline=None)
    def test_csr_vs_object_random(self, g):
        csr = as_csr(g)
        peeling = core_peel(csr)
        on_csr = lcps_hierarchy(csr, peeling)
        on_obj = lcps_hierarchy(g, peeling)
        on_csr.validate()
        assert condensed_signature(on_csr) == condensed_signature(on_obj)


# ---------------------------------------------------------------------------
# dispatch defaults: backend=None follows the input representation
# ---------------------------------------------------------------------------
def record_bulk_peels(monkeypatch) -> list:
    """Wrap the CSR engine's one peel entry; returns the (r, s) of every
    call it makes."""
    calls: list = []
    real = backends.bulk_peel

    def recording(csr, r, s, workers):
        calls.append((r, s))
        return real(csr, r, s, workers)

    monkeypatch.setattr(backends, "bulk_peel", recording)
    return calls


class TestDispatchDefaults:
    def test_core_peel_csr_input_runs_csr_engine(self, monkeypatch):
        """Regression: `core_peel(as_csr(g))` used to silently convert back
        and run the object engine (`backend` defaulted to "object")."""
        calls = record_bulk_peels(monkeypatch)
        csr = as_csr(generators.complete_graph(5))
        result = core_peel(csr)
        assert calls == [(1, 2)]
        assert result.lam == [4] * 5

    def test_truss_peel_csr_input_runs_csr_engine(self, monkeypatch):
        calls = record_bulk_peels(monkeypatch)
        truss_peel(as_csr(generators.complete_graph(5)))
        assert calls == [(2, 3)]

    def test_nucleus34_peel_csr_input_runs_csr_engine(self, monkeypatch):
        calls = record_bulk_peels(monkeypatch)
        nucleus34_peel(as_csr(generators.complete_graph(5)))
        assert calls == [(3, 4)]

    def test_decompose_follows_input(self):
        g = generators.planted_cliques(2, 5, seed=3)
        csr = as_csr(g)
        assert isinstance(decompose(g, 1, 2).graph, Graph)
        assert decompose(csr, 1, 2).graph is csr
        # the generic (view-driven) algorithms carry the input unconverted too
        for algorithm in ("naive", "dft", "hypo"):
            assert decompose(csr, 1, 2, algorithm=algorithm).graph is csr
        # an explicit backend still overrides the representation
        assert isinstance(decompose(csr, 1, 2, backend="object").graph, Graph)

    def test_object_input_still_defaults_to_object_engine(self, monkeypatch):
        monkeypatch.setattr(
            backends, "bulk_peel",
            lambda *args: pytest.fail("object input ran CSR"))
        core_peel(generators.complete_graph(4))


# ---------------------------------------------------------------------------
# object FND on the flat queue's own arrays
# ---------------------------------------------------------------------------
class TestFndOnFlatQueue:
    def test_lambda_matches_peel_and_hierarchy_validates(self):
        g = generators.powerlaw_cluster(60, 4, 0.5, seed=9)
        view = build_view(g, 1, 2)
        peeling, hierarchy = fnd_decomposition(view)
        assert peeling.lam == peel(view).lam
        hierarchy.validate()


# ---------------------------------------------------------------------------
# lowering: arrays from the frontier rounds to the saved index
# ---------------------------------------------------------------------------
class TestArraysToIndex:
    def test_save_builds_no_tree_and_no_list_view(self, monkeypatch,
                                                  tmp_path):
        """decompose → FlatHierarchyIndex → save reads the hierarchy's
        arrays only: no NucleusTree, and none of the list views."""
        def no_tree(*args, **kwargs):
            raise AssertionError("the lowering built a NucleusTree")

        monkeypatch.setattr(NucleusTree, "__init__", no_tree)
        csr = as_csr(generators.powerlaw_cluster(150, 5, 0.6, seed=9))
        result = backends.decompose(csr, 2, 3, backend="csr")
        FlatHierarchyIndex(result).save(tmp_path / "index.npz")
        lists = {"lam", "node_lambda", "parent", "comp"}
        assert not lists & set(vars(result.hierarchy))
        assert "lam" not in vars(result)
        assert result.lam_array is result.hierarchy.lam_array

    def test_list_views_are_python_ints(self):
        csr = as_csr(generators.powerlaw_cluster(150, 5, 0.6, seed=9))
        result = backends.decompose(csr, 2, 3, backend="csr")
        hierarchy = result.hierarchy
        json.dumps(result.lam)
        for values in (result.lam, hierarchy.lam, hierarchy.node_lambda,
                       hierarchy.comp):
            assert type(values) is list
            assert all(type(x) is int for x in values)
        assert hierarchy.parent[hierarchy.root] is None
        assert all(type(x) is int for i, x in enumerate(hierarchy.parent)
                   if i != hierarchy.root)
        assert result.lam == hierarchy.lam == result.lam_array.tolist()
        assert hierarchy.parent_array.dtype == np.int64
