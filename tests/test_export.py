"""Hierarchy JSON round-trips and DOT exports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import as_backend, decompose
from repro.core.decomposition import nucleus_decomposition
from repro.errors import GraphFormatError
from repro.examples_graphs import figure2_graph, figure5_graph
from repro.export import (
    hierarchy_from_json,
    hierarchy_to_json,
    load_hierarchy,
    load_hierarchy_npz,
    save_hierarchy,
    skeleton_to_dot,
    tree_to_dot,
)
from repro.graph import generators

from _graphs import small_graphs


class TestJsonRoundTrip:
    def test_identity(self):
        h = nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd").hierarchy
        restored = hierarchy_from_json(hierarchy_to_json(h))
        assert restored.lam == h.lam
        assert restored.node_lambda == h.node_lambda
        assert restored.parent == h.parent
        assert restored.comp == h.comp
        assert restored.root == h.root
        assert restored.algorithm == h.algorithm
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_file_round_trip(self, tmp_path):
        h = nucleus_decomposition(figure5_graph(), 1, 2, algorithm="dft").hierarchy
        path = tmp_path / "h.json"
        save_hierarchy(h, path)
        restored = load_hierarchy(path)
        restored.validate()
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_malformed_raises(self):
        with pytest.raises(GraphFormatError):
            hierarchy_from_json("{}")
        with pytest.raises(GraphFormatError):
            hierarchy_from_json("not json at all")

    def test_23_hierarchy_round_trip(self):
        h = nucleus_decomposition(figure2_graph(), 2, 3, algorithm="fnd").hierarchy
        restored = hierarchy_from_json(hierarchy_to_json(h))
        assert (restored.r, restored.s) == (2, 3)
        assert restored.canonical_nuclei() == h.canonical_nuclei()


class TestDot:
    def test_tree_dot_structure(self):
        result = nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd")
        dot = tree_to_dot(result.hierarchy.condense())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == len(result.hierarchy.condense()) - 1
        assert "root" in dot

    def test_skeleton_dot_edge_styles(self):
        # figure4: two equal-lambda sub-cores merged => at least one dashed edge
        from repro.examples_graphs import figure4_graph
        h = nucleus_decomposition(figure4_graph(), 1, 2, algorithm="dft").hierarchy
        dot = skeleton_to_dot(h)
        assert "dashed" in dot
        assert "solid" in dot

    def test_dot_on_empty_graph(self):
        from repro.graph.adjacency import Graph
        h = nucleus_decomposition(Graph.empty(3), 1, 2, algorithm="fnd").hierarchy
        dot = tree_to_dot(h.condense())
        assert "digraph" in dot


@given(small_graphs(max_n=10))
@settings(max_examples=25, deadline=None)
def test_round_trip_random(g):
    h = nucleus_decomposition(g, 1, 2, algorithm="fnd").hierarchy
    restored = hierarchy_from_json(hierarchy_to_json(h))
    restored.validate()
    assert restored.canonical_nuclei() == h.canonical_nuclei()


class TestNpzDispatch:
    def test_save_hierarchy_dispatches_on_suffix(self, tmp_path):
        h = nucleus_decomposition(figure2_graph(), 1, 2,
                                  algorithm="fnd").hierarchy
        pytest.importorskip("numpy")
        path = tmp_path / "h.npz"
        save_hierarchy(h, path)
        restored = load_hierarchy(path)
        restored.validate()
        assert restored.lam == h.lam
        assert restored.canonical_nuclei() == h.canonical_nuclei()

    def test_json_path_still_json(self, tmp_path):
        h = nucleus_decomposition(figure2_graph(), 1, 2,
                                  algorithm="fnd").hierarchy
        path = tmp_path / "h.json"
        save_hierarchy(h, path)
        assert path.read_text().startswith("{")


@pytest.fixture(scope="module")
def skeleton_payload():
    """A sound (2,3) skeleton as hierarchy_to_json writes it."""
    graph = generators.powerlaw_cluster(150, 5, 0.6, seed=9)
    result = decompose(as_backend(graph, "csr"), 2, 3, backend="csr")
    return json.loads(hierarchy_to_json(result.hierarchy))


def _broken_skeleton(payload: dict, variant: str) -> dict:
    """``payload`` with one corruption of its skeleton."""
    out = json.loads(json.dumps(payload))
    node_lambda, parent, comp = (
        out[key] for key in ("node_lambda", "parent", "comp"))
    root = out["root"]
    others = [x for x in range(len(parent)) if x != root]
    if variant == "lam_float":
        out["lam"][0] += 0.5
    elif variant == "comp_negative":
        comp[0] = -1
    elif variant == "comp_out_of_range":
        comp[0] = 10 ** 6
    elif variant == "comp_length":
        comp.pop()
    elif variant == "parent_length":
        parent.pop()
    elif variant == "two_roots":
        parent[others[0]] = -1
    elif variant == "root_unmarked":
        parent[root] = others[0]
    elif variant == "root_lambda":
        node_lambda[root] = 1
    elif variant == "root_out_of_range":
        out["root"] = len(parent)
    elif variant == "parent_out_of_range":
        parent[others[0]] = len(parent)
    elif variant == "parent_lambda_above":
        low = min(others, key=lambda x: node_lambda[x])
        high = max(others, key=lambda x: node_lambda[x])
        parent[low] = high
    else:  # an equal-λ 3-cycle
        assert variant == "three_cycle"
        level = max(set(node_lambda), key=node_lambda.count)
        a, b, c = [x for x in others if node_lambda[x] == level][:3]
        parent[a], parent[b], parent[c] = b, c, a
    return out


#: (variant, the array the error must name)
SKELETON_BREAKS = [
    ("lam_float", "lam"), ("comp_negative", "comp"), ("comp_out_of_range", "comp"),
    ("comp_length", "comp"), ("parent_length", "parent"),
    ("two_roots", "parent"), ("root_unmarked", "parent"),
    ("root_lambda", "node_lambda"), ("root_out_of_range", "root"),
    ("parent_out_of_range", "parent"),
    ("parent_lambda_above", "node_lambda"), ("three_cycle", "parent"),
]


def _save_payload(payload: dict, path) -> None:
    np.savez(path, format=np.int64(1),
             **{key: np.asarray(value) for key, value in payload.items()})


class TestMalformedSkeletonRejected:
    """Both loaders share one checker: a skeleton that is not one
    hierarchy raises GraphFormatError naming the array, before anything
    condenses it."""

    @pytest.mark.parametrize("variant, array", SKELETON_BREAKS)
    def test_json(self, skeleton_payload, variant, array):
        text = json.dumps(_broken_skeleton(skeleton_payload, variant))
        with pytest.raises(GraphFormatError, match=f": {array} "):
            hierarchy_from_json(text)

    @pytest.mark.parametrize("variant, array", SKELETON_BREAKS)
    def test_npz(self, skeleton_payload, variant, array, tmp_path):
        path = tmp_path / "h.npz"
        _save_payload(_broken_skeleton(skeleton_payload, variant), path)
        with pytest.raises(GraphFormatError, match=f": {array} "):
            load_hierarchy_npz(path)

    @pytest.mark.parametrize("key", ["lam", "node_lambda", "parent", "comp"])
    def test_npz_non_integer_or_2d_array(self, skeleton_payload, key,
                                         tmp_path):
        for bad in (np.asarray(skeleton_payload[key], dtype=np.float64),
                    np.asarray([skeleton_payload[key]])):
            payload = dict(skeleton_payload, **{key: bad})
            path = tmp_path / "h.npz"
            _save_payload(payload, path)
            with pytest.raises(GraphFormatError, match=f": {key} "):
                load_hierarchy_npz(path)

    def test_sound_payload_loads_in_both_formats(self, skeleton_payload,
                                                 tmp_path):
        path = tmp_path / "h.npz"
        _save_payload(skeleton_payload, path)
        for restored in (hierarchy_from_json(json.dumps(skeleton_payload)),
                         load_hierarchy_npz(path)):
            restored.validate()
            assert restored.parent_array.tolist() == \
                skeleton_payload["parent"]
