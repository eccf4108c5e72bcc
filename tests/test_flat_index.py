"""FlatHierarchyIndex: parity with HierarchyIndex, batch queries, and the
persisted build-once/serve-many path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

np = pytest.importorskip("numpy")

import repro.flatindex as flatindex_module
import repro.graph.csr as csr_module
from repro.analysis.density import edge_density
from repro.backends import as_backend, build_query_index, decompose
from repro.core.decomposition import nucleus_decomposition
from repro.errors import GraphFormatError, InvalidParameterError
from repro.examples_graphs import bowtie, figure2_graph
from repro.export import load_hierarchy_npz, save_hierarchy_npz
from repro.flatindex import FlatHierarchyIndex
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.queries import HierarchyIndex

from _graphs import GENERATOR_SUITE, small_graphs

RS_PAIRS = [(1, 2), (2, 3), (3, 4)]


@pytest.fixture(scope="module")
def parity_graph():
    return generators.powerlaw_cluster(120, 5, 0.5, seed=9)


def _decompose(graph, backend, r, s, workers=1):
    converted = as_backend(graph, "csr" if backend != "object" else "object")
    return decompose(converted, r, s, algorithm="fnd", backend=backend,
                     workers=workers)


def _assert_parity(decomposition, graph):
    legacy = HierarchyIndex(decomposition)
    flat = FlatHierarchyIndex(decomposition)
    num_cells = flat.num_cells
    for cell in range(num_cells):
        assert flat.node_of_cell(cell) == legacy.node_of_cell(cell)
        assert flat.max_nucleus(cell) == sorted(legacy.max_nucleus(cell))
    for cell in range(0, num_cells, 5):
        for k in range(decomposition.lam[cell] + 1):
            assert flat.nucleus_at(cell, k) == \
                sorted(legacy.nucleus_at(cell, k))
    for k in (1, 2, 3):
        for vertex in range(graph.n):
            ours = flat.communities_of_vertex(vertex, k)
            theirs = [sorted(c)
                      for c in legacy.communities_of_vertex(vertex, k)]
            assert ours == theirs
    for vertex in range(graph.n):
        assert flat.profile(vertex) == legacy.profile(vertex)


class TestParity:
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_matches_legacy_index(self, parity_graph, backend, rs):
        decomposition = _decompose(parity_graph, backend, *rs)
        _assert_parity(decomposition, parity_graph)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_matches_legacy_index_parallel(self, parity_graph, rs):
        decomposition = _decompose(parity_graph, "csr", *rs, workers=2)
        _assert_parity(decomposition, parity_graph)

    @pytest.mark.parametrize("algorithm", ["naive", "dft", "lcps"])
    def test_other_algorithms_index_too(self, parity_graph, algorithm):
        decomposition = nucleus_decomposition(parity_graph, 1, 2,
                                              algorithm=algorithm)
        _assert_parity(decomposition, parity_graph)


def _with_tree_and_isolated(graph, isolated, seed):
    """``graph`` plus a triangle-free random tree hung off vertex 0 and
    ``isolated`` isolated vertices, ids shuffled: at (3,4) the tree's and
    the isolated vertices own no cell, and the bridge edge has one
    cell-less endpoint."""
    rng = np.random.default_rng(seed)
    tree = range(graph.n, graph.n + 12)
    edges = list(graph.edges()) + [(0, graph.n)] + [
        (int(rng.integers(graph.n, v)), v) for v in tree[1:]]
    n = graph.n + len(tree) + isolated
    relabel = rng.permutation(n).tolist()
    return Graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def _subgraph_stats(decomposition, index):
    """Every node's (n, m, edge_density) of ``graph.subgraph`` over the
    vertices of its cells: the reference the array passes must match."""
    graph, view = decomposition.graph, decomposition.view
    rows = []
    for node in range(index.num_nodes):
        sub = graph.subgraph(view.vertices_of_cells(
            index.community_cells(node).tolist()))
        rows.append((sub.n, sub.m, edge_density(sub)))
    nv, ne, density = zip(*rows)
    return (np.array(nv, dtype=np.int64), np.array(ne, dtype=np.int64),
            np.array(density, dtype=np.float64))


def _assert_stats_match_subgraphs(decomposition, index):
    index.precompute_stats()
    got = index._stat_arrays
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    for ours, theirs in zip(got, _subgraph_stats(decomposition, index)):
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()  # bit for bit


class TestNodeStats:
    """Every node's statistics, the root's and off-chain nodes' included,
    against ``graph.subgraph`` + :func:`edge_density` per node."""

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    @pytest.mark.parametrize("graph", GENERATOR_SUITE,
                             ids=[g.name for g in GENERATOR_SUITE])
    def test_generator_suite(self, graph, backend, rs):
        decomposition = _decompose(graph, backend, *rs)
        _assert_stats_match_subgraphs(decomposition,
                                      FlatHierarchyIndex(decomposition))

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("backend", ["object", "csr"])
    @pytest.mark.parametrize("isolated", [0, 1, 2, 3])
    def test_cell_less_vertices_built_and_reloaded(self, isolated, backend,
                                                   rs, tmp_path):
        graph = _with_tree_and_isolated(
            generators.powerlaw_cluster(40, 4, 0.6, seed=isolated),
            isolated, seed=isolated)
        decomposition = _decompose(graph, backend, *rs)
        built = FlatHierarchyIndex(decomposition)
        _assert_stats_match_subgraphs(decomposition, built)
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        reloaded = FlatHierarchyIndex.load(path, graph=decomposition.graph)
        _assert_stats_match_subgraphs(decomposition, reloaded)

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_forced_sharding_engine(self, rs, monkeypatch):
        # the csr engine with its listing split over threads on any host
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 2)
        graph = _with_tree_and_isolated(
            generators.powerlaw_cluster(60, 5, 0.6, seed=4), 2, seed=4)
        decomposition = _decompose(graph, "csr", *rs, workers=2)
        _assert_stats_match_subgraphs(decomposition,
                                      FlatHierarchyIndex(decomposition))

    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    def test_parallel_engine_saves_the_csr_arrays(self, rs, tmp_path,
                                                  monkeypatch):
        # threads change how the listing is split, never what it lists:
        # the saved index holds the csr engine's arrays, dtype and bytes
        monkeypatch.setattr(csr_module, "available_cpus", lambda: 3)
        graph = generators.powerlaw_cluster(150, 6, 0.6, seed=7)
        saved = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.npz"
            FlatHierarchyIndex(_decompose(graph, "csr", *rs,
                                          workers=workers)).save(path)
            with np.load(path) as archive:
                saved[workers] = {key: (archive[key].dtype,
                                        archive[key].tobytes())
                                  for key in archive.files}
        assert saved[2] == saved[1]

    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_zero_cell_index(self, backend):
        graph = _with_tree_and_isolated(Graph.empty(1), 2, seed=5)
        decomposition = _decompose(graph, backend, 3, 4)
        index = FlatHierarchyIndex(decomposition)
        assert index.num_cells == 0
        _assert_stats_match_subgraphs(decomposition, index)

    @pytest.mark.parametrize("backend", ["object", "csr"])
    def test_single_vertex_root(self, backend):
        # nv = 1 at the root: density 0.0, not 0/0
        decomposition = _decompose(Graph.empty(1), backend, 1, 2)
        index = FlatHierarchyIndex(decomposition)
        _assert_stats_match_subgraphs(decomposition, index)
        assert index._stat_arrays[0].tolist() == [1]

    def test_lifting_table_stops_on_a_cyclic_parent_array(self):
        # a corrupt node_parent with a 3-cycle never converges under
        # pointer doubling; the table stops at the node count's bit length
        table = flatindex_module._lifting_table(np.array([0, 2, 3, 1]))
        assert len(table) == 1 + (4).bit_length()

    def test_edge_pass_accumulates_across_chunks(self, monkeypatch):
        graph = _with_tree_and_isolated(
            generators.powerlaw_cluster(60, 5, 0.6, seed=6), 1, seed=6)
        monkeypatch.setattr(flatindex_module, "_STATS_CHUNK", 1)
        for rs in ((2, 3), (3, 4)):
            decomposition = _decompose(graph, "csr", *rs)
            _assert_stats_match_subgraphs(decomposition,
                                          FlatHierarchyIndex(decomposition))

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=14, max_m=50))
    def test_random_graphs(self, graph):
        for rs in RS_PAIRS:
            for backend in ("object", "csr"):
                decomposition = _decompose(graph, backend, *rs)
                _assert_stats_match_subgraphs(
                    decomposition, FlatHierarchyIndex(decomposition))


class TestBatchVariants:
    @pytest.fixture(scope="class")
    def flat(self, parity_graph):
        return FlatHierarchyIndex(
            decompose(parity_graph, 2, 3, algorithm="fnd", backend="csr"))

    def test_max_nucleus_batch(self, flat):
        cells = np.arange(flat.num_cells)
        batch = flat.max_nucleus_batch(cells)
        assert len(batch) == flat.num_cells
        for cell, answer in zip(cells.tolist(), batch):
            assert answer.tolist() == flat.max_nucleus(cell)

    def test_nucleus_at_batch(self, flat):
        cells = [c for c in range(flat.num_cells) if flat.lam[c] >= 1]
        for answer, cell in zip(flat.nucleus_at_batch(cells, 1), cells):
            assert answer.tolist() == flat.nucleus_at(cell, 1)

    def test_nucleus_at_batch_rejects_shallow_cells(self, flat):
        shallow = int(np.argmin(flat.lam))
        with pytest.raises(InvalidParameterError):
            flat.nucleus_at_batch([shallow], int(flat.lam[shallow]) + 1)

    def test_communities_batch(self, flat, parity_graph):
        vertices = list(range(parity_graph.n))
        batch = flat.communities_of_vertex_batch(vertices, 2)
        for vertex, communities in zip(vertices, batch):
            assert [c.tolist() for c in communities] == \
                flat.communities_of_vertex(vertex, 2)

    def test_profile_batch(self, flat, parity_graph):
        vertices = list(range(parity_graph.n))
        batch = flat.profile_batch(vertices)
        for vertex, levels in zip(vertices, batch):
            assert levels == flat.profile(vertex)

    def test_out_of_range_vertices_are_empty(self, flat):
        batch = flat.communities_of_vertex_batch([-3, 10 ** 6], 1)
        assert batch == [[], []]
        assert flat.profile_batch([10 ** 6]) == [[]]
        # n = 0: every vertex is out of range of a one-entry vert_indptr
        empty = build_query_index(Graph(0, []), 1, 2, backend="csr")
        assert empty.communities_of_vertex_batch([0, -3], 1) == [[], []]
        assert empty.communities_of_vertex(0, 1) == []
        assert empty.profile_batch([0]) == [[]]

    def test_rejects_non_flat_input(self, flat):
        with pytest.raises(InvalidParameterError):
            flat.communities_of_vertex_batch([[0, 1], [2, 3]], 1)

    def test_out_of_range_k_keeps_the_tops_cache_bounded(self, parity_graph):
        """k below the lowest level answers as the lowest level, k above
        the highest answers nothing, and neither side grows the per-k
        cache past one entry per level plus one per side."""
        flat = FlatHierarchyIndex(
            decompose(parity_graph, 2, 3, algorithm="fnd", backend="csr"))
        low, high = int(flat.node_k.min()), int(flat.node_k.max())
        vertices = list(range(parity_graph.n))
        cells = list(range(flat.num_cells))

        def answers(k):
            return ([[c.tolist() for c in row] for row in
                     flat.communities_of_vertex_batch(vertices, k)],
                    [a.tolist() for a in flat.nucleus_at_batch(cells, k)]
                    if k <= low else None)

        at_low = answers(low)
        at_levels = {k: answers(k) for k in range(low, high + 1)}
        for k in [*range(high + 1, high + 400), 10**30, *range(-40, low),
                  -10**30]:
            communities, nuclei = answers(k)
            if k < low:
                assert (communities, nuclei) == at_low
            else:
                assert communities == [[] for _ in vertices]
        assert len(flat._tops_cache) <= high - low + 2
        assert {k: answers(k) for k in range(low, high + 1)} == at_levels


class TestStructure:
    def test_is_ancestor_matches_tree(self, parity_graph):
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        flat = FlatHierarchyIndex(decomposition)
        tree = decomposition.hierarchy.condense()
        for node in tree.nodes:
            for other in tree.nodes:
                # interval test vs an explicit parent walk
                current, found = other.id, False
                while current is not None:
                    if current == node.id:
                        found = True
                        break
                    current = tree[current].parent
                assert flat.is_ancestor(node.id, other.id) == found

    def test_rejects_hypo(self, parity_graph):
        decomposition = nucleus_decomposition(parity_graph, 1, 2,
                                              algorithm="hypo")
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex(decomposition)

    def test_nucleus_at_too_deep_raises(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd"))
        with pytest.raises(InvalidParameterError):
            flat.nucleus_at(10, 3)

    def test_figure2_answers(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(figure2_graph(), 1, 2, algorithm="fnd"))
        assert flat.max_nucleus(0) == [0, 1, 2, 3]
        assert flat.nucleus_at(0, 2) == list(range(10))
        assert flat.nucleus_at(0, 1) == list(range(11))

    def test_bowtie_center_two_communities(self):
        flat = FlatHierarchyIndex(
            nucleus_decomposition(bowtie(), 2, 3, algorithm="fnd"))
        communities = flat.communities_of_vertex(0, 1)
        assert len(communities) == 2
        assert all(len(c) == 3 for c in communities)


#: seconds a fresh-process query may take before it counts as a hang
QUERY_TIMEOUT_S = 60


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter on this checkout's ``src``,
    failing the test (not hanging it) past :data:`QUERY_TIMEOUT_S`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=QUERY_TIMEOUT_S)


def _write_index_file(path: Path, arrays: dict) -> Path:
    """``arrays`` written as ``FlatHierarchyIndex.save`` writes them, so
    the ``mmap_mode="r"`` loads of the file map it rather than falling
    back to an eager load."""
    with open(path, "wb") as handle:
        flatindex_module.write_npz(handle, arrays)
    assert flatindex_module.mmap_npz(path) is not None
    return path


def _broken_tree_file(index: FlatHierarchyIndex, variant: str,
                      tmp_path: Path) -> Path:
    """``index`` saved with one corruption of its tree, cell or vertex-map
    arrays."""
    index.save(tmp_path / "good.npz")
    with np.load(tmp_path / "good.npz") as payload:
        arrays = {name: payload[name] for name in payload.files}
    parent, tin = arrays["node_parent"], arrays["tin"]
    a, b, c = [x for x in range(len(parent)) if x != index.root][:3]
    cell_tin, indptr = arrays["cell_tin_sorted"], arrays["vert_indptr"]
    if variant == "three_cycle":
        parent[a], parent[b], parent[c] = b, c, a
    elif variant == "two_roots":
        parent[a] = -1
    elif variant == "parent_out_of_range":
        parent[a] = len(parent)
    elif variant == "tin_not_permutation":
        tin[a] = tin[b]
    elif variant == "cell_node_negative":
        arrays["cell_node"][0] = -1
    elif variant == "cell_node_out_of_range":
        arrays["cell_node"][0] = len(parent)
    elif variant == "lam_short":
        arrays["lam"] = arrays["lam"][:-1]
    elif variant == "lam_float":
        arrays["lam"] = arrays["lam"].astype(np.float64)
    elif variant == "cells_in_tour_zeroed":
        arrays["cells_in_tour"][:] = 0
    elif variant == "cells_in_tour_out_of_range":
        arrays["cells_in_tour"][0] = len(arrays["cells_in_tour"])
    elif variant == "cell_tin_sorted_wrong":
        cell_tin[-1] = cell_tin[0]
    elif variant == "cell_tin_sorted_2d":
        arrays["cell_tin_sorted"] = np.column_stack([cell_tin, cell_tin])
    elif variant == "vert_indptr_short":
        arrays["vert_indptr"] = indptr[:-1]
    elif variant == "vert_indptr_nonzero_start":
        indptr[0] = 1
    elif variant == "vert_indptr_decreasing":
        step = int(np.flatnonzero(np.diff(indptr) > 0)[0])
        indptr[step + 1] = indptr[step] - 1
    elif variant == "vert_indptr_wrong_end":
        indptr[-1] += 1
    else:
        assert variant == "vert_nodes_out_of_range"
        arrays["vert_nodes"][0] = len(parent)
    return _write_index_file(tmp_path / f"{variant}.npz", arrays)


class TestPersistence:
    @pytest.fixture(scope="class")
    def built(self, parity_graph):
        return FlatHierarchyIndex(
            decompose(parity_graph, 2, 3, algorithm="fnd", backend="csr"))

    def test_round_trip(self, built, parity_graph, tmp_path):
        path = tmp_path / "index.npz"
        built.save(path)
        loaded = FlatHierarchyIndex.load(path)
        assert loaded.r == built.r and loaded.s == built.s
        assert loaded.algorithm == built.algorithm
        vertices = list(range(parity_graph.n))
        fresh = built.communities_of_vertex_batch(vertices, 2)
        again = loaded.communities_of_vertex_batch(vertices, 2)
        for row_a, row_b in zip(fresh, again):
            assert [c.tolist() for c in row_a] == [c.tolist() for c in row_b]
        # stats were persisted: profiles answer with no graph attached
        assert loaded.graph is None
        assert loaded.profile_batch(vertices) == \
            built.profile_batch(vertices)

    def test_stats_false_profile_needs_graph(self, built, parity_graph,
                                             tmp_path):
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        loaded = FlatHierarchyIndex.load(path)
        assert loaded.communities_of_vertex(0, 1) == \
            built.communities_of_vertex(0, 1)
        with pytest.raises(InvalidParameterError):
            loaded.profile(0)
        attached = FlatHierarchyIndex.load(path, graph=parity_graph)
        assert attached.profile(0) == built.profile(0)

    def test_attached_graph_must_match_vertex_count(self, built, tmp_path):
        path = tmp_path / "lean.npz"
        built.save(path, stats=False)
        smaller = generators.powerlaw_cluster(60, 5, 0.5, seed=9)
        with pytest.raises(InvalidParameterError, match="60"):
            FlatHierarchyIndex.load(path, graph=smaller)

    @pytest.mark.parametrize("variant", ["truncated", "2d", "dtype"])
    @pytest.mark.parametrize("key", ["node_nv", "node_ne", "node_density"])
    def test_malformed_stats_rejected_at_load(self, built, key, variant,
                                              tmp_path):
        built.save(tmp_path / "good.npz")
        with np.load(tmp_path / "good.npz") as payload:
            arrays = {name: payload[name] for name in payload.files}
        stat = arrays[key]
        if variant == "truncated":
            arrays[key] = stat[:-1]
        elif variant == "2d":
            arrays[key] = np.column_stack([stat, stat])
        else:
            arrays[key] = stat.astype(
                np.int64 if stat.dtype.kind == "f" else np.float64)
        path = _write_index_file(tmp_path / "bad.npz", arrays)
        for mmap_mode in (None, "r"):
            with pytest.raises(GraphFormatError, match=key):
                FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)

    def test_partial_stats_load_as_stats_false(self, built, tmp_path):
        built.save(tmp_path / "good.npz")
        with np.load(tmp_path / "good.npz") as payload:
            arrays = {name: payload[name] for name in payload.files
                      if name != "node_ne"}
        path = tmp_path / "partial.npz"
        np.savez(path, **arrays)
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex.load(path).profile(0)

    def test_failed_save_keeps_previous_index(self, built, tmp_path,
                                              monkeypatch):
        """A save that dies mid-write leaves the old file byte-identical
        and no temp file behind."""
        path = tmp_path / "index.npz"
        built.save(path)
        before = path.read_bytes()

        def dies_mid_write(handle, arrays):
            handle.write(before[:100])
            raise OSError("disk full")

        monkeypatch.setattr(flatindex_module, "write_npz", dies_mid_write)
        with pytest.raises(OSError, match="disk full"):
            built.save(path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["index.npz"]

    def test_save_replaces_existing_index(self, built, tmp_path):
        path = tmp_path / "index.npz"
        path.write_bytes(b"stale")
        built.save(path, stats=False)
        assert FlatHierarchyIndex.load(path).num_nodes == built.num_nodes
        assert [entry.name for entry in tmp_path.iterdir()] == ["index.npz"]

    @pytest.mark.parametrize("variant, array", [
        ("three_cycle", "node_parent"),
        ("two_roots", "node_parent"),
        ("parent_out_of_range", "node_parent"),
        ("tin_not_permutation", "tin"),
        ("cell_node_negative", "cell_node"),
        ("cell_node_out_of_range", "cell_node"),
        ("lam_short", "lam"),
        ("lam_float", "lam"),
        ("cells_in_tour_zeroed", "cells_in_tour"),
        ("cells_in_tour_out_of_range", "cells_in_tour"),
        ("cell_tin_sorted_wrong", "cell_tin_sorted"),
        ("cell_tin_sorted_2d", "cell_tin_sorted"),
        ("vert_indptr_short", "vert_indptr"),
        ("vert_indptr_nonzero_start", "vert_indptr"),
        ("vert_indptr_decreasing", "vert_indptr"),
        ("vert_indptr_wrong_end", "vert_indptr"),
        ("vert_nodes_out_of_range", "vert_nodes"),
    ])
    def test_broken_tree_rejected_at_load(self, built, variant, array,
                                          tmp_path):
        path = _broken_tree_file(built, variant, tmp_path)
        for mmap_mode in (None, "r"):
            with pytest.raises(GraphFormatError, match=array):
                FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)

    def test_cyclic_index_query_ends_in_fresh_process(self, built, tmp_path):
        """Loading the 3-cycle index and querying it must end, by an error
        at load; an index loaded as valid would spin in the query."""
        path = _broken_tree_file(built, "three_cycle", tmp_path)
        script = (
            "import sys\n"
            "from repro.errors import GraphFormatError\n"
            "from repro.flatindex import FlatHierarchyIndex\n"
            "try:\n"
            "    index = FlatHierarchyIndex.load(sys.argv[1])\n"
            "except GraphFormatError:\n"
            "    sys.exit(0)\n"
            "index.nucleus_at(int(index.lam.argmax()), 1)\n"
            "sys.exit('loaded')\n")
        out = _run_fresh(script, str(path))
        assert out.returncode == 0, out.stderr

    def test_tops_at_stops_on_a_cyclic_parent_array(self, built, tmp_path):
        """The doubling is capped at the node count's bit length, so even a
        parent array that skipped load's checks cannot hang a query."""
        path = tmp_path / "good.npz"
        built.save(path, stats=False)
        script = (
            "import sys\n"
            "from repro.flatindex import FlatHierarchyIndex\n"
            "index = FlatHierarchyIndex.load(sys.argv[1])\n"
            "parent = index.node_parent.copy()\n"
            "a, b, c = [x for x in range(index.num_nodes)\n"
            "           if x != index.root][:3]\n"
            "parent[a], parent[b], parent[c] = b, c, a\n"
            "index.node_parent = parent\n"
            "print(len(index._tops_at(1)))\n")
        out = _run_fresh(script, str(path))
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) == built.num_nodes

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(GraphFormatError):
            FlatHierarchyIndex.load(path)

    def test_wrong_payload_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(GraphFormatError):
            FlatHierarchyIndex.load(path)

    def test_fresh_process_round_trip(self, built, parity_graph, tmp_path):
        """save → load → query in a brand-new interpreter."""
        path = tmp_path / "served.npz"
        built.save(path)
        vertices = list(range(0, parity_graph.n, 3))
        script = (
            "import json, sys\n"
            "from repro.flatindex import FlatHierarchyIndex\n"
            "index = FlatHierarchyIndex.load(sys.argv[1])\n"
            "vertices = json.loads(sys.argv[2])\n"
            "answers = [[c.tolist() for c in row] for row in\n"
            "           index.communities_of_vertex_batch(vertices, 2)]\n"
            "profiles = [[(lvl.k, lvl.node_id, lvl.num_vertices,\n"
            "              lvl.num_edges, lvl.density) for lvl in row]\n"
            "            for row in index.profile_batch(vertices)]\n"
            "print(json.dumps({'answers': answers, 'profiles': profiles}))\n")
        out = _run_fresh(script, str(path), json.dumps(vertices))
        assert out.returncode == 0, out.stderr
        served = json.loads(out.stdout)
        expected = [[c.tolist() for c in row] for row in
                    built.communities_of_vertex_batch(vertices, 2)]
        assert served["answers"] == expected
        expected_profiles = [
            [(lvl.k, lvl.node_id, lvl.num_vertices, lvl.num_edges,
              lvl.density) for lvl in row]
            for row in built.profile_batch(vertices)]
        assert [[tuple(lvl) for lvl in row] for row in served["profiles"]] \
            == expected_profiles


class TestHierarchyNpz:
    def test_round_trip(self, parity_graph, tmp_path):
        hierarchy = decompose(parity_graph, 2, 3, algorithm="fnd",
                              backend="csr").hierarchy
        path = tmp_path / "h.npz"
        save_hierarchy_npz(hierarchy, path)
        restored = load_hierarchy_npz(path)
        restored.validate()
        assert restored.lam == hierarchy.lam
        assert restored.node_lambda == hierarchy.node_lambda
        assert restored.parent == hierarchy.parent
        assert restored.comp == hierarchy.comp
        assert restored.root == hierarchy.root
        assert restored.algorithm == hierarchy.algorithm

    def test_index_from_persisted_hierarchy(self, parity_graph, tmp_path):
        """hierarchy .npz + graph → index, no re-peeling, same answers."""
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        path = tmp_path / "h.npz"
        save_hierarchy_npz(decomposition.hierarchy, path)
        rebuilt = FlatHierarchyIndex(hierarchy=load_hierarchy_npz(path),
                                     graph=decomposition.graph)
        direct = FlatHierarchyIndex(decomposition)
        for vertex in range(0, parity_graph.n, 7):
            assert rebuilt.communities_of_vertex(vertex, 2) == \
                direct.communities_of_vertex(vertex, 2)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"nope")
        with pytest.raises(GraphFormatError):
            load_hierarchy_npz(path)


class TestWiring:
    def test_build_query_index(self, parity_graph):
        index = build_query_index(parity_graph, 2, 3, backend="csr")
        assert isinstance(index, FlatHierarchyIndex)
        assert (index.r, index.s) == (2, 3)
        assert index.num_cells == parity_graph.m

    def test_flat_index_requires_graph_with_bare_hierarchy(self,
                                                           parity_graph):
        hierarchy = decompose(parity_graph, 1, 2).hierarchy
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex(hierarchy=hierarchy)

    def test_lazy_legacy_index_builds_nothing_up_front(self, parity_graph):
        decomposition = decompose(parity_graph, 2, 3, algorithm="fnd",
                                  backend="csr")
        index = HierarchyIndex(decomposition)
        assert index._tree is None
        assert index._vertex_map is None
        index.communities_of_vertex(0, 1)
        assert index._vertex_map is not None
