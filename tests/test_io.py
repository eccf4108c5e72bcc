"""Graph IO round-trips and malformed-input handling."""

import pytest

from repro.errors import GraphFormatError
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.io import (
    dedup_edges,
    load_edge_list,
    load_graph,
    load_json,
    load_mtx,
    relabel_edges,
    save_edge_list,
    save_json,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = generators.powerlaw_cluster(50, 3, 0.4, seed=3)
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.n == g.n
        assert loaded.m == g.m

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% also comment\n0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.m == 2

    def test_string_ids_relabelled(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.m == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        assert load_edge_list(path).m == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert load_edge_list(path).name == "mygraph"


class TestMtx:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n"
            "3 3 2\n"
            "2 1\n"
            "3 2\n")
        g = load_mtx(path)
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("3 3 1\n1 2\n")
        with pytest.raises(GraphFormatError):
            load_mtx(path)

    def test_diagonal_dropped(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "2 2 2\n1 1\n1 2\n")
        assert load_mtx(path).m == 1

    def test_out_of_range_raises(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "2 2 1\n1 5\n")
        with pytest.raises(GraphFormatError):
            load_mtx(path)

    def test_error_names_the_physical_line(self, tmp_path):
        """Header, comment and size lines count: the bad entry below is
        on line 5 of the file."""
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "% comment\n"
                        "3 3 2\n"
                        "2 1\n"
                        "9 1\n")
        with pytest.raises(GraphFormatError, match=r"g\.mtx:5: entry \(9, 1\)"):
            load_mtx(path)


class TestJson:
    def test_round_trip(self, tmp_path):
        g = Graph(4, [(0, 1), (2, 3)], name="jj")
        path = tmp_path / "g.json"
        save_json(g, path)
        loaded = load_json(path)
        assert loaded == g
        assert loaded.name == "jj"

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"edges": "nope"}')
        with pytest.raises(GraphFormatError):
            load_json(path)


class TestDispatch:
    def test_by_extension(self, tmp_path):
        g = Graph(3, [(0, 1)])
        for name in ("g.txt", "g.json"):
            path = tmp_path / name
            (save_json if name.endswith("json") else save_edge_list)(g, path)
            assert load_graph(path).m == 1

    def test_mtx_dispatch(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "2 2 1\n1 2\n")
        assert load_graph(path).m == 1


class TestRelabel:
    def test_first_seen_order(self):
        n, edges = relabel_edges([("x", "y"), ("y", "z")])
        assert n == 3
        assert edges == [(0, 1), (1, 2)]

    def test_self_loops_skipped(self):
        n, edges = relabel_edges([("a", "a"), ("a", "b")])
        assert n == 2
        assert edges == [(0, 1)]


class TestDedup:
    def test_relabel_drops_exact_duplicates(self):
        n, edges = relabel_edges([(5, 7), (5, 7), (5, 7)])
        assert n == 2
        assert edges == [(0, 1)]

    def test_relabel_drops_reversed_duplicates(self):
        n, edges = relabel_edges([(5, 7), (7, 5), (5, 7)])
        assert n == 2
        assert edges == [(0, 1)]

    def test_relabel_keeps_first_seen_orientation(self):
        _, edges = relabel_edges([("b", "a"), ("a", "b"), ("a", "c")])
        assert edges == [(0, 1), (1, 2)]

    def test_dedup_edges_helper(self):
        assert dedup_edges([(3, 1), (1, 3), (3, 1), (0, 2)]) == \
            [(3, 1), (0, 2)]

    def test_edge_list_loader_dedups(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("5 7\n7 5\n5 7\n7 9\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.m == 2

    def test_mtx_both_orientations_one_edge(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "3 3 4\n1 2\n2 1\n2 3\n3 2\n")
        g = load_mtx(path)
        assert g.m == 2
