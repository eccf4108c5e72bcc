"""Array-first ingest: the byte-block edge-list parser against the per-line
reference, the one CSR builder, the lazily adjacent :class:`Graph`, and the
disk builder that shares the parser.

The oracle is the text-mode per-line loop (``io._line_pairs``) followed by
:func:`relabel_edges` and the object :class:`Graph`'s adjacency: every
file in the corpus, and every generated ASCII file, must give the same
``n``, the same CSR arrays, an equal :class:`Graph` and the identical
:class:`GraphFormatError` message, at the default block size and at tiny
ones (which cut lines, CRLFs and tokens' neighbourhoods across blocks).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import as_csr, as_object, decompose
from repro.errors import GraphFormatError
from repro.external.build import build_diskcsr
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, csr_build_arrays, sorted_unique
from repro.graph import io
from repro.graph.io import (
    BLOCK_BYTES,
    EdgeBlocks,
    _line_pairs,
    load_edge_list,
    relabel_edges,
    save_edge_list,
)

from _graphs import reference_csr_arrays

ARRAYS = ("indptr", "indices", "eids", "esrc", "etgt")

#: block sizes every corpus file is parsed at: the default plus tiny ones
BLOCK_SIZES = (BLOCK_BYTES, 1, 2, 3, 5, 8, 13)

CORPUS = {
    "crlf": b"1 2\r\n2 3\r\n3 1\r\n",
    "lone_cr": b"1 2\r2 3\r3 1\r",
    "mixed_endings": b"1 2\n2 3\r\n3 4\r4 1\n\r\n\r5 1",
    # with block sizes 1..13 some cut falls between each CR and its LF
    "crlf_across_blocks": b"10 20\r\n20 30\r\n\r\n30 10\r\n  40 10 \r\n",
    "no_trailing_newline": b"1 2\n2 3",
    "blank_and_whitespace_lines": b"\n\n1 2\n   \n\t\n\x0b\x0c\n2 3\n\n",
    "indented_comments": b"  # comment\n\t% other\n1 2\n  #x y z\n%\n#\n2 3\n",
    "comment_marks_inside_tokens": b"a#b c%d\nc%d e#\n1 #2\n",
    "extra_columns": b"1 2 0.5 extra\n2 3 7\n3 1 x y z\n",
    "string_tokens": b"alice bob\nbob carol\ncarol alice\n",
    "long_tokens": (b"vertex_number_one vertex_number_two\n"
                    b"vertex_number_two x\nabcdefgh abcdefghi\n"
                    b"abcdefghi abcdefghijklmnopq\nx abcdefgh\n"),
    "leading_zeros": b"01 1\n1 001\n01 001\n",
    "negative_ids": b"-1 2\n2 -3\n-1 -3\n-3 3\n",
    "self_loop_only_tokens": b"5 5\n1 2\n7 7\n2 7\n9 9\n",
    "duplicate_and_reversed": b"1 2\n2 1\n1 2\n3 1\n1 3\n3 1\n",
    "ascii_whitespace_kinds": b"1\x0b2\n2\x0c3\n3\x1c4\n4\x1d5\x1e6\x1f7\n",
    "control_bytes_in_tokens": b"a a\x00\na\x00 b\x01\n\x7f a\nb\x01 \x7f\n",
    "empty": b"",
    "comment_only": b"# just a header\n% another\n",
    "malformed": b"1 2\n\n  7  \n3 4\n",
    "malformed_after_cr_lines": b"1 2\r2 3\r\r4\r5 6\r",
    "malformed_after_crlf_lines": b"1 2\r\n2 3\r\n\r\n7\r\n",
    "malformed_last_line": b"1 2\n2 3\n9",
    "non_ascii": "α β\nβ γ\nγ δ\n# é\n\u0085δ α\n".encode(),
    "non_ascii_malformed": "α β\nβ \n".encode(),
    # the CR ends the comment in text mode; "1 2" is data
    "comment_ended_by_cr": b"# c\r1 2\n2 3\n",
    # past 10**18 the C parse saturates; the tokens stay distinct
    "int64_edge": (b"9223372036854775807 1\n9223372036854775808 1\n"
                   b"99999999999999999999 1\n"),
    "whitespace_only_lines": b"\n \n\t\n",
    "signed_token": b"+1 2\n1 2\n",
    "snap_header_tabs": (b"# Undirected graph: toy.txt\n# Nodes: 4 Edges: 5\n"
                         b"# FromNodeId\tToNodeId\n3466\t937\n3466\t5233\n"
                         b"937\t5233\n10310\t3466\n10310\t5233\n"),
    "ids_past_table_cap": b"1 2\n2 3\n3 4000000000\n4000000000 1\n",
    # canonical lines first, so the tiny block sizes switch paths mid-file
    "canonical_then_string": b"1 2\n2 3\n3 1\n3 alice\nalice 1\n",
    "canonical_then_leading_zero": b"1 2\n2 3\n3 1\n3 01\n01 1\n1 3\n",
    "canonical_then_crlf": b"1 2\n2 3\n3 1\n3 4\r\n4 1\n2 4\n",
    # the digit counts alone would read "3\n4" as one line's two tokens
    "one_token_lines": b"1 2\n3\n4\n",
}


def reference(path: Path):
    """``(n, edges)`` from the per-line reference loop, or its error."""
    try:
        return relabel_edges(_line_pairs(path)), None
    except GraphFormatError as exc:
        return None, str(exc)


def csr_arrays(csr) -> dict:
    return {key: getattr(csr, key).tolist() for key in ARRAYS}


def load_in_blocks(path: Path, block_bytes: int) -> Graph:
    with mock.patch.object(io, "BLOCK_BYTES", block_bytes):
        return load_edge_list(path)


def check_matches_reference(path: Path, block_bytes: int) -> None:
    expected, error = reference(path)
    if error is not None:
        with pytest.raises(GraphFormatError) as raised:
            load_in_blocks(path, block_bytes)
        assert str(raised.value) == error
        return
    n, edges = expected
    graph = load_in_blocks(path, block_bytes)
    assert graph.n == n
    assert graph.m == len(edges)
    assert csr_arrays(as_csr(graph)) == reference_csr_arrays(Graph(n, edges))
    assert graph == Graph(n, edges)
    assert graph.name == path.stem


@pytest.fixture(params=sorted(CORPUS))
def corpus_file(request, tmp_path) -> Path:
    path = tmp_path / f"{request.param}.txt"
    path.write_bytes(CORPUS[request.param])
    return path


class TestParserMatchesReference:
    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    def test_corpus(self, corpus_file, block_bytes):
        check_matches_reference(corpus_file, block_bytes)

    def test_corpus_expectations(self, tmp_path):
        """Spot checks that the oracle itself reads the corpus as meant."""
        def load(key):
            path = tmp_path / f"{key}.txt"
            path.write_bytes(CORPUS[key])
            return load_edge_list(path)

        assert load("lone_cr").m == 3
        assert load("leading_zeros").n == 3  # "01", "1", "001" differ
        assert load("self_loop_only_tokens").n == 3  # 5 and 9 get no id
        assert load("duplicate_and_reversed").m == 2
        assert load("control_bytes_in_tokens").n == 4  # "a" != "a\0"
        assert load("empty").n == 0 and load("comment_only").n == 0
        assert load("non_ascii").m == 4  # NEL strips like a space
        with pytest.raises(GraphFormatError,
                           match=r":4: expected 'u v', got '4'$"):
            load("malformed_after_cr_lines")
        with pytest.raises(GraphFormatError, match=r":3: .* got '7'$"):
            load("malformed")
        with pytest.raises(GraphFormatError, match=r":4: .* got '7'$"):
            load("malformed_after_crlf_lines")
        assert (load("comment_ended_by_cr").n,
                load("comment_ended_by_cr").m) == (3, 2)
        assert load("int64_edge").n == 4
        assert load("whitespace_only_lines").n == 0
        assert load("signed_token").n == 3  # "+1" and "1" differ
        assert (load("snap_header_tabs").n, load("snap_header_tabs").m) \
            == (4, 5)
        assert load("ids_past_table_cap").n == 4
        with pytest.raises(GraphFormatError, match=r":2: .* got '3'$"):
            load("one_token_lines")

    def test_ids_are_first_seen_order(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"z y\nq q\ny x\nw z\n")
        csr = as_csr(load_edge_list(path))
        # z=0, y=1, x=2, w=3
        assert list(csr.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_generated_graph_round_trip(self, tmp_path):
        g = generators.powerlaw_cluster(300, 4, 0.3, seed=5)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        for block_bytes in (BLOCK_BYTES, 97):
            check_matches_reference(path, block_bytes)

    def test_blocks_stream_ids_and_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"a b\nb c\nc d\nd a\n")
        with mock.patch.object(io, "BLOCK_BYTES", 4):
            blocks = EdgeBlocks(path)
        parts = list(blocks)
        assert len(parts) == 4
        assert blocks.n == 4
        assert np.concatenate([u for u, _ in parts]).tolist() == [0, 1, 2, 3]
        assert np.concatenate([v for _, v in parts]).tolist() == [1, 2, 3, 0]


_TOKENS = st.sampled_from(
    ["0", "1", "2", "01", "-1", "a", "b#", "c%", "ab", "abcdefgh",
     "abcdefghi", "abcdefghijklmnopqrstuvwxyz", "x\x00", "x", "\x7f",
     "#", "%c"])
_SPACES = st.sampled_from([" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f",
                           " \t "])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def edge_files(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["extra", "comment",
                                                    "blank", "short"]))
        lead = draw(st.sampled_from(["", " ", "\t "]))
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t", "\x0c"]))
        elif kind == "comment":
            body = draw(st.sampled_from(["#", "%"])) + draw(_TOKENS)
        elif kind == "short":
            body = draw(_TOKENS)
        else:
            width = 3 if kind == "extra" else 2
            body = draw(_SPACES).join(draw(_TOKENS) for _ in range(width))
        tail = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + body + tail)
    endings = [draw(_ENDINGS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("ascii")


#: what one perturbation of a canonical file inserts or writes over a byte
_PERTURBATIONS = st.sampled_from(
    ["\r\n", "\r", "\n", " ", "\t", "  ", "0", "1", "-", "+", "#", "%", "a",
     "\x0b", "99999999999999999999", "9223372036854775808",
     "1000000000000000000", "999999999999999999"])


@st.composite
def near_canonical_files(draw) -> bytes:
    """Mostly canonical ``u v`` lines and line-start comments, then at most
    a couple of single-byte-position perturbations (insert, delete or
    overwrite), so most files are canonical or one step from it."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 11)) == 0:
            lines.append(draw(st.sampled_from(["#", "%"]))
                         + draw(st.sampled_from(["", " c", "x\ty", "#"])))
        else:
            u = draw(st.integers(0, draw(st.sampled_from([5, 30, 10**7]))))
            v = draw(st.integers(0, draw(st.sampled_from([5, 30, 1000]))))
            lines.append(f"{u}{draw(st.sampled_from([' ', chr(9)]))}{v}")
    text = "".join(line + "\n" for line in lines)
    if text and draw(st.integers(0, 4)) == 0:
        text = text[:-1]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        if not text:
            break
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "overwrite"]))
        if edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            skip = 1 if edit == "overwrite" else 0
            text = text[:at] + draw(_PERTURBATIONS) + text[at + skip:]
    return text.encode("ascii")


class TestGeneratedFiles:
    @settings(max_examples=150, deadline=None)
    @given(data=edge_files(), block_bytes=st.sampled_from(
        [BLOCK_BYTES, 1, 2, 3, 7, 16]))
    def test_matches_reference(self, data, block_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gen.txt"
            path.write_bytes(data)
            check_matches_reference(path, block_bytes)

    @settings(max_examples=300, deadline=None)
    @given(data=near_canonical_files(), block_bytes=st.sampled_from(
        [BLOCK_BYTES, 1, 2, 3, 7, 16]))
    def test_near_canonical_matches_reference(self, data, block_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gen.txt"
            path.write_bytes(data)
            check_matches_reference(path, block_bytes)


def _no_tokeniser(*args):
    raise AssertionError("the tokeniser parsed a block")


class TestCanonicalBlocks:
    """The checked ``np.fromstring`` path: which blocks it takes, and the
    switch to the tokeniser."""

    @pytest.mark.parametrize("block, values", [
        (b"1 2\n", [1, 2]),
        (b"1\t2\n0 0\n", [1, 2, 0, 0]),
        (b"1 2", [1, 2]),  # step 2: the file's last line
        (b"# h\n1 2\n% x y\n#\n3 4\n", [1, 2, 3, 4]),  # step 3
        (b"# only\n", []),
        (b"999999999999999999 1\n", [999999999999999999, 1]),
    ])
    def test_canonical(self, block, values):
        parsed = io._canonical_values(block)
        assert parsed is not None and parsed[0].tolist() == values
        assert parsed[1] == block.count(b"\n")

    @pytest.mark.parametrize("block", [
        b"# c\r0 42\n38\t15\n",  # step 1: a CR
        b"1 2\r\n",
        b" # h\n1 2\n",  # step 3: an indented comment stays
        b"1 2 # x\n", b"1 -2\n", b"+1 2\n", b"a b\n", b"1\x0b2\n",  # step 4
        b"1 2 3\n4 5 6\n", b"1 2\n3\n", b"1\n2\n",  # step 5
        b"9223372036854775808 1\n", b"99999999999999999999 1\n",  # step 6
        b"1000000000000000000 1\n",
        b"1 2 3\n4\n", b"01 1\n", b"1  2\n", b" 1 2\n", b"1 2 \n",  # step 7
        b"1 2\n\n", b"\n1 2\n", b"1 2\n \n", b"\n \n\t\n", b"\n",
    ])
    def test_not_canonical(self, block):
        assert io._canonical_values(block) is None

    def test_canonical_file_never_tokenised(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(generators.powerlaw_cluster(200, 4, 0.3, seed=3), path)
        for block_bytes in (BLOCK_BYTES, 64):
            with mock.patch.object(io, "_block_rows", _no_tokeniser):
                check_matches_reference(path, block_bytes)

    def test_switch_mid_file_tokenises_the_rest(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"1 2\n2 3\n3 x\nx 1\n4 1\n")
        calls = []
        tokenise = io._block_rows

        def counted(*args):
            calls.append(args[0])
            return tokenise(*args)

        with mock.patch.object(io, "_block_rows", counted):
            check_matches_reference(path, 4)
        assert calls == [b"3 x\n", b"x 1\n", b"4 1\n"]

    def test_table_cap(self, tmp_path):
        """Two tokens allow a table of 8 * 2 + 2**16 entries: values up to
        65551 stay on the canonical path, 65552 switches the file."""
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 65551\n")
        with mock.patch.object(io, "_block_rows", _no_tokeniser):
            check_matches_reference(path, BLOCK_BYTES)
        path.write_bytes(b"0 65552\n")
        with mock.patch.object(io, "_block_rows", _no_tokeniser), \
                pytest.raises(AssertionError, match="tokeniser"):
            load_edge_list(path)
        check_matches_reference(path, BLOCK_BYTES)


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        [], [7], [3, 3, 3, 3], [5, 1, 5, 2, 1, 5, 2, 2, 9, 0],
        list(range(50, 0, -1)) * 3, [-4, 2, -4, 0, 2**30, -(2**30)],
    ])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_equals_np_unique(self, values, dtype):
        keys = np.array(values, dtype=dtype)
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_flattens_like_np_unique(self):
        keys = np.array([[3, 1], [1, 2]], dtype=np.int64)
        assert sorted_unique(keys).tolist() == np.unique(keys).tolist()

    def test_random_duplicate_heavy(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 40, 5000)
        assert sorted_unique(keys).tolist() == np.unique(keys).tolist()


class TestCSRBuilder:
    def test_matches_python_build(self):
        g = generators.powerlaw_cluster(200, 5, 0.4, seed=2)
        edges = list(g.edges())
        flipped = [(v, u) for u, v in edges[::2]]
        u, v = np.array(edges + flipped).T
        built = dict(zip(ARRAYS, csr_build_arrays(g.n, u, v)))
        assert {key: arr.tolist() for key, arr in built.items()} == \
            reference_csr_arrays(g)

    def test_empty_and_edgeless(self):
        for n in (0, 4):
            indptr, *rest = csr_build_arrays(n, [], [])
            assert indptr.tolist() == [0] * (n + 1)
            assert all(len(arr) == 0 for arr in rest)

    def test_from_graph_builds_once_and_hands_over(self):
        g = generators.powerlaw_cluster(120, 4, 0.3, seed=4)
        csr = CSRGraph.from_graph(g)
        assert CSRGraph.from_graph(g) is csr
        assert as_csr(g) is csr
        assert csr_arrays(csr) == reference_csr_arrays(g)


def _lazy(graph: Graph) -> bool:
    """Whether ``graph`` has not built its set/list adjacency yet."""
    try:
        object.__getattribute__(graph, "_adj_set")
    except AttributeError:
        return True
    return False


class TestGraphHoldsCSR:
    @pytest.fixture
    def loaded(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(generators.powerlaw_cluster(150, 4, 0.4, seed=8), path)
        n, edges = relabel_edges(_line_pairs(path))
        return load_edge_list(path), Graph(n, edges, name="g")

    def test_csr_handed_over_without_copy(self, loaded):
        graph, _ = loaded
        csr = as_csr(graph)
        assert CSRGraph.from_graph(graph) is csr
        back = csr.to_object()
        assert isinstance(back, Graph) and as_csr(back) is csr
        assert as_object(csr) == graph

    def test_adjacency_built_only_on_object_use(self, loaded):
        graph, _ = loaded
        assert _lazy(graph)
        result = decompose(as_csr(graph), 2, 3, backend="csr")
        assert result.max_lambda >= 1
        assert graph.n and graph.m and _lazy(graph)
        graph.degree(0)
        assert not _lazy(graph)
        # later reads are plain slot reads, not the building hook
        adjacency = object.__getattribute__(graph, "_adj_set")
        graph.neighbors(1)
        assert object.__getattribute__(graph, "_adj_set") is adjacency

    def test_object_engine_matches(self, loaded):
        graph, plain = loaded
        lazy = decompose(graph, 1, 2, backend="object")
        assert lazy.lam == decompose(plain, 1, 2, backend="object").lam

    def test_every_accessor_agrees(self, loaded):
        graph, plain = loaded
        n = plain.n
        assert (graph.n, graph.m) == (plain.n, plain.m)
        assert list(graph.vertices()) == list(plain.vertices())
        assert list(graph.edges()) == list(plain.edges())
        assert graph.degrees() == plain.degrees()
        for v in range(n):
            assert graph.degree(v) == plain.degree(v)
            assert graph.neighbors(v) == plain.neighbors(v)
            assert graph.neighbor_set(v) == plain.neighbor_set(v)
        for u, v in [(0, 1), (1, 0), (0, n - 1), (5, 9), (-1, 0), (n, 0)]:
            assert graph.has_edge(u, v) == plain.has_edge(u, v)
        for u, v in [(0, 1), (2, 3), (7, 40), (n - 1, n - 2)]:
            assert graph.common_neighbors(u, v) == plain.common_neighbors(u, v)
            assert graph.common_neighbor_count(u, v) == \
                plain.common_neighbor_count(u, v)
        index, expected = graph.edge_index, plain.edge_index
        assert list(index) == list(expected) and len(index) == len(expected)
        assert [index.id_of(u, v) for u, v in plain.edges()] == \
            list(range(plain.m))
        assert graph.subgraph(range(0, n, 2)) == plain.subgraph(range(0, n, 2))
        assert graph.edge_subgraph([0, 3, 5]) == plain.edge_subgraph([0, 3, 5])
        assert graph == plain and plain == graph
        assert repr(graph) == f"<Graph 'g' n={n} m={plain.m}>"
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            graph.missing  # noqa: B018

    def test_renamed_graph_renames_its_csr(self, loaded):
        graph, _ = loaded
        graph.name = "renamed"
        assert as_csr(graph).name == "renamed"


class TestDiskBuilderSharesParser:
    @pytest.mark.parametrize("chunk_edges", [1, 2, 7, None])
    def test_corpus(self, corpus_file, tmp_path, chunk_edges):
        _, error = reference(corpus_file)
        if error is not None:
            with pytest.raises(GraphFormatError) as raised:
                build_diskcsr(corpus_file, chunk_edges=chunk_edges)
            assert str(raised.value) == error
            return
        expected = as_csr(load_edge_list(corpus_file))
        with build_diskcsr(corpus_file, tmp_path / "g.diskcsr",
                           chunk_edges=chunk_edges) as disk:
            assert (disk.n, disk.m, disk.name) == (
                expected.n, expected.m, expected.name)
            directory = Path(disk.directory)
            for key in ARRAYS:
                assert np.load(directory / f"{key}.npy").tolist() == \
                    list(getattr(expected, key)), key

    @pytest.mark.parametrize("chunk_edges", [1, 50, None])
    def test_generated_graph(self, tmp_path, chunk_edges):
        g = generators.powerlaw_cluster(250, 4, 0.3, seed=6)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        expected = as_csr(load_edge_list(path))
        with build_diskcsr(path, chunk_edges=chunk_edges) as disk:
            directory = Path(disk.directory)
            for key in ARRAYS:
                assert np.load(directory / f"{key}.npy").tolist() == \
                    list(getattr(expected, key)), key
