"""Disk-backed CSR engine: builder parity, IO metering, backend dispatch.

The contract under test: ``build_diskcsr`` lays out byte-identical
``indptr``/``indices``/``eids`` arrays to the in-memory :class:`CSRGraph`
(so every flat-array kernel runs unchanged over the memmap'd files), and
``backend="disk"`` produces λ element-for-element and the condensed
hierarchy canonically identical to ``backend="csr"`` for all three
evaluated (r, s) pairs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    as_backend,
    as_csr,
    as_disk,
    build_query_index,
    core_peel,
    decompose,
    nucleus34_peel,
    resolve_backend,
    truss_peel,
)
from repro.errors import (
    GraphFormatError,
    InvalidGraphError,
    InvalidParameterError,
)
from repro.external.build import build_diskcsr
from repro.external.diskcsr import BlockedArray, DiskCSRGraph, as_diskcsr
from repro.graph import generators
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph


def graph_pair(n=150, m=5, p=0.5, seed=9):
    g = generators.powerlaw_cluster(n, m, p, seed=seed)
    return g, CSRGraph.from_graph(g)


def disk_arrays(disk: DiskCSRGraph):
    directory = Path(disk.directory)
    return {name: np.load(directory / f"{name}.npy")
            for name in ("indptr", "indices", "eids", "esrc", "etgt")}


class TestBuilderParity:
    @pytest.mark.parametrize("chunk_edges", [1, 7, None, 10**6])
    def test_arrays_byte_identical(self, tmp_path, chunk_edges):
        g, csr = graph_pair()
        with build_diskcsr(g.edges(), tmp_path / "g.diskcsr", n=g.n,
                           chunk_edges=chunk_edges) as disk:
            arrays = disk_arrays(disk)
            assert arrays["indptr"].tolist() == list(csr.indptr)
            assert arrays["indices"].tolist() == list(csr.indices)
            assert arrays["eids"].tolist() == list(csr.eids)
            assert arrays["esrc"].tolist() == [u for u, _ in csr.edges()]
            assert arrays["etgt"].tolist() == [v for _, v in csr.edges()]

    def test_duplicate_and_reversed_edges_dedup(self, tmp_path):
        edges = [(1, 0), (0, 1), (2, 1), (1, 2), (0, 2), (0, 2)]
        with build_diskcsr(edges, tmp_path / "t.diskcsr", n=3) as disk:
            assert disk.m == 3
            assert list(disk.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_file_matches_loader(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n% other comment\n"
                        "0 1\n1 0\n5 5\n2 0\n1 2\n")
        from repro.graph.io import load_graph

        expected = as_csr(load_graph(path))
        with build_diskcsr(path) as disk:
            assert disk.name == "graph"
            assert disk.n == expected.n and disk.m == expected.m
            assert list(disk.edges()) == list(expected.edges())

    def test_empty_graph(self, tmp_path):
        with build_diskcsr([], tmp_path / "e.diskcsr", n=0) as disk:
            assert disk.n == 0 and disk.m == 0
            assert list(disk.edges()) == []
        with build_diskcsr([], tmp_path / "i.diskcsr", n=5) as disk:
            assert disk.n == 5 and disk.m == 0
            assert disk.degrees() == [0] * 5

    def test_invalid_edges_rejected(self, tmp_path):
        with pytest.raises(InvalidGraphError):
            build_diskcsr([(0, 0)], tmp_path / "l.diskcsr", n=2)
        with pytest.raises(InvalidGraphError):
            build_diskcsr([(0, 5)], tmp_path / "r.diskcsr", n=2)
        with pytest.raises(InvalidGraphError):
            build_diskcsr([(-1, 0)], tmp_path / "n.diskcsr", n=2)

    def test_failed_build_leaves_no_half_written_graph(self, tmp_path):
        target = tmp_path / "bad.diskcsr"
        with pytest.raises(InvalidGraphError):
            build_diskcsr([(0, 1), (0, 0)], target, n=2)
        assert not (target / "meta.json").exists()
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)

    def test_persistent_directory_survives_close(self, tmp_path):
        g, csr = graph_pair(60, 4, 0.3, seed=2)
        target = tmp_path / "kept.diskcsr"
        build_diskcsr(g.edges(), target, n=g.n, name="kept").close()
        with DiskCSRGraph(target) as disk:
            assert disk.name == "kept"
            assert list(disk.edges()) == list(csr.edges())

    def test_owned_tmp_directory_removed_on_close(self):
        g, _ = graph_pair(30, 3, 0.2, seed=4)
        disk = as_diskcsr(g)
        directory = Path(disk.directory)
        assert directory.exists()
        disk.close()
        assert not directory.exists()


class TestRebuild:
    """Rebuilding a directory swaps in the new build only once it is
    complete, by rename, and touches no file it did not write."""

    def test_failed_rebuild_keeps_the_old_build(self, tmp_path):
        g, csr = graph_pair(60, 4, 0.3, seed=2)
        target = tmp_path / "g.diskcsr"
        build_diskcsr(g.edges(), target, n=g.n, name="old").close()
        (target / "notes.txt").write_text("kept")
        with pytest.raises(InvalidGraphError):
            build_diskcsr([(0, 1), (2, 2)], target, n=3)
        with DiskCSRGraph(target) as disk:
            assert disk.name == "old"
            assert list(disk.edges()) == list(csr.edges())
        assert (target / "notes.txt").read_text() == "kept"
        # the staging directory beside the target is gone too
        assert [path.name for path in tmp_path.iterdir()] == ["g.diskcsr"]

    def test_rebuild_replaces_the_arrays(self, tmp_path):
        old, _ = graph_pair(60, 4, 0.3, seed=2)
        new, new_csr = graph_pair(25, 2, 0.1, seed=3)
        target = tmp_path / "g.diskcsr"
        build_diskcsr(old.edges(), target, n=old.n).close()
        (target / "notes.txt").write_text("kept")
        build_diskcsr(new.edges(), target, n=new.n, name="new").close()
        with DiskCSRGraph(target) as disk:
            assert (disk.n, disk.name) == (new.n, "new")
            assert list(disk.edges()) == list(new_csr.edges())
        assert sorted(path.name for path in target.iterdir()) == [
            "eids.npy", "esrc.npy", "etgt.npy", "indices.npy",
            "indptr.npy", "meta.json", "notes.txt"]


def test_open_reader_keeps_its_build_across_a_rebuild(tmp_path):
    """A graph opened before a rebuild reads its own arrays after it —
    cached windows, windows first mapped after the rebuild, and the
    whole-file endpoint maps alike.  In a subprocess: rewriting the old
    files in place would kill the reader with SIGBUS."""
    target = tmp_path / "g.diskcsr"
    script = (
        "from repro.external.build import build_diskcsr\n"
        "from repro.external.diskcsr import DiskCSRGraph\n"
        "from repro.graph import generators\n"
        "old = generators.powerlaw_cluster(400, 5, 0.5, seed=1)\n"
        "new = generators.powerlaw_cluster(20, 2, 0.1, seed=2)\n"
        f"target = {str(target)!r}\n"
        "build_diskcsr(old.edges(), target, n=old.n).close()\n"
        "want = [sorted(old.neighbors(v)) for v in range(old.n)]\n"
        "edges = list(old.edges())\n"
        "with DiskCSRGraph(target, block_ints=256, cache_blocks=4) as disk:\n"
        "    assert [disk.neighbors(v) for v in range(disk.n)] == want\n"
        "    build_diskcsr(new.edges(), target, n=new.n).close()\n"
        "    for v in reversed(range(disk.n)):\n"
        "        assert disk.neighbors(v) == want[v], v\n"
        "    got = list(zip(disk.esrc.tolist(), disk.etgt.tolist()))\n"
        "    assert got == edges\n"
        "with DiskCSRGraph(target) as fresh:\n"
        "    assert list(fresh.edges()) == list(new.edges())\n"
        "print('ok')\n")
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


class TestFormatValidation:
    def build(self, tmp_path):
        g, _ = graph_pair(40, 3, 0.3, seed=5)
        target = tmp_path / "v.diskcsr"
        build_diskcsr(g.edges(), target, n=g.n).close()
        return target

    def test_truncated_payload(self, tmp_path):
        target = self.build(tmp_path)
        payload = (target / "indices.npy").read_bytes()
        (target / "indices.npy").write_bytes(payload[:-8])
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)

    def test_corrupt_magic(self, tmp_path):
        target = self.build(tmp_path)
        (target / "eids.npy").write_bytes(b"not a npy file at all")
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)

    def test_wrong_dtype(self, tmp_path):
        target = self.build(tmp_path)
        stale = np.load(target / "esrc.npy")
        np.save(target / "esrc.npy", stale.astype(np.float64))
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)

    def test_missing_meta(self, tmp_path):
        target = self.build(tmp_path)
        (target / "meta.json").unlink()
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)

    def test_missing_array_file(self, tmp_path):
        target = self.build(tmp_path)
        (target / "etgt.npy").unlink()
        with pytest.raises(GraphFormatError):
            DiskCSRGraph(target)


class TestBlockedArray:
    def test_scalar_reads_metered(self, tmp_path):
        g, _ = graph_pair(50, 4, 0.3, seed=6)
        with as_diskcsr(g, chunk_edges=32) as disk:
            _, indices, _ = disk.hot_arrays()
            assert isinstance(indices, BlockedArray)
            before = disk.io.ints_read
            value = indices[0]
            assert isinstance(value, int)
            assert disk.io.ints_read == before + 1

    def test_fetch_counts_one_read(self, tmp_path):
        g, csr = graph_pair(50, 4, 0.3, seed=6)
        with as_diskcsr(g) as disk:
            _, indices, _ = disk.hot_arrays()
            before_reads = disk.io.reads
            assert indices.fetch(0, 10) == list(csr.indices[:10])
            assert disk.io.reads == before_reads + 1

    def test_small_blocks_still_correct(self, tmp_path):
        g, csr = graph_pair(50, 4, 0.3, seed=6)
        target = tmp_path / "b.diskcsr"
        build_diskcsr(g.edges(), target, n=g.n).close()
        with DiskCSRGraph(target, block_ints=4, cache_blocks=2) as disk:
            _, indices, _ = disk.hot_arrays()
            assert [indices[i] for i in range(len(indices))] == \
                list(csr.indices)

    def test_out_of_bounds(self, tmp_path):
        g, _ = graph_pair(30, 3, 0.2, seed=7)
        with as_diskcsr(g) as disk:
            _, indices, _ = disk.hot_arrays()
            with pytest.raises(IndexError):
                indices[len(indices)]


class TestBackendDispatch:
    def test_resolve_and_convert(self):
        g, csr = graph_pair(60, 4, 0.4, seed=8)
        with as_disk(csr) as disk:
            assert resolve_backend(disk, None) == "disk"
            with as_backend(csr, "disk") as other:
                assert other is not csr
            assert as_disk(disk) is disk
            converted = as_csr(disk)
            for key in ("indptr", "indices", "eids", "esrc", "etgt"):
                assert np.array_equal(getattr(converted, key),
                                      getattr(csr, key))
            assert as_backend(disk, "object").n == g.n

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_fnd_parity_all_representations(self, rs):
        r, s = rs
        g, csr = graph_pair(130, 5, 0.5, seed=10)
        ref = decompose(csr, r, s, algorithm="fnd", backend="csr")
        with as_disk(csr) as disk:
            for source in (g, csr, disk):
                got = decompose(source, r, s, algorithm="fnd",
                                backend="disk")
                assert got.lam == ref.lam
                assert got.hierarchy.canonical_nuclei() == \
                    ref.hierarchy.canonical_nuclei()
                assert got.graph is source

    @pytest.mark.parametrize("algorithm", ["naive", "dft", "lcps", "hypo"])
    def test_traversal_algorithms_12(self, algorithm):
        g, csr = graph_pair(90, 4, 0.4, seed=12)
        got = decompose(g, 1, 2, algorithm=algorithm, backend="disk")
        ref = decompose(csr, 1, 2, algorithm=algorithm, backend="csr")
        assert got.lam == ref.lam
        if ref.hierarchy is None:
            assert got.hierarchy is None
        else:
            assert got.hierarchy.canonical_nuclei() == \
                ref.hierarchy.canonical_nuclei()

    def test_traversal_algorithms_reject_other_rs(self):
        g, _ = graph_pair(40, 3, 0.3, seed=13)
        with pytest.raises(InvalidParameterError):
            decompose(g, 2, 3, algorithm="dft", backend="disk")

    def test_peels_match_csr(self):
        g, csr = graph_pair(110, 5, 0.4, seed=14)
        with as_disk(csr) as disk:
            assert core_peel(disk).lam == core_peel(csr).lam
            assert truss_peel(disk).lam == truss_peel(csr).lam
            assert nucleus34_peel(disk).lam == nucleus34_peel(csr).lam
        # conversion path: object graph in, disk engine underneath
        assert truss_peel(g, backend="disk").lam == truss_peel(csr).lam

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_tiny_windows_match_csr(self, tmp_path, rs):
        """Four-int windows, two cached: every row fetch and merge scan
        crosses window boundaries and evicts."""
        r, s = rs
        g, csr = graph_pair(90, 5, 0.5, seed=18)
        target = tmp_path / "w.diskcsr"
        build_diskcsr(g.edges(), target, n=g.n).close()
        ref = decompose(csr, r, s, algorithm="fnd", backend="csr")
        plain_peel = {(1, 2): core_peel, (2, 3): truss_peel,
                      (3, 4): nucleus34_peel}[rs]
        with DiskCSRGraph(target, block_ints=4, cache_blocks=2) as disk:
            got = decompose(disk, r, s, algorithm="fnd", backend="disk")
            assert got.lam == ref.lam
            assert got.hierarchy.canonical_nuclei() == \
                ref.hierarchy.canonical_nuclei()
            assert plain_peel(disk).lam == ref.lam

    def test_view_survives_scratch_cleanup(self):
        """Converted runs re-point the view at the caller's graph — it must
        stay queryable after the temporary .diskcsr directory is gone."""
        g, csr = graph_pair(70, 4, 0.4, seed=15)
        for r, s in [(1, 2), (2, 3), (3, 4)]:
            got = decompose(g, r, s, algorithm="fnd", backend="disk")
            ref = decompose(csr, r, s, algorithm="fnd", backend="csr")
            assert got.view.num_cells == ref.view.num_cells
            assert list(got.view.initial_degrees()) == \
                list(ref.view.initial_degrees())

    def test_query_index_parity(self):
        g, csr = graph_pair(80, 4, 0.4, seed=16)
        for r, s in [(1, 2), (2, 3), (3, 4)]:
            idx = build_query_index(g, r, s, backend="disk")
            ref = build_query_index(csr, r, s, backend="csr")
            assert idx.num_cells == ref.num_cells
            assert idx.num_nodes == ref.num_nodes
            for v in range(0, g.n, 11):
                assert sorted(map(tuple, (c.tolist() for c in
                                          idx.communities_of_vertex_batch([v], 1)[0]))) == \
                    sorted(map(tuple, (c.tolist() for c in
                                       ref.communities_of_vertex_batch([v], 1)[0])))


class TestGraphInterface:
    def test_neighbors_and_degrees(self):
        g, csr = graph_pair(60, 4, 0.4, seed=17)
        with as_disk(csr) as disk:
            assert disk.n == csr.n and disk.m == csr.m
            assert disk.degrees() == csr.degrees()
            for v in range(0, g.n, 5):
                assert disk.neighbors(v) == list(csr.neighbors(v))
                assert disk.neighbor_set(v) == set(csr.neighbors(v))
            with pytest.raises(InvalidGraphError):
                disk.neighbors(disk.n)

    def test_edges_and_endpoints(self):
        g, csr = graph_pair(50, 4, 0.3, seed=18)
        with as_disk(csr) as disk:
            edges = list(disk.edges())
            assert edges == list(csr.edges())
            for eid in range(0, disk.m, 7):
                assert disk.endpoints(eid) == edges[eid]
                u, v = edges[eid]
                assert disk.has_edge(u, v) and disk.has_edge(v, u)
                assert disk.edge_id(u, v) == eid

    def test_subgraphs_round_trip(self):
        g, csr = graph_pair(50, 4, 0.3, seed=19)
        with as_disk(csr) as disk:
            keep = list(range(0, 30))
            assert sorted(disk.subgraph(keep).edges()) == \
                sorted(csr.subgraph(keep).edges())
            some = list(range(0, disk.m, 3))
            assert sorted(disk.edge_subgraph(some).edges()) == \
                sorted(csr.edge_subgraph(some).edges())
            assert sorted(disk.to_object().edges()) == sorted(g.edges())


def test_subprocess_build_then_serve(tmp_path):
    """Fresh-process round trip: one process builds the .diskcsr files,
    another opens them cold and decomposes — nothing depends on in-process
    state."""
    g, csr = graph_pair(70, 4, 0.4, seed=20)
    target = tmp_path / "round.diskcsr"
    edges = ";".join(f"{u},{v}" for u, v in g.edges())
    build = (
        "import sys\n"
        "from repro.external.build import build_diskcsr\n"
        f"edges = [tuple(map(int, t.split(','))) for t in sys.argv[1].split(';')]\n"
        f"build_diskcsr(edges, {str(target)!r}, n={g.n}, name='round').close()\n"
    )
    serve = (
        "from repro.backends import decompose\n"
        "from repro.external.diskcsr import DiskCSRGraph\n"
        f"with DiskCSRGraph({str(target)!r}) as disk:\n"
        "    result = decompose(disk, 2, 3, backend='disk')\n"
        "    print(','.join(map(str, result.lam)))\n"
    )
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", build, edges], env=env, check=True)
    out = subprocess.run([sys.executable, "-c", serve], env=env, check=True,
                         capture_output=True, text=True)
    lam = [int(tok) for tok in out.stdout.strip().split(",")]
    assert lam == truss_peel(csr).lam
