"""Bounded transient memory: the build's edge-sized passes run in chunks.

The CSR build's scatter (``csr._BUILD_CHUNK`` edges), the level-edge
kernels of the construction (``kernels._LEVEL_CHUNK_SLOTS`` slots) and
the statistics' edge pass (``flatindex._STATS_CHUNK`` edges) cut their
work into parts.  Two contracts:

* **Chunk-boundary parity.**  With every budget at 1, each chunk one
  edge or one slot, the CSR arrays, λ, the skeleton and every saved
  index array equal the default build's, at (1,2), (2,3) and (3,4).
* **A peak bound.**  On a (1,2) input whose one λ level and edge pass
  take several chunks, the traced peak of ``decompose`` plus
  ``precompute_stats`` (the CSR arrays are built before tracing starts)
  stays under a fixed multiple of the chunk budget: it does not grow
  with m.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.flatindex as flatindex_module
import repro.graph.csr as csr_module
import repro.parallel.kernels as kernels_module
from repro.backends import core_peel, decompose
from repro.flatindex import FlatHierarchyIndex
from repro.graph.csr import CSRGraph

from _graphs import GENERATOR_SUITE

RS_PAIRS = ((1, 2), (2, 3), (3, 4))
ARRAYS = ("indptr", "indices", "eids", "esrc", "etgt")


def _set_budgets(monkeypatch, size: int) -> None:
    monkeypatch.setattr(csr_module, "_BUILD_CHUNK", size)
    monkeypatch.setattr(kernels_module, "_LEVEL_CHUNK_SLOTS", size)
    monkeypatch.setattr(flatindex_module, "_STATS_CHUNK", size)


def _build(graph, r: int, s: int, path) -> dict:
    """Everything the chunked passes produce, from a fresh CSR build."""
    csr = CSRGraph(graph.n, graph.edges())
    result = decompose(csr, r, s, algorithm="fnd", backend="csr")
    hierarchy = result.hierarchy
    FlatHierarchyIndex(result).save(path, stats=True)
    with np.load(path) as saved:
        index = {key: (saved[key].dtype.str, saved[key].tobytes())
                 for key in saved.files}
    return {
        "csr": {key: getattr(csr, key).tolist() for key in ARRAYS},
        "lam": list(result.lam),
        "skeleton": (list(hierarchy.comp), list(hierarchy.parent),
                     list(hierarchy.node_lambda)),
        "index": index,
    }


class TestChunkBoundaryParity:
    @pytest.mark.parametrize("rs", RS_PAIRS, ids=["12", "23", "34"])
    @pytest.mark.parametrize("graph", GENERATOR_SUITE,
                             ids=[g.name for g in GENERATOR_SUITE])
    def test_budget_of_one_builds_the_same_bytes(self, graph, rs,
                                                 monkeypatch, tmp_path):
        default = _build(graph, *rs, tmp_path / "default.npz")
        _set_budgets(monkeypatch, 1)
        chunked = _build(graph, *rs, tmp_path / "chunked.npz")
        assert chunked["csr"] == default["csr"]
        assert chunked["lam"] == default["lam"]
        assert chunked["skeleton"] == default["skeleton"]
        assert chunked["index"].keys() == default["index"].keys()
        for key, value in default["index"].items():
            assert chunked["index"][key] == value, key

    def test_runs_longer_than_a_chunk_are_cut(self, monkeypatch):
        """A 3-slot budget cuts the hub's 8-slot run of a K₅ with four
        pendant leaves across chunks; the pairs are the one-chunk pairs,
        in order."""
        csr = CSRGraph(9, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                       + [(0, leaf) for leaf in range(5, 9)])
        lam = np.asarray(core_peel(csr, backend="csr").lam, dtype=np.int64)
        frontier = np.flatnonzero(lam == 4)
        slots = int(np.diff(csr.indptr)[frontier].sum())
        whole = list(kernels_module.core_level_edges(
            csr.indptr, csr.indices, lam, frontier, 4))
        monkeypatch.setattr(kernels_module, "_LEVEL_CHUNK_SLOTS", 3)
        parts = list(kernels_module.core_level_edges(
            csr.indptr, csr.indices, lam, frontier, 4))
        assert frontier.tolist() == [0, 1, 2, 3, 4] and slots == 24
        assert len(whole) == 1 and len(parts) == 8
        for column in range(2):
            got = np.concatenate([part[column] for part in parts])
            assert got.tolist() == whole[0][column].tolist()


def _path_powers(copies: int, length: int, k: int) -> CSRGraph:
    """``copies`` disjoint k-th powers of a path on ``length`` vertices:
    every vertex has λ = ``k``, so one level holds every slot, while the
    peel rounds take only the two ends of each copy at a time."""
    base = np.arange(copies, dtype=np.int64) * length
    u, v = [], []
    for step in range(1, k + 1):
        first = np.arange(length - step, dtype=np.int64)
        u.append((base[:, None] + first).ravel())
        v.append((base[:, None] + first + step).ravel())
    return CSRGraph.from_arrays(copies * length, np.concatenate(u),
                                np.concatenate(v))


class TestPeakBound:
    #: the traced peak may be this many chunk budgets of int64 slots; it
    #: holds the chunks' working arrays and the O(n) arrays of a graph
    #: with 20,000 vertices
    MULTIPLE = 16

    def test_decompose_and_stats_peak_is_a_multiple_of_the_budget(self):
        csr = _path_powers(copies=200, length=100, k=10)
        budget = 8 * max(kernels_module._LEVEL_CHUNK_SLOTS,
                         flatindex_module._STATS_CHUNK)
        # several chunks: the λ = 10 level holds all 2m slots, and the
        # stats pass takes all m edges
        assert 2 * csr.m > 4 * kernels_module._LEVEL_CHUNK_SLOTS
        assert csr.m > 2 * flatindex_module._STATS_CHUNK
        tracemalloc.start()
        try:
            result = decompose(csr, 1, 2, algorithm="fnd", backend="csr")
            FlatHierarchyIndex(result).precompute_stats()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.max_lambda == 10
        assert peak < self.MULTIPLE * budget, (
            f"traced peak {peak / 2**20:.1f} MiB, bound "
            f"{self.MULTIPLE * budget / 2**20:.1f} MiB "
            f"(CSR arrays {8 * (csr.n + 1 + 6 * csr.m) / 2**20:.1f} MiB)")
