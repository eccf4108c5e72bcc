"""Cell views: present a graph as the set of its r-cliques ("cells") with
their s-clique containments ("cofaces").

Every algorithm in the paper — peeling (Alg. 1), naive traversal (Alg. 2),
DF-traversal (Alg. 5/6), traversal-free FND (Alg. 8) and the Hypo baseline —
only ever touches the graph through three questions:

1. how many cells are there, and what are their initial s-clique degrees ω_s?
2. given a cell, which s-cliques contain it, and which *other* cells sit in
   each of those s-cliques?
3. which vertices does a cell consist of (for reporting)?

A :class:`CellView` answers those.  Fast paths are provided for the paper's
evaluated cases — (1,2) k-core, (2,3) k-truss community, (3,4) nucleus — and
:class:`GenericCliqueView` covers any ``r < s`` (e.g. (1,3) or (2,4), the
right half of the paper's Figure 1).

Cofaces are *recomputed* on demand from common-neighbour intersections
instead of materialised, exactly like the reference implementation: peeling
and traversal each visit every (cell, coface) pair a constant number of
times, so storing them buys nothing and costs Θ(s·|K_s|) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.cliques import (
    cliques,
    edge_triangle_counts,
    triangle_k4_counts,
)
from repro.graph.csr import (
    CSRGraph,
    csr_edge_support,
    csr_k4_arrays,
    lex_triangle_vertices,
    triangle_tuples,
)

__all__ = [
    "CellView",
    "VertexView",
    "EdgeView",
    "TriangleView",
    "CSREdgeView",
    "CSRTriangleView",
    "GenericCliqueView",
    "build_view",
]


class CellView:
    """Interface shared by all (r, s) views.  See the module docstring."""

    r: int
    s: int
    graph: Graph | CSRGraph

    @property
    def num_cells(self) -> int:
        """Number of r-cliques (cells)."""
        raise NotImplementedError

    def initial_degrees(self) -> list[int]:
        """ω_s of every cell: the number of s-cliques containing it."""
        raise NotImplementedError

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        """For each s-clique containing ``cell``: the other cells inside it.

        Yields one tuple of ``C(s, r) - 1`` cell ids per coface.
        """
        raise NotImplementedError

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        """The vertices making up ``cell`` (sorted)."""
        raise NotImplementedError

    def vertices_of_cells(self, cells_iter) -> set[int]:
        """Union of the vertex sets of the given cells."""
        out: set[int] = set()
        for c in cells_iter:
            out.update(self.cell_vertices(c))
        return out

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} ({self.r},{self.s}) cells={self.num_cells} "
                f"graph={self.graph!r}>")


class VertexView(CellView):
    """(1,2): cells are vertices, cofaces are edges — the k-core view.

    Works unchanged on both backends: it only needs ``degrees`` and
    ``neighbors``, which :class:`~repro.graph.csr.CSRGraph` also provides.
    """

    r, s = 1, 2

    def __init__(self, graph: Graph | CSRGraph):
        self.graph = graph

    @property
    def num_cells(self) -> int:
        return self.graph.n

    def initial_degrees(self) -> list[int]:
        return self.graph.degrees()

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        for v in self.graph.neighbors(cell):
            yield (v,)

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return (cell,)


class EdgeView(CellView):
    """(2,3): cells are edges, cofaces are triangles — the k-truss view."""

    r, s = 2, 3

    def __init__(self, graph: Graph):
        self.graph = graph
        self._index = graph.edge_index

    @property
    def num_cells(self) -> int:
        return len(self._index)

    def initial_degrees(self) -> list[int]:
        return edge_triangle_counts(self.graph)

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        u, v = self._index.endpoints(cell)
        id_of = self._index.id_of
        for w in self.graph.common_neighbors(u, v):
            yield (id_of(u, w), id_of(v, w))

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return self._index.endpoints(cell)


class TriangleView(CellView):
    """(3,4): cells are triangles, cofaces are four-cliques.

    Triangle ids are the lexicographic rank of the sorted vertex triple —
    deterministic and representation-independent, so λ arrays line up
    element-for-element with :class:`CSRTriangleView` (whose enumeration
    yields lex order natively).
    """

    r, s = 3, 4

    def __init__(self, graph: Graph):
        self.graph = graph
        enum_id, enum_degrees = triangle_k4_counts(graph)
        self._vertices: list[tuple[int, int, int]] = sorted(enum_id)
        self._id_of = {tri: tid for tid, tri in enumerate(self._vertices)}
        self._degrees = [enum_degrees[enum_id[tri]] for tri in self._vertices]

    @property
    def num_cells(self) -> int:
        return len(self._vertices)

    def initial_degrees(self) -> list[int]:
        return list(self._degrees)

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        a, b, c = self._vertices[cell]
        graph = self.graph
        id_of = self._id_of
        # common neighbours of all three vertices complete the four-clique
        small = min((a, b, c), key=graph.degree)
        others = [v for v in (a, b, c) if v != small]
        set1 = graph.neighbor_set(others[0])
        set2 = graph.neighbor_set(others[1])
        for x in graph.neighbors(small):
            if x in set1 and x in set2:
                yield (
                    id_of[_sorted3(a, b, x)],
                    id_of[_sorted3(a, c, x)],
                    id_of[_sorted3(b, c, x)],
                )

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return self._vertices[cell]


class CSREdgeView(CellView):
    """(2,3) over :class:`CSRGraph`: cofaces via merge scans, ids via the
    aligned ``eids`` array — no per-triangle hash lookups."""

    r, s = 2, 3

    def __init__(self, graph: CSRGraph):
        self.graph = graph

    @property
    def num_cells(self) -> int:
        return self.graph.m

    def initial_degrees(self) -> list[int]:
        return csr_edge_support(self.graph)

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        graph = self.graph
        indptr, indices, eids = graph.hot_arrays()
        u, v = graph.endpoints(cell)
        a_lo, a_hi = indptr[u], indptr[u + 1]
        b_lo, b_hi = indptr[v], indptr[v + 1]
        if a_hi - a_lo > b_hi - b_lo:
            a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
        for p in range(a_lo, a_hi):
            w = indices[p]
            q = bisect_left(indices, w, b_lo, b_hi)
            if q >= b_hi:
                break
            if indices[q] != w:
                b_lo = q
                continue
            b_lo = q + 1
            yield (eids[p], eids[q])

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return self.graph.endpoints(cell)


class CSRTriangleView(CellView):
    """(3,4) over :class:`CSRGraph`: enumeration by merge intersection.

    Triangle ids are the lexicographic rank of the sorted vertex triple
    (the enumeration yields them in that order already), matching
    :class:`TriangleView` element-for-element.  The triangles are held as
    one ``(t, 3)`` int64 array and the ω₄ degrees as one int64 array; the
    accessors convert to Python ints when they read them.

    ``_enumeration`` lets a caller that already materialised the triangles
    and ω₄ degrees (the direct CSR peels, the disk engine) hand them in
    instead of re-enumerating every clique.  The triple→id map is only
    built if a coface query actually needs it.
    """

    r, s = 3, 4

    def __init__(self, graph: CSRGraph,
                 _enumeration: tuple[Sequence, Sequence[int]] | None = None):
        self.graph = graph
        if _enumeration is None:
            keys, quads = csr_k4_arrays(graph)
            triangles = lex_triangle_vertices(graph, keys)
            degrees = np.bincount(np.concatenate(quads), minlength=len(keys))
        else:
            triangles, degrees = _enumeration
        self._vertices = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        # a copy: the CSR peels settle the degrees they hand in into λ
        self._degrees = np.array(degrees, dtype=np.int64)
        self._id_of: dict[tuple[int, int, int], int] | None = None

    def _ids(self) -> dict[tuple[int, int, int], int]:
        if self._id_of is None:
            self._id_of = {tri: tid for tid, tri in
                           enumerate(triangle_tuples(self._vertices))}
        return self._id_of

    @property
    def num_cells(self) -> int:
        return len(self._vertices)

    def initial_degrees(self) -> list[int]:
        return self._degrees.tolist()

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        a, b, c = self._vertices[cell].tolist()
        graph = self.graph
        id_of = self._ids()
        indptr, indices, _ = graph.hot_arrays()
        # scan the smallest adjacency run, bisect the other two
        runs = sorted(((indptr[v], indptr[v + 1]) for v in (a, b, c)),
                      key=lambda run: run[1] - run[0])
        (s_lo, s_hi), (p_lo, p_hi), (q_lo, q_hi) = runs
        for slot in range(s_lo, s_hi):
            x = indices[slot]
            p = bisect_left(indices, x, p_lo, p_hi)
            if p >= p_hi or indices[p] != x:
                continue
            q = bisect_left(indices, x, q_lo, q_hi)
            if q >= q_hi or indices[q] != x:
                continue
            yield (
                id_of[_sorted3(a, b, x)],
                id_of[_sorted3(a, c, x)],
                id_of[_sorted3(b, c, x)],
            )

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return tuple(self._vertices[cell].tolist())

    def vertices_of_cells(self, cells_iter) -> set[int]:
        rows = np.fromiter(cells_iter, dtype=np.int64)
        return set(self._vertices[rows].ravel().tolist())


def _sorted3(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Sort three ints without the generic-sort overhead."""
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return a, b, c


class GenericCliqueView(CellView):
    """Any (r, s) with r < s, via explicit r-clique enumeration.

    Slower than the fast paths (cells live in a dict), but exercises the same
    algorithms for arbitrary nucleus decompositions such as (1,3) and (2,4).
    """

    def __init__(self, graph: Graph | CSRGraph, r: int, s: int):
        if not 1 <= r < s:
            raise InvalidParameterError(f"need 1 <= r < s, got r={r} s={s}")
        self.graph = graph
        self.r = r
        self.s = s
        self._cells: list[tuple[int, ...]] = sorted(cliques(graph, r))
        self._id_of: dict[tuple[int, ...], int] = {c: i for i, c in enumerate(self._cells)}

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def initial_degrees(self) -> list[int]:
        degrees = [0] * len(self._cells)
        id_of = self._id_of
        for s_clique in cliques(self.graph, self.s):
            for sub in combinations(s_clique, self.r):
                degrees[id_of[sub]] += 1
        return degrees

    def _common_neighborhood(self, vertices: Sequence[int]) -> list[int]:
        graph = self.graph
        smallest = min(vertices, key=graph.degree)
        others = [graph.neighbor_set(v) for v in vertices if v != smallest]
        return [x for x in graph.neighbors(smallest) if all(x in s for s in others)]

    def _extension_cliques(self, candidates: list[int], size: int) -> Iterator[tuple[int, ...]]:
        """(s-r)-cliques within ``candidates`` (which are mutually candidate)."""
        graph = self.graph
        if size == 1:
            for x in candidates:
                yield (x,)
            return

        def extend(partial: list[int], pool: list[int]) -> Iterator[tuple[int, ...]]:
            if len(partial) == size:
                yield tuple(partial)
                return
            for i, x in enumerate(pool):
                adj = graph.neighbor_set(x)
                yield from extend(partial + [x], [y for y in pool[i + 1:] if y in adj])

        yield from extend([], candidates)

    def cofaces(self, cell: int) -> Iterator[tuple[int, ...]]:
        base = self._cells[cell]
        id_of = self._id_of
        r = self.r
        for extension in self._extension_cliques(
                self._common_neighborhood(base), self.s - self.r):
            full = tuple(sorted(base + extension))
            yield tuple(id_of[sub] for sub in combinations(full, r) if sub != base)

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        return self._cells[cell]


def build_view(graph: Graph | CSRGraph, r: int, s: int) -> CellView:
    """Return the fastest view implementing the requested (r, s).

    Dispatches on the graph representation: a :class:`CSRGraph` gets the
    merge-intersection views, an object :class:`Graph` the set-probing ones.
    ``GenericCliqueView`` handles any other (r, s) on either backend (it
    only uses the shared read API).
    """
    if not 1 <= r < s:
        raise InvalidParameterError(f"need 1 <= r < s, got r={r} s={s}")
    # anything exposing the flat-array contract (CSRGraph, DiskCSRGraph)
    # gets the merge-intersection views
    csr = isinstance(graph, CSRGraph) or hasattr(graph, "hot_arrays")
    if (r, s) == (1, 2):
        return VertexView(graph)
    if (r, s) == (2, 3):
        return CSREdgeView(graph) if csr else EdgeView(graph)
    if (r, s) == (3, 4):
        return CSRTriangleView(graph) if csr else TriangleView(graph)
    return GenericCliqueView(graph, r, s)
