"""Flat compressed-sparse-row (CSR) graph: the peeling-engine backend.

:class:`~repro.graph.adjacency.Graph` keeps one Python ``set`` plus one
``list`` per vertex, which is convenient but costs a pointer chase and a
small-object allocation on every step of the peel inner loop.  This module
stores the whole adjacency in flat arrays instead:

* ``indptr[v] .. indptr[v+1]`` delimits the neighbour slots of ``v``;
* ``indices[p]`` is the neighbour in slot ``p`` (sorted ascending);
* ``eids[p]`` is the dense undirected edge id of slot ``p`` — so a merge
  scan over two adjacency runs yields *edge ids* directly, with no hash
  lookups (this is what makes the (2,3) peel fast);
* ``esrc[e] / etgt[e]`` are the endpoints of edge ``e`` (``esrc < etgt``).

Edge ids are assigned in lexicographic endpoint order, exactly matching
:class:`~repro.graph.adjacency.EdgeIndex`, so λ arrays computed on either
backend are comparable element-for-element.

Storage is the five int64 numpy arrays :func:`csr_build_arrays` returns,
marked read-only: the CSR engine (:mod:`repro.parallel`) and the
incidence builders of :mod:`repro.core.csr_peel` read the graph's own
arrays, with no copy.  The scalar accessors return Python ints and
lists, as :class:`Graph`'s do.  The per-element python loops (LCPS, the
cell views, the variant kernels) use :meth:`CSRGraph.hot_arrays`, which
caches plain-``list`` copies — CPython indexes a list of cached
references faster than it can box ints out of an array.

Also here: the clique listing the (2,3)/(3,4) engines build on.  There
is one path, vectorised: degree-oriented wedges close into triangles,
and triangles sharing their lowest edge pair up into four-cliques.  A
triangle ``u < v < w`` is keyed ``eid(u, v)·n + w``, which stays below
``m·n``, so no vertex count forces a slower path.  The listing functions
run their kernels over consecutive ranges; with ``workers > 1`` they map
the ranges over a thread pool (numpy releases the GIL inside the
kernels' sorts, searches and gathers) and concatenate the results in
range order, so every worker count lists the same bytes.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

from repro.errors import InvalidGraphError
from repro.graph.adjacency import Graph, normalize_edge

__all__ = [
    "CSRGraph",
    "available_cpus",
    "csr_build_arrays",
    "csr_edge_support",
    "csr_k4_arrays",
    "csr_k4_triangle_ids",
    "csr_triangle_edge_ids",
    "csr_forward_structure",
    "fill_incidence",
    "k4_pair_kernel",
    "lex_triangle_vertices",
    "lex_triangles",
    "run_bounds",
    "run_heads",
    "sorted_unique",
    "stable_order",
    "triangle_pair_kernel",
    "triangle_tuples",
]


def run_heads(values):
    """Mask of the elements of a 1-d array that differ from their
    predecessor: the first element of every run of equal values."""
    head = np.empty(len(values), dtype=bool)
    head[:1] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return head


def run_bounds(values):
    """Boundaries of the runs of equal values in a 1-d array:
    ``bounds[g] .. bounds[g+1]`` delimits the ``g``-th run, the first
    bound is 0 and the last ``len(values)``."""
    return np.append(np.flatnonzero(run_heads(values)), len(values))


def sorted_unique(keys):
    """``np.unique(keys)`` for integer keys: one sort and a neighbour mask.

    Without flags, numpy 2.x's ``np.unique`` answers from a hash table,
    which on integer keys is many times slower than sorting them (the
    sort runs vectorised); every flagless dedup of integer keys goes
    through here instead.  Returns the sorted distinct keys, flattened,
    in the input dtype.
    """
    keys = np.sort(keys, axis=None)
    return keys[run_heads(keys)]


def stable_order(keys, size: int):
    """The permutation a stable ``np.argsort`` gives for integer keys in
    ``[0, size)``, from one unstable sort.

    numpy's stable sort of int64 keys is a timsort, several times slower
    than its default sort.  Packing each key with its position,
    ``key·len(keys) + position``, makes the keys distinct, so any sort
    orders them by key with ties by position, and the remainder modulo
    ``len(keys)`` reads the positions back.  The packed keys stay below
    ``size·len(keys)``, which must be below ``2**63``.
    """
    count = len(keys)
    if size * count >= 1 << 63:
        raise OverflowError(
            f"{count} keys below {size} do not pack into int64")
    packed = np.asarray(keys, dtype=np.int64) * count
    packed += np.arange(count, dtype=np.int64)
    packed.sort()
    return packed % count


#: edges one chunk of :func:`csr_build_arrays`' scatters lays out
_BUILD_CHUNK = 1 << 16


def csr_build_arrays(n: int, u, v) -> tuple:
    """``(indptr, indices, eids, esrc, etgt)`` as int64 arrays for the
    simple graph on ``n`` vertices with edges ``{u[i], v[i]}``.

    The one CSR builder: every in-memory construction path ends here.
    Endpoints must be in range and self-loop free; duplicates and both
    orientations are fine.  A sort-based dedup of the keys ``lo·n + hi``
    yields the edges in lexicographic order, which is their id order.
    A second sort, of the keys ``etgt·m + id``, orders the edges by
    their larger end.  One stable scatter then lays out the adjacency:
    vertex ``w``'s run holds its smaller neighbours (the edges with
    ``etgt == w``, in id order) followed by its larger ones (the edges
    with ``esrc == w``, contiguous in id order), so every run comes out
    ascending.  Each sort runs in place on one m-sized key array, and the
    scatter runs ``_BUILD_CHUNK`` edges at a time.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    keys.sort()
    keys = keys[run_heads(keys)]
    m = len(keys)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return indptr, empty, empty, empty, empty
    etgt = keys % n
    keys //= n
    esrc = keys
    by_tgt = etgt * m
    by_tgt += np.arange(m, dtype=np.int64)
    by_tgt.sort()
    below = np.bincount(etgt, minlength=n)  # smaller neighbours per vertex
    above = np.bincount(esrc, minlength=n)
    np.cumsum(below + above, out=indptr[1:])
    src_before = np.cumsum(above) - above  # edges with esrc < w
    tgt_upto = np.cumsum(below)  # edges with etgt <= w
    indices = np.empty(2 * m, dtype=np.int64)
    eids = np.empty(2 * m, dtype=np.int64)
    for lo in range(0, m, _BUILD_CHUNK):
        hi = min(lo + _BUILD_CHUNK, m)
        j = np.arange(lo, hi, dtype=np.int64)
        # smaller-neighbour slots: the j-th edge in (etgt, id) order lands
        # at indptr[w] + j - (edges with etgt < w), i.e. (edges with
        # esrc < w) + j
        owner, edge = np.divmod(by_tgt[lo:hi], m)
        slots = src_before[owner] + j
        indices[slots] = esrc[edge]
        eids[slots] = edge
        # larger-neighbour slots: edge e lands at indptr[w] + below[w] +
        # (e - first edge with esrc == w), i.e. (edges with etgt <= w) + e
        slots = tgt_upto[esrc[lo:hi]] + j  # j doubles as the edge id
        indices[slots] = etgt[lo:hi]
        eids[slots] = j
    return indptr, indices, eids, esrc, etgt


def _check_edge(n: int, u, v) -> None:
    """Raise for a self loop, then for an out-of-range endpoint — the
    order and messages of :class:`~repro.graph.adjacency.Graph`."""
    if u == v:
        raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")


def _checked_pairs(n: int, edges: Iterable[tuple[int, int]]):
    """``edges`` as two aligned endpoint arrays, validated edge by edge
    in input order: the first bad edge raises, a non-integer endpoint
    included (it is rejected, never truncated)."""
    edge_list = list(edges)
    if not edge_list:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    try:
        pairs = np.asarray(edge_list)
    except ValueError:  # ragged rows: the loop below unpacks them
        pairs = None
    if (pairs is None or pairs.dtype.kind not in "iu"
            or pairs.shape != (len(edge_list), 2)):
        for u, v in edge_list:
            if not (isinstance(u, Integral) and isinstance(v, Integral)):
                raise TypeError(
                    f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            _check_edge(n, u, v)
        pairs = np.asarray(edge_list, dtype=np.int64)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    if bad.any():
        first = int(bad.argmax())
        _check_edge(n, int(u[first]), int(v[first]))
    return u, v


class CSRGraph:
    """An immutable, undirected, simple graph in CSR layout.

    Mirrors the read API of :class:`~repro.graph.adjacency.Graph` (``n``,
    ``m``, ``degree``, ``neighbors``, ``neighbor_set``, ``has_edge``,
    ``edges``, ``common_neighbors``, ``edge_index``…) so the generic cell
    views and clique enumerators accept either representation; the CSR
    engine (:mod:`repro.parallel`) and the incidence builders of
    :mod:`repro.core.csr_peel` bypass that API and read the read-only
    int64 arrays ``indptr``, ``indices``, ``eids``, ``esrc`` and ``etgt``
    directly.
    """

    __slots__ = ("indptr", "indices", "eids", "esrc", "etgt", "name",
                 "_n", "_hot", "_edge_index")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 name: str = ""):
        if n < 0:
            raise InvalidGraphError(f"vertex count must be non-negative, got {n}")
        self._init(n, name, csr_build_arrays(n, *_checked_pairs(n, edges)))

    def _init(self, n: int, name: str, arrays: tuple) -> None:
        for array in arrays:
            array.flags.writeable = False
        self.indptr, self.indices, self.eids, self.esrc, self.etgt = arrays
        self._n = n
        self.name = name
        self._hot = None
        self._edge_index = None

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None,
                   name: str = "") -> "CSRGraph":
        """Build from an edge iterable, inferring ``n`` when omitted."""
        edge_list = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list, name=name)

    @classmethod
    def from_arrays(cls, n: int, u, v, name: str = "") -> "CSRGraph":
        """Build from aligned endpoint arrays of vertex ids in ``0..n-1``
        (no self loops; duplicates and both orientations are fine) with
        :func:`csr_build_arrays`, no per-edge Python objects."""
        self = cls.__new__(cls)
        self._init(n, name, csr_build_arrays(n, u, v))
        return self

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """The CSR form of an object-backend :class:`Graph`.

        A graph that already holds its CSR (one from
        :func:`~repro.graph.io.load_edge_list` or :meth:`to_object`, or one
        converted before) hands it over without a copy; otherwise the
        sorted adjacency runs go through :func:`csr_build_arrays` and the
        graph keeps the result.
        """
        held = graph._csr
        if held is None:
            n = graph.n
            runs = list(map(graph.neighbors, range(n)))
            nbrs = np.fromiter(chain.from_iterable(runs), dtype=np.int64,
                               count=2 * graph.m)
            owners = np.repeat(np.arange(n, dtype=np.int64),
                               np.fromiter(map(len, runs), dtype=np.int64,
                                           count=n))
            forward = owners < nbrs
            held = cls.from_arrays(n, owners[forward], nbrs[forward])
            graph._csr = held
        held.name = graph.name
        return held

    @classmethod
    def empty(cls, n: int = 0, name: str = "") -> "CSRGraph":
        """A CSR graph with ``n`` vertices and no edges."""
        return cls(n, [], name=name)

    # ------------------------------------------------------------------
    # basic accessors (Graph-compatible)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.esrc)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return np.diff(self.indptr).tolist()

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbours of ``v``."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()

    def neighbor_set(self, v: int) -> set[int]:
        """Neighbour set of ``v`` (built on demand)."""
        return set(self.neighbors(v))

    def _slot(self, u: int, v: int) -> int | None:
        """The adjacency slot of ``v`` in ``u``'s run (binary search), or
        ``None`` if ``{u, v}`` is not an edge."""
        if not 0 <= u < self._n:
            return None
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        p = bisect_left(self.indices, v, lo, hi)
        return p if p < hi and self.indices[p] == v else None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` exists."""
        return self._slot(u, v) is not None

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense id of edge ``{u, v}``, or ``None`` if absent."""
        p = self._slot(u, v)
        return None if p is None else int(self.eids[p])

    def endpoints(self, eid: int) -> tuple[int, int]:
        """The (sorted) endpoints of edge ``eid``."""
        return int(self.esrc[eid]), int(self.etgt[eid])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once each, as sorted pairs, in lexicographic order."""
        return zip(self.esrc.tolist(), self.etgt.tolist(), strict=True)

    def vertices(self) -> range:
        """Iterable of all vertex ids."""
        return range(self._n)

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted common neighbours of ``u`` and ``v`` (merge scan)."""
        indptr, indices, _ = self.hot_arrays()
        out: list[int] = []
        i, i_end = indptr[u], indptr[u + 1]
        j, j_end = indptr[v], indptr[v + 1]
        while i < i_end and j < j_end:
            a = indices[i]
            b = indices[j]
            if a < b:
                i += 1
            elif b < a:
                j += 1
            else:
                out.append(a)
                i += 1
                j += 1
        return out

    def common_neighbor_count(self, u: int, v: int) -> int:
        """Number of common neighbours of ``u`` and ``v``."""
        return len(self.common_neighbors(u, v))

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def hot_arrays(self) -> tuple[list[int], list[int], list[int]]:
        """``(indptr, indices, eids)`` as plain lists, cached.

        Per-element loops index these millions of times; lists hand back
        cached ``int`` references where an array would box a fresh
        object per access.  Costs one extra O(n + m) copy, paid once.
        """
        if self._hot is None:
            self._hot = (self.indptr.tolist(), self.indices.tolist(),
                         self.eids.tolist())
        return self._hot

    @property
    def edge_index(self):
        """Adapter matching :class:`~repro.graph.adjacency.EdgeIndex`."""
        if self._edge_index is None:
            self._edge_index = _CSREdgeIndex(self)
        return self._edge_index

    def to_object(self) -> Graph:
        """The object (set/list) representation, holding this CSR: no copy
        is made, and the set/list adjacency is built on first object-engine
        use."""
        return Graph.from_csr(self)

    def subgraph(self, vertices: Iterable[int], relabel: bool = True) -> Graph:
        """Induced subgraph, as an object :class:`Graph` (reporting path)."""
        return self.to_object().subgraph(vertices, relabel=relabel)

    def edge_subgraph(self, edge_ids: Iterable[int],
                      relabel: bool = False) -> Graph:
        """Subgraph made of the given edge ids, as an object :class:`Graph`
        (edge ids are lexicographic on both representations)."""
        return self.to_object().edge_subgraph(edge_ids, relabel=relabel)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<CSRGraph{label} n={self._n} m={self.m}>"


class _CSREdgeIndex:
    """Duck-typed :class:`EdgeIndex` over the CSR arrays (no dict)."""

    __slots__ = ("_graph",)

    def __init__(self, graph: CSRGraph):
        self._graph = graph

    @property
    def source(self) -> list[int]:
        return self._graph.esrc.tolist()

    @property
    def target(self) -> list[int]:
        return self._graph.etgt.tolist()

    def __len__(self) -> int:
        return self._graph.m

    def id_of(self, u: int, v: int) -> int:
        eid = self._graph.edge_id(u, v)
        if eid is None:
            raise KeyError(normalize_edge(u, v))
        return eid

    def get(self, u: int, v: int) -> int | None:
        return self._graph.edge_id(u, v)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._graph.endpoints(eid)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self._graph.edges()


# ---------------------------------------------------------------------------
# clique listing
# ---------------------------------------------------------------------------
def _suffix_start(indices: list[int], lo: int, hi: int, v: int) -> int:
    """First slot in ``indices[lo:hi]`` holding a neighbour id > ``v``."""
    return bisect_right(indices, v, lo, hi)


# engine internals: ``workers`` is the thread count the csr backend
# resolved, not a second dispatch surface beside repro.backends
def csr_triangle_edge_ids(csr: CSRGraph, workers: int = 1):  # repro-lint: disable=backend-parity
    """All triangles as three aligned numpy edge-id arrays ``(e1, e2, e3)``.

    Fully vectorised: orient every edge toward the (degree, id)-larger
    endpoint, generate all wedge pairs inside each forward run with
    ``repeat``/``cumsum`` index algebra, and close them with one
    ``searchsorted`` against the lexicographic edge-key array.  The
    kernel runs over rank ranges balanced by pair count, on up to
    ``workers`` threads (see :func:`_map_kernel`); the arrays are the
    same for every worker count.
    """
    n, m = csr.n, csr.m
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    fptr, fdst, feid, fkeys = csr_forward_structure(csr)
    counts = np.diff(fptr)

    def kernel(lo, hi):
        return triangle_pair_kernel(fptr, fdst, feid, fkeys, n, lo, hi)

    return _map_kernel(kernel, counts * (counts - 1) // 2, workers, 3)


def csr_edge_support(csr: CSRGraph) -> list[int]:
    """Triangles containing each edge, indexed by edge id (initial ω₃).

    On a :class:`CSRGraph` the count is one ``bincount`` over
    :func:`csr_triangle_edge_ids`.  Other flat layouts (the disk
    backend's windowed arrays) take the scalar loop instead: each
    triangle ``u < v < w`` is found once from its lowest edge ``(u, v)``
    by intersecting the two suffix runs ``> v`` — the shorter run is
    scanned, the longer bisected (runs are sorted, so the search window
    only ever shrinks), and the aligned ``eids`` array turns every match
    into the three edge ids with zero hash lookups.
    """
    if isinstance(csr, CSRGraph):
        e1, e2, e3 = csr_triangle_edge_ids(csr)
        return np.bincount(np.concatenate([e1, e2, e3]),
                           minlength=csr.m).tolist()
    indptr, indices, eids = csr.hot_arrays()
    bisect = bisect_left
    support = [0] * csr.m
    for u in range(csr.n):
        u_end = indptr[u + 1]
        pu = _suffix_start(indices, indptr[u], u_end, u)
        while pu < u_end:
            v = indices[pu]
            e_uv = eids[pu]
            i = pu + 1  # neighbours of u beyond v
            j = _suffix_start(indices, indptr[v], indptr[v + 1], v)
            j_end = indptr[v + 1]
            if u_end - i <= j_end - j:
                scan_lo, scan_hi = i, u_end
                look_lo, look_hi = j, j_end
            else:
                scan_lo, scan_hi = j, j_end
                look_lo, look_hi = i, u_end
            for p in range(scan_lo, scan_hi):
                w = indices[p]
                q = bisect(indices, w, look_lo, look_hi)
                if q < look_hi and indices[q] == w:  # triangle (u, v, w)
                    support[e_uv] += 1
                    support[eids[p]] += 1
                    support[eids[q]] += 1
                    look_lo = q + 1
                else:
                    look_lo = q
                if look_lo >= look_hi:
                    break
            pu += 1
    return support


def csr_forward_structure(csr: CSRGraph) -> tuple:
    """The degree-ranked forward orientation as int64 numpy arrays
    ``(fptr, fdst, feid, fkeys)``.

    Every edge is oriented toward its (degree, id)-larger endpoint and the
    oriented edges are laid out CSR-style in *rank space*: slots
    ``fptr[a] .. fptr[a+1]`` hold, ascending, the forward targets ``fdst``
    (ranks) of the rank-``a`` vertex, ``feid`` the underlying lex edge ids,
    and ``fkeys = fsrc·n + fdst`` is ascending over all slots.  This is
    the structure :func:`triangle_pair_kernel` enumerates wedges over; hub
    vertices rank last, so forward runs — and the wedge-pair blow-up —
    stay small on skewed graphs.
    """
    n = csr.n
    rank = np.empty(n, dtype=np.int64)
    # a degree is below n; ties go to the smaller id
    rank[stable_order(np.diff(csr.indptr), n)] = np.arange(n)
    ru, rv = rank[csr.esrc], rank[csr.etgt]
    fsrc = np.minimum(ru, rv)
    keys = fsrc * n + np.maximum(ru, rv)
    feid = np.argsort(keys)  # keys are distinct: any sort agrees
    fkeys = keys[feid]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fsrc, minlength=n), out=fptr[1:])
    return fptr, fkeys % n, feid, fkeys


def run_slots(starts, ends):
    """Flat positions of all array slots in the given ``[start, end)``
    runs, plus the per-run counts (pure ``repeat``/``cumsum`` algebra)."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(starts - offsets, counts) + np.arange(
        total, dtype=np.int64)
    return slots, counts


def _run_slot_pairs(starts, ends):
    """All slot pairs ``(i < j)`` within each ``[start, end)`` run.

    The shared core of the wedge and K₄-candidate enumerations: slot ``s``
    pairs with exactly the later slots of its own run.  Returns the two
    aligned position arrays ``(idx_i, idx_j)`` (empty when no run holds
    two slots).
    """
    slots, counts = run_slots(starts, ends)
    empty = np.empty(0, dtype=np.int64)
    if len(slots) == 0:
        return empty, empty
    reps = np.repeat(ends, counts) - slots - 1
    pairs = int(reps.sum())
    if pairs == 0:
        return empty, empty
    idx_i = np.repeat(slots, reps)
    group_start = np.concatenate(([0], np.cumsum(reps)[:-1]))
    idx_j = idx_i + 1 + (np.arange(pairs, dtype=np.int64)
                         - np.repeat(group_start, reps))
    return idx_i, idx_j


def _concat_columns(parts: list[tuple], columns: int) -> tuple:
    """Column-wise concatenation of aligned array tuples (drops empties)."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return (empty,) * columns
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate([p[col] for p in parts])
                 for col in range(columns))


def fill_incidence(occ_columns, comp_rows, size: int):
    """CSR incidence from aligned occurrence columns: ``(sup, ptr, comps)``.

    ``occ_columns[j][i]`` is the cell owning occurrence ``j`` of s-clique
    ``i``; ``comp_rows[j]`` the tuple of its companion columns.  Stacking
    clique-major and stable-sorting by cell (:func:`stable_order`) lays
    each cell's slots out in clique order — the one incidence-layout
    algorithm shared by the (2,3)/(3,4) builders (keep it single-sourced:
    the cross-backend parity contract depends on every builder producing
    this same layout discipline).
    """
    occ = np.stack(occ_columns, axis=1).ravel()
    sup = np.bincount(occ, minlength=size).astype(np.int64)
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(sup, out=ptr[1:])
    order = stable_order(occ, size)
    comps = tuple(
        np.stack(columns, axis=1).ravel()[order]
        for columns in zip(*comp_rows, strict=True))
    return sup, ptr, comps


def triangle_pair_kernel(fptr, fdst, feid, fkeys, n: int, lo: int, hi: int):
    """Triangles whose lowest-ranked vertex has rank in ``[lo, hi)``.

    Pure index algebra over the :func:`csr_forward_structure` arrays,
    with no shared state, so ranges can run on concurrent threads: all
    wedge pairs inside each forward run in the range are generated with
    :func:`_run_slot_pairs` and closed with one ``searchsorted`` against
    ``fkeys``.  Returns the three aligned edge-id
    arrays ``(e1, e2, e3)`` of every triangle found; consecutive ranges
    concatenate to exactly the full-range output.
    """
    idx_i, idx_j = _run_slot_pairs(fptr[lo:hi], fptr[lo + 1:hi + 1])
    if len(idx_i) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    probe = fdst[idx_i] * n + fdst[idx_j]
    pos = np.minimum(np.searchsorted(fkeys, probe), len(fkeys) - 1)
    closed = fkeys[pos] == probe
    return feid[idx_i[closed]], feid[idx_j[closed]], feid[pos[closed]]


#: pair budget of the chunks in flight at once — bounds the kernels'
#: transient index arrays without giving up vectorisation
_KERNEL_CHUNK_PAIRS = 1 << 21


def available_cpus() -> int:
    """CPUs this process may run on: the scheduler affinity mask where
    the platform exposes one (a cgroup- or taskset-limited process sees
    fewer than ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _chunk_starts(weights, parts: int = 1) -> list[int]:
    """Boundaries of consecutive ranges covering ``weights``.

    Every range sums to at most ``_KERNEL_CHUNK_PAIRS // parts`` and to at
    most ``sum // parts``, so there are at least ``parts`` ranges when
    the weight allows; an entry heavier than that is a range of its own.
    Returns ascending indices, first 0 and last ``len(weights)``.
    """
    total = np.concatenate(([0], np.cumsum(weights)))
    count = len(weights)
    budget = max(1, min(_KERNEL_CHUNK_PAIRS, int(total[-1])) // parts)
    cuts = [0]
    while cuts[-1] < count:
        lo = cuts[-1]
        hi = int(np.searchsorted(total, total[lo] + budget,
                                 side="right")) - 1
        cuts.append(min(max(hi, lo + 1), count))
    return cuts


def _map_kernel(kernel, weights, workers: int, columns: int) -> tuple:
    """``kernel(lo, hi)`` over ranges of ``weights``, concatenated in order.

    ``t = 1`` runs the ranges in a plain loop.  With ``t = min(workers,
    available_cpus())`` threads the work splits into ``2t`` ranges where
    the weight allows, each of at most ``_KERNEL_CHUNK_PAIRS // 2t``
    pairs (:func:`_chunk_starts`), so the ranges in flight stay within
    one chunk's memory; the pool hands the next range to whichever
    thread is free, which evens out ranges whose pair count misjudges
    their cost.
    """
    threads = max(1, min(workers, available_cpus()))
    cuts = _chunk_starts(weights, 1 if threads == 1 else 2 * threads)
    if threads == 1 or len(cuts) <= 2:
        parts = [kernel(lo, hi)
                 for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(kernel, cuts[:-1], cuts[1:]))
    return _concat_columns(parts, columns)


def lex_triangles(etgt, n: int, e1, e2, e3):
    """Triangles given as edge-id rows, in lex order: ``(keys, uv, uw, vw)``.

    A triangle ``u < v < w`` has lex edge ids ``uv < uw < vw``, so each
    row's minimum, middle and maximum name its three edges without any
    adjacency probe.  Its key ``uv·n + w`` (``w`` = ``etgt[vw]``) orders
    triangles lexicographically by ``(u, v, w)`` and stays below ``m·n``;
    the position of a triangle in the sorted keys is its id on both
    backends.
    """
    uv = np.minimum(np.minimum(e1, e2), e3)
    vw = np.maximum(np.maximum(e1, e2), e3)
    uw = e1 + e2 + e3 - uv - vw
    keys = uv * n + etgt[vw]
    order = np.argsort(keys)  # keys are distinct: any sort agrees
    return keys[order], uv[order], uw[order], vw[order]


def lex_triangle_vertices(csr: CSRGraph, keys):
    """The vertex triples ``(u, v, w)`` of triangles keyed ``uv·n + w``,
    as one ``(len(keys), 3)`` int64 array."""
    uv, w = np.divmod(keys, csr.n)
    return np.column_stack((csr.esrc[uv], csr.etgt[uv], w))


def triangle_tuples(triangles) -> list[tuple[int, int, int]]:
    """A ``(t, 3)`` triangle array as a list of vertex-triple tuples."""
    return list(map(tuple, triangles.tolist()))


def k4_pair_kernel(tri_keys, tri_uw, tri_vw, tri_w, run_ptr, n: int,
                   glo: int, ghi: int):
    """All four-cliques whose lowest-edge run index falls in ``[glo, ghi)``.

    The (3,4) analogue of :func:`triangle_pair_kernel`, one level up the
    same index algebra: triangles sharing their lowest edge ``(u, v)`` sit
    in one lex run, and every pair ``w < x`` of their third vertices is a
    K₄ candidate.  The edge ``(w, x)`` exists iff ``(u, w, x)`` is a
    triangle, so one ``searchsorted`` of its key ``eid(u, w)·n + x``
    against ``tri_keys`` is both the closing test and the lookup of its
    id.  ``(v, w, x)`` is then complete by implication, and a second
    ``searchsorted`` of ``eid(v, w)·n + x`` fetches its id.

    Returns the four aligned triangle-id arrays ``(q1, q2, q3, q4)`` for
    the cliques ``u < v < w < x``: ids of ``(u,v,w)``, ``(u,v,x)``,
    ``(u,w,x)``, ``(v,w,x)``, ordered by ``(u, v, w, x)``; consecutive run
    ranges concatenate to exactly the full-range output.
    """
    idx_i, idx_j = _run_slot_pairs(run_ptr[glo:ghi], run_ptr[glo + 1:ghi + 1])
    if len(idx_i) == 0:
        empty = np.empty(0, dtype=np.int64)
        return (empty,) * 4
    x = tri_w[idx_j]
    probe = tri_uw[idx_i] * n + x
    pos = np.minimum(np.searchsorted(tri_keys, probe), len(tri_keys) - 1)
    found = tri_keys[pos] == probe
    idx_i = idx_i[found]
    # (u,v,w), (u,v,x), (u,w,x) all present means every K4 edge exists, so
    # (v,w,x) is a triangle too and the search is guaranteed to hit
    q4 = np.searchsorted(tri_keys, tri_vw[idx_i] * n + x[found])
    return idx_i, idx_j[found], pos[found], q4


def csr_k4_arrays(csr: CSRGraph, workers: int = 1) -> tuple:  # repro-lint: disable=backend-parity
    """Vectorised K₄ listing: ``(tri_keys, (q1, q2, q3, q4))``.

    ``tri_keys`` are the ascending lex triangle keys (positions = triangle
    ids, see :func:`lex_triangles`) and the four aligned arrays the
    triangle ids of every four-clique (see :func:`k4_pair_kernel`).  Both
    the triangle listing and the K₄ kernel run over ranges balanced by
    pair count — lowest-edge runs for the kernel — on up to ``workers``
    threads (see :func:`_map_kernel`), so the transient arrays stay
    bounded and every worker count lists the same arrays.
    """
    n = csr.n
    keys, uv, uw, vw = lex_triangles(
        csr.etgt, n, *csr_triangle_edge_ids(csr, workers))
    tri_w = csr.etgt[vw]
    # lex-consecutive triangles with one lowest edge: the groups the K₄
    # pair kernel enumerates within
    run_ptr = run_bounds(uv)
    run_sizes = np.diff(run_ptr)

    def kernel(glo, ghi):
        return k4_pair_kernel(keys, uw, vw, tri_w, run_ptr, n, glo, ghi)

    return keys, _map_kernel(kernel, run_sizes * (run_sizes - 1) // 2,
                             workers, 4)


def csr_k4_triangle_ids(
        csr: CSRGraph,
) -> tuple[list[tuple[int, int, int]],
           tuple[list[int], list[int], list[int], list[int]]]:
    """All four-cliques as four aligned triangle-id lists, plus the triangles.

    Returns ``(triangles, (q1, q2, q3, q4))`` where ``triangles`` is the
    lexicographically ordered vertex-triple list (index = triangle id, the
    same ids both backends' (3,4) views use) and slot ``i`` of the four
    aligned lists holds the ids of the triangles ``(u,v,w)``, ``(u,v,x)``,
    ``(u,w,x)``, ``(v,w,x)`` of the ``i``-th four-clique ``u < v < w < x``.
    A list view of :func:`csr_k4_arrays`.
    """
    keys, quads = csr_k4_arrays(csr)
    return (triangle_tuples(lex_triangle_vertices(csr, keys)),
            tuple(q.tolist() for q in quads))
