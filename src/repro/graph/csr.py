"""Flat compressed-sparse-row (CSR) graph: the peeling-engine backend.

:class:`~repro.graph.adjacency.Graph` keeps one Python ``set`` plus one
``list`` per vertex, which is convenient but costs a pointer chase and a
small-object allocation on every step of the peel inner loop.  This module
stores the whole adjacency in four flat typed arrays instead:

* ``indptr[v] .. indptr[v+1]`` delimits the neighbour slots of ``v``;
* ``indices[p]`` is the neighbour in slot ``p`` (sorted ascending);
* ``eids[p]`` is the dense undirected edge id of slot ``p`` — so a merge
  scan over two adjacency runs yields *edge ids* directly, with no hash
  lookups (this is what makes the (2,3) peel fast);
* ``esrc[e] / etgt[e]`` are the endpoints of edge ``e`` (``esrc < etgt``).

Edge ids are assigned in lexicographic endpoint order, exactly matching
:class:`~repro.graph.adjacency.EdgeIndex`, so λ arrays computed on either
backend are comparable element-for-element.

Storage is ``array('i')`` (32-bit, C-contiguous).  Construction has an
optional numpy fast path (dedup + CSR fill fully vectorised); the
per-element python loops (LCPS, the reference incidence builders, the
variant kernels) instead use :meth:`CSRGraph.hot_arrays`, which caches
plain-``list`` copies — CPython indexes a list of cached references faster
than it can re-box ints out of a typed array.

Also here: the CSR merge-intersection enumerators (edge triangle supports,
triangles, four-clique counts) that the (2,3)/(3,4) cell views build on.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Iterator

from repro.errors import InvalidGraphError
from repro.graph.adjacency import Graph, normalize_edge

try:  # optional fast path; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

__all__ = [
    "CSRGraph",
    "HAVE_NUMPY",
    "csr_arrays_int64",
    "csr_build_arrays",
    "csr_edge_support",
    "csr_k4_triangle_ids",
    "csr_triangle_edge_ids",
    "csr_forward_structure",
    "csr_triangles",
    "csr_triangle_k4_counts",
    "fill_incidence",
    "k4_pair_kernel",
    "run_heads",
    "sorted_unique",
    "triangle_pair_kernel",
    "triangle_run_pointers",
    "triangle_triples",
]

#: whether the optional numpy fast paths are available in this environment
HAVE_NUMPY = _np is not None

#: below this many input pairs the numpy round-trip costs more than it saves
_NUMPY_MIN_EDGES = 512

#: the int-key index algebra encodes a vertex triple as (u·n + v)·n + w,
#: which must stay below 2^63; graphs past this bound take the python path
_MAX_KEYED_N = 1 << 21


def _zeros(count: int) -> array:
    """A zero-filled ``array('i')`` of the given length."""
    return array("i", bytes(4 * count))


def _from_numpy(arr) -> array:
    """Convert an int numpy array to ``array('i')`` without a Python loop."""
    out = array("i")
    out.frombytes(arr.astype(_np.int32, copy=False).tobytes())
    return out


def run_heads(values):
    """Mask of the elements of a 1-d array that differ from their
    predecessor: the first element of every run of equal values."""
    head = _np.empty(len(values), dtype=bool)
    head[:1] = True
    _np.not_equal(values[1:], values[:-1], out=head[1:])
    return head


def sorted_unique(keys):
    """``np.unique(keys)`` for integer keys: one sort and a neighbour mask.

    Without flags, numpy 2.x's ``np.unique`` answers from a hash table,
    which on integer keys is many times slower than sorting them (the
    sort runs vectorised); every flagless dedup of integer keys goes
    through here instead.  Returns the sorted distinct keys, flattened,
    in the input dtype.
    """
    keys = _np.sort(keys, axis=None)
    return keys[run_heads(keys)]


def csr_build_arrays(n: int, u, v) -> tuple:
    """``(indptr, indices, eids, esrc, etgt)`` as int64 arrays for the
    simple graph on ``n`` vertices with edges ``{u[i], v[i]}``.

    The one CSR builder: every in-memory construction path ends here.
    Endpoints must be in range and self-loop free; duplicates and both
    orientations are fine.  A sort-based dedup of the keys ``lo·n + hi``
    yields the edges in lexicographic order, which is their id order.
    One stable scatter then lays out the adjacency: vertex ``w``'s run
    holds its smaller neighbours (the edges with ``etgt == w``, in id
    order) followed by its larger ones (the edges with ``esrc == w``,
    contiguous in id order), so every run comes out ascending.
    """
    u = _np.asarray(u, dtype=_np.int64)
    v = _np.asarray(v, dtype=_np.int64)
    keys = sorted_unique(_np.minimum(u, v) * n + _np.maximum(u, v))
    m = len(keys)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    if m == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return indptr, empty, empty, empty, empty
    esrc, etgt = _np.divmod(keys, n)
    eid = _np.arange(m, dtype=_np.int64)
    below = _np.bincount(etgt, minlength=n)  # smaller neighbours per vertex
    above = _np.bincount(esrc, minlength=n)
    _np.cumsum(below + above, out=indptr[1:])
    indices = _np.empty(2 * m, dtype=_np.int64)
    eids = _np.empty(2 * m, dtype=_np.int64)
    # smaller-neighbour slots: the j-th edge in (etgt, id) order lands at
    # indptr[w] + j - (edges with etgt < w), i.e. (edges with esrc < w) + j
    owner, by_tgt = _np.divmod(_np.sort(etgt * m + eid), m)
    slots = (_np.cumsum(above) - above)[owner] + eid  # eid doubles as j
    indices[slots] = esrc[by_tgt]
    eids[slots] = by_tgt
    # larger-neighbour slots: edge e lands at indptr[w] + below[w] + (e -
    # first edge with esrc == w), i.e. (edges with etgt <= w) + e
    slots = _np.cumsum(below)[esrc] + eid
    indices[slots] = etgt
    eids[slots] = eid
    return indptr, indices, eids, esrc, etgt


class CSRGraph:
    """An immutable, undirected, simple graph in CSR layout.

    Mirrors the read API of :class:`~repro.graph.adjacency.Graph` (``n``,
    ``m``, ``degree``, ``neighbors``, ``neighbor_set``, ``has_edge``,
    ``edges``, ``common_neighbors``, ``edge_index``…) so the generic cell
    views and clique enumerators accept either representation; the CSR
    engine (:mod:`repro.parallel`) and the incidence builders of
    :mod:`repro.core.csr_peel` bypass that API and walk the arrays
    directly.
    """

    __slots__ = ("indptr", "indices", "eids", "esrc", "etgt", "name",
                 "_n", "_hot", "_edge_index")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = "",
                 use_numpy: bool | None = None):
        if n < 0:
            raise InvalidGraphError(f"vertex count must be non-negative, got {n}")
        edge_list = list(edges)
        self._n = n
        self.name = name
        self._hot = None
        self._edge_index = None
        numpy_wanted = (_np is not None if use_numpy is None else use_numpy)
        if use_numpy and _np is None:
            raise InvalidGraphError("numpy fast path requested but numpy is missing")
        if numpy_wanted and _np is not None and len(edge_list) >= (
                0 if use_numpy else _NUMPY_MIN_EDGES):
            self._build_numpy(n, edge_list)
        else:
            self._build_python(n, edge_list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_python(self, n: int, edge_list: list[tuple[int, int]]) -> None:
        unique: set[tuple[int, int]] = set()
        for u, v in edge_list:
            if u == v:
                raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")
            unique.add(normalize_edge(u, v))
        ordered = sorted(unique)
        m = len(ordered)
        indptr = _zeros(n + 1)
        for u, v in ordered:
            indptr[u + 1] += 1
            indptr[v + 1] += 1
        for v in range(n):
            indptr[v + 1] += indptr[v]
        indices = _zeros(2 * m)
        eids = _zeros(2 * m)
        esrc = _zeros(m)
        etgt = _zeros(m)
        cursor = indptr.tolist()
        for eid, (u, v) in enumerate(ordered):
            # lexicographic edge order makes each adjacency run come out
            # sorted: all smaller-id neighbours of x are written (in order)
            # before any larger-id ones.
            p = cursor[u]
            indices[p] = v
            eids[p] = eid
            cursor[u] = p + 1
            p = cursor[v]
            indices[p] = u
            eids[p] = eid
            cursor[v] = p + 1
            esrc[eid] = u
            etgt[eid] = v
        self.indptr, self.indices, self.eids = indptr, indices, eids
        self.esrc, self.etgt = esrc, etgt

    def _build_numpy(self, n: int, edge_list: list[tuple[int, int]]) -> None:
        if not edge_list:
            self._build_python(n, edge_list)
            return
        pairs = _np.asarray(edge_list, dtype=_np.int64).reshape(-1, 2)
        if pairs.min() < 0 or pairs.max() >= n:
            bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
            raise InvalidGraphError(
                f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
        if (pairs[:, 0] == pairs[:, 1]).any():
            loop = pairs[pairs[:, 0] == pairs[:, 1]][0, 0]
            raise InvalidGraphError(f"self loop on vertex {loop} is not allowed")
        self._set_arrays(*csr_build_arrays(n, pairs[:, 0], pairs[:, 1]))

    def _set_arrays(self, indptr, indices, eids, esrc, etgt) -> None:
        self.indptr = _from_numpy(indptr)
        self.indices = _from_numpy(indices)
        self.eids = _from_numpy(eids)
        self.esrc = _from_numpy(esrc)
        self.etgt = _from_numpy(etgt)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None,
                   name: str = "", use_numpy: bool | None = None) -> "CSRGraph":
        """Build from an edge iterable, inferring ``n`` when omitted."""
        edge_list = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list, name=name, use_numpy=use_numpy)

    @classmethod
    def from_arrays(cls, n: int, u, v, name: str = "") -> "CSRGraph":
        """Build from aligned endpoint arrays of vertex ids in ``0..n-1``
        (no self loops; duplicates and both orientations are fine) with
        :func:`csr_build_arrays`, no per-edge Python objects."""
        self = cls.__new__(cls)
        self._n = n
        self.name = name
        self._hot = None
        self._edge_index = None
        self._set_arrays(*csr_build_arrays(n, u, v))
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
            nbrs = _np.fromiter(chain.from_iterable(runs), dtype=_np.int64,
                                count=2 * graph.m)
            owners = _np.repeat(_np.arange(n, dtype=_np.int64),
                                _np.fromiter(map(len, runs), dtype=_np.int64,
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
        return self.indptr[v + 1] - self.indptr[v]

    def degrees(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        indptr = self.indptr
        return [indptr[v + 1] - indptr[v] for v in range(self._n)]

    def neighbors(self, v: int):
        """Sorted neighbours of ``v`` as a flat slice (do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_set(self, v: int) -> set[int]:
        """Neighbour set of ``v`` (built on demand)."""
        return set(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` exists (binary search)."""
        if not 0 <= u < self._n:
            return False
        lo, hi = self.indptr[u], self.indptr[u + 1]
        p = bisect_left(self.indices, v, lo, hi)
        return p < hi and self.indices[p] == v

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense id of edge ``{u, v}``, or ``None`` if absent."""
        if not 0 <= u < self._n:
            return None
        lo, hi = self.indptr[u], self.indptr[u + 1]
        p = bisect_left(self.indices, v, lo, hi)
        if p < hi and self.indices[p] == v:
            return self.eids[p]
        return None

    def endpoints(self, eid: int) -> tuple[int, int]:
        """The (sorted) endpoints of edge ``eid``."""
        return self.esrc[eid], self.etgt[eid]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once each, as sorted pairs, in lexicographic order."""
        return zip(self.esrc, self.etgt, strict=True)

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
        cached ``int`` references where ``array('i')`` would re-box a fresh
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
    def source(self):
        return self._graph.esrc

    @property
    def target(self):
        return self._graph.etgt

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
# merge-intersection enumerators
# ---------------------------------------------------------------------------
def _suffix_start(indices: list[int], lo: int, hi: int, v: int) -> int:
    """First slot in ``indices[lo:hi]`` holding a neighbour id > ``v``."""
    return bisect_right(indices, v, lo, hi)


#: below this many edges the numpy set-up cost beats its vectorisation gain
_NUMPY_MIN_TRIANGLE_EDGES = 256


def csr_triangle_edge_ids(csr: CSRGraph):
    """All triangles as three aligned numpy edge-id arrays ``(e1, e2, e3)``.

    Fully vectorised: orient every edge toward the (degree, id)-larger
    endpoint, generate all wedge pairs inside each forward run with
    ``repeat``/``cumsum`` index algebra, and close them with one
    ``searchsorted`` against the lexicographic edge-key array.  Requires
    numpy (callers check :data:`HAVE_NUMPY`).
    """
    n, m = csr.n, csr.m
    if m == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty, empty
    fwd = csr_forward_structure(csr)
    fptr, fdst, feid, fkeys = (fwd["fptr"], fwd["fdst"], fwd["feid"],
                               fwd["fkeys"])
    # chunk the kernel over rank ranges so the transient pair arrays stay
    # bounded on dense graphs
    counts = _np.diff(fptr)
    pair_weights = counts * (counts - 1) // 2
    cuts = _chunk_starts(pair_weights)
    return _concat_columns(
        [triangle_pair_kernel(fptr, fdst, feid, fkeys, n, lo, hi)
         for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)], 3)


def csr_edge_support(csr: CSRGraph, use_numpy: bool | None = None) -> list[int]:
    """Triangles containing each edge, indexed by edge id (initial ω₃).

    With numpy present (and the graph non-trivial) the count is one
    ``bincount`` over :func:`csr_triangle_edge_ids`.  The fallback finds
    each triangle ``u < v < w`` once from its lowest edge ``(u, v)`` by
    intersecting the two suffix runs ``> v``: the shorter run is scanned,
    the longer bisected (runs are sorted, so the search window only ever
    shrinks), and the aligned ``eids`` array turns every match into the
    three edge ids with zero hash lookups.
    """
    if use_numpy is None:
        # the vectorised listing needs the real typed arrays; duck-typed
        # CSR layouts (the disk backend) take the scalar fallback
        use_numpy = (_np is not None and csr.m >= _NUMPY_MIN_TRIANGLE_EDGES
                     and isinstance(csr, CSRGraph))
    if use_numpy:
        if _np is None:
            raise InvalidGraphError("numpy fast path requested but numpy is missing")
        e1, e2, e3 = csr_triangle_edge_ids(csr)
        return _np.bincount(_np.concatenate([e1, e2, e3]),
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


def csr_triangles(csr: CSRGraph) -> Iterator[tuple[int, int, int]]:
    """Enumerate each triangle once as ``(u, v, w)`` with ``u < v < w``."""
    indptr, indices, _ = csr.hot_arrays()
    for u in range(csr.n):
        u_end = indptr[u + 1]
        pu = _suffix_start(indices, indptr[u], u_end, u)
        while pu < u_end:
            v = indices[pu]
            i = pu + 1
            j = _suffix_start(indices, indptr[v], indptr[v + 1], v)
            j_end = indptr[v + 1]
            while i < u_end and j < j_end:
                a = indices[i]
                b = indices[j]
                if a < b:
                    i += 1
                elif b < a:
                    j += 1
                else:
                    yield (u, v, a)
                    i += 1
                    j += 1
            pu += 1


def csr_arrays_int64(csr: CSRGraph) -> dict:
    """The five CSR arrays as int64 numpy arrays (keyed by attribute name).

    This is the layout the index-algebra kernels below and the
    shared-memory workers (:mod:`repro.parallel`) operate on; int64 keeps
    every derived key (``u·n + v`` and ``(u·n + v)·n + w``) overflow-free
    for any graph the 32-bit CSR can hold.
    """
    return {
        "indptr": _np.frombuffer(csr.indptr, dtype=_np.int32).astype(_np.int64),
        "indices": _np.frombuffer(csr.indices, dtype=_np.int32).astype(_np.int64),
        "eids": _np.frombuffer(csr.eids, dtype=_np.int32).astype(_np.int64),
        "esrc": _np.frombuffer(csr.esrc, dtype=_np.int32).astype(_np.int64),
        "etgt": _np.frombuffer(csr.etgt, dtype=_np.int32).astype(_np.int64),
    }


def csr_forward_structure(csr: CSRGraph) -> dict:
    """The degree-ranked forward orientation as int64 numpy arrays.

    Every edge is oriented toward its (degree, id)-larger endpoint and the
    oriented edges are laid out CSR-style in *rank space*: slots
    ``fptr[a] .. fptr[a+1]`` hold, ascending, the forward targets ``fdst``
    (ranks) of the rank-``a`` vertex, ``feid`` the underlying lex edge ids,
    and ``keys = fsrc·n + fdst`` is ascending over all slots.  This is the
    structure :func:`triangle_pair_kernel` enumerates wedges over; hub
    vertices rank last, so forward runs — and the wedge-pair blow-up —
    stay small on skewed graphs.  Shared-memory workers attach these five
    arrays and shard the kernel by rank ranges.
    """
    n, m = csr.n, csr.m
    arrays = csr_arrays_int64(csr)
    esrc, etgt, indptr = arrays["esrc"], arrays["etgt"], arrays["indptr"]
    deg = _np.diff(indptr)
    rank = _np.empty(n, dtype=_np.int64)
    rank[_np.lexsort((_np.arange(n), deg))] = _np.arange(n)
    ru, rv = rank[esrc], rank[etgt]
    fsrc = _np.minimum(ru, rv)
    fdst = _np.maximum(ru, rv)
    order = _np.lexsort((fdst, fsrc))
    fsrc_s, fdst_s = fsrc[order], fdst[order]
    feid = _np.arange(m, dtype=_np.int64)[order]
    fptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(fsrc_s, minlength=n), out=fptr[1:])
    return {"fptr": fptr, "fdst": fdst_s, "feid": feid,
            "fkeys": fsrc_s * n + fdst_s}


def run_slots(starts, ends):
    """Flat positions of all array slots in the given ``[start, end)``
    runs, plus the per-run counts (pure ``repeat``/``cumsum`` algebra)."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64), counts
    offsets = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
    slots = _np.repeat(starts - offsets, counts) + _np.arange(
        total, dtype=_np.int64)
    return slots, counts


def _run_slot_pairs(starts, ends):
    """All slot pairs ``(i < j)`` within each ``[start, end)`` run.

    The shared core of the wedge and K₄-candidate enumerations: slot ``s``
    pairs with exactly the later slots of its own run.  Returns the two
    aligned position arrays ``(idx_i, idx_j)`` (empty when no run holds
    two slots).
    """
    slots, counts = run_slots(starts, ends)
    empty = _np.empty(0, dtype=_np.int64)
    if len(slots) == 0:
        return empty, empty
    reps = _np.repeat(ends, counts) - slots - 1
    pairs = int(reps.sum())
    if pairs == 0:
        return empty, empty
    idx_i = _np.repeat(slots, reps)
    group_start = _np.concatenate(([0], _np.cumsum(reps)[:-1]))
    idx_j = idx_i + 1 + (_np.arange(pairs, dtype=_np.int64)
                         - _np.repeat(group_start, reps))
    return idx_i, idx_j


def _concat_columns(parts: list[tuple], columns: int) -> tuple:
    """Column-wise concatenation of aligned array tuples (drops empties)."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        empty = _np.empty(0, dtype=_np.int64)
        return (empty,) * columns
    if len(parts) == 1:
        return parts[0]
    return tuple(_np.concatenate([p[col] for p in parts])
                 for col in range(columns))


def fill_incidence(occ_columns, comp_rows, size: int):
    """CSR incidence from aligned occurrence columns: ``(sup, ptr, comps)``.

    ``occ_columns[j][i]`` is the cell owning occurrence ``j`` of s-clique
    ``i``; ``comp_rows[j]`` the tuple of its companion columns.  Stacking
    clique-major and stable-sorting by cell reproduces the sequential
    cursor fill slot for slot — the one incidence-layout algorithm shared
    by the (2,3)/(3,4) builders and the parallel sharded set-up (keep it
    single-sourced: the cross-backend parity contract depends on every
    builder producing this same layout discipline).
    """
    occ = _np.stack(occ_columns, axis=1).ravel()
    sup = _np.bincount(occ, minlength=size).astype(_np.int64)
    ptr = _np.zeros(size + 1, dtype=_np.int64)
    _np.cumsum(sup, out=ptr[1:])
    order = _np.argsort(occ, kind="stable")
    comps = tuple(
        _np.stack(columns, axis=1).ravel()[order]
        for columns in zip(*comp_rows, strict=True))
    return sup, ptr, comps


def triangle_pair_kernel(fptr, fdst, feid, fkeys, n: int, lo: int, hi: int):
    """Triangles whose lowest-ranked vertex has rank in ``[lo, hi)``.

    Pure index algebra over the :func:`csr_forward_structure` arrays (no
    :class:`CSRGraph` needed, so shared-memory workers can run it on
    attached arrays): all wedge pairs inside each forward run in the range
    are generated with :func:`_run_slot_pairs` and closed with one
    ``searchsorted`` against ``fkeys``.  Returns the three aligned edge-id
    arrays ``(e1, e2, e3)`` of every triangle found; consecutive ranges
    concatenate to exactly the full-range output.
    """
    idx_i, idx_j = _run_slot_pairs(fptr[lo:hi], fptr[lo + 1:hi + 1])
    if len(idx_i) == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty, empty
    probe = fdst[idx_i] * n + fdst[idx_j]
    pos = _np.minimum(_np.searchsorted(fkeys, probe), len(fkeys) - 1)
    closed = fkeys[pos] == probe
    return feid[idx_i[closed]], feid[idx_j[closed]], feid[pos[closed]]


#: per-chunk pair budget for the chunked in-process kernel drivers —
#: bounds the transient index arrays without giving up vectorisation
_KERNEL_CHUNK_PAIRS = 1 << 21


def _chunk_starts(weights) -> list[int]:
    """Boundaries splitting ``weights`` into ~equal chunks of bounded sum."""
    total = _np.concatenate(([0], _np.cumsum(weights)))
    cuts = [0]
    count = len(weights)
    while cuts[-1] < count:
        lo = cuts[-1]
        hi = int(_np.searchsorted(total, total[lo] + _KERNEL_CHUNK_PAIRS,
                                  side="left"))
        cuts.append(min(max(hi, lo + 1), count))
    return cuts


def triangle_triples(arrays: dict, e1, e2, e3):
    """Vertex triples ``(tu, tv, tw)`` of triangles given as edge-id rows.

    Each vertex of a triangle appears in exactly two of its edges, so the
    endpoint sum is ``2(u + v + w)``; with the min and max that pins the
    middle vertex without any adjacency probe.
    """
    esrc, etgt = arrays["esrc"], arrays["etgt"]
    s1, t1 = esrc[e1], etgt[e1]
    s2, t2 = esrc[e2], etgt[e2]
    s3, t3 = esrc[e3], etgt[e3]
    tu = _np.minimum(_np.minimum(s1, s2), s3)
    tw = _np.maximum(_np.maximum(t1, t2), t3)
    tv = (s1 + t1 + s2 + t2 + s3 + t3) // 2 - tu - tw
    return tu, tv, tw


def _lex_triangles_numpy(csr: CSRGraph):
    """The lex-ordered triangle listing ``(tu, tv, tw)``, vectorised.

    Degree-oriented wedge enumeration (hub runs stay short) followed by
    one lexsort back into lexicographic triple order — the order that
    defines triangle ids on both backends.
    """
    e1, e2, e3 = csr_triangle_edge_ids(csr)
    tu, tv, tw = triangle_triples(csr_arrays_int64(csr), e1, e2, e3)
    order = _np.lexsort((tw, tv, tu))
    return tu[order], tv[order], tw[order]


def triangle_run_pointers(tu, tv, n: int):
    """Boundaries of the runs of triangles sharing their lowest edge.

    ``run_ptr[g] .. run_ptr[g+1]`` delimits the ``g``-th maximal run of
    lex-consecutive triangles with equal ``(u, v)`` — exactly the groups
    the K₄ pair kernel enumerates within.
    """
    count = len(tu)
    if count == 0:
        return _np.zeros(1, dtype=_np.int64)
    key_uv = tu * n + tv
    change = _np.flatnonzero(key_uv[1:] != key_uv[:-1]) + 1
    return _np.concatenate(([0], change, [count]))


def k4_pair_kernel(tri_keys, tu, tv, tw, run_ptr, n: int, glo: int, ghi: int):
    """All four-cliques whose lowest-edge run index falls in ``[glo, ghi)``.

    The (3,4) analogue of :func:`triangle_pair_kernel`, one level up the
    same index algebra: triangles sharing their lowest edge ``(u, v)`` sit
    in one lex run, every pair ``(w, x)`` of their third vertices is a K₄
    candidate, and the closing test *and* the id of the witness triangle
    ``(u, w, x)`` come from a single ``searchsorted`` against ``tri_keys``
    (the ascending ``(u·n + v)·n + w`` triple keys, whose positions are
    the lex triangle ids).  ``(v, w, x)`` is then complete by implication
    and a second ``searchsorted`` fetches its id.

    Returns the four aligned triangle-id arrays ``(q1, q2, q3, q4)`` for
    the cliques ``u < v < w < x``: ids of ``(u,v,w)``, ``(u,v,x)``,
    ``(u,w,x)``, ``(v,w,x)`` — in the same order as the pure-python
    :func:`csr_k4_triangle_ids` enumeration.
    """
    idx_i, idx_j = _run_slot_pairs(run_ptr[glo:ghi], run_ptr[glo + 1:ghi + 1])
    if len(idx_i) == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return (empty,) * 4
    u = tu[idx_i]
    w = tw[idx_i]
    x = tw[idx_j]
    probe = (u * n + w) * n + x
    pos = _np.minimum(_np.searchsorted(tri_keys, probe), len(tri_keys) - 1)
    found = tri_keys[pos] == probe
    idx_i = idx_i[found]
    idx_j = idx_j[found]
    q3 = pos[found]
    # (u,v,w), (u,v,x), (u,w,x) all present means every K4 edge exists, so
    # (v,w,x) is a triangle too and the search is guaranteed to hit
    q4 = _np.searchsorted(
        tri_keys, (tv[idx_i] * n + w[found]) * n + x[found])
    return idx_i, idx_j, q3, q4


def _k4_numpy(csr: CSRGraph):
    """Vectorised K₄ listing: ``(tu, tv, tw, q1, q2, q3, q4)`` arrays."""
    n = csr.n
    tu, tv, tw = _lex_triangles_numpy(csr)
    tri_keys = (tu * n + tv) * n + tw
    run_ptr = triangle_run_pointers(tu, tv, n)
    # chunk runs by their pair counts so the transient arrays stay bounded
    run_sizes = run_ptr[1:] - run_ptr[:-1]
    cuts = _chunk_starts(run_sizes * (run_sizes - 1) // 2)
    q1, q2, q3, q4 = _concat_columns(
        [k4_pair_kernel(tri_keys, tu, tv, tw, run_ptr, n, glo, ghi)
         for glo, ghi in zip(cuts[:-1], cuts[1:], strict=True)], 4)
    return tu, tv, tw, q1, q2, q3, q4


def csr_k4_triangle_ids(
        csr: CSRGraph, use_numpy: bool | None = None,
) -> tuple[list[tuple[int, int, int]],
           tuple[list[int], list[int], list[int], list[int]]]:
    """All four-cliques as four aligned triangle-id lists, plus the triangles.

    Returns ``(triangles, (q1, q2, q3, q4))`` where ``triangles`` is the
    lexicographically ordered vertex-triple list (index = triangle id, the
    same ids both backends' (3,4) views use) and slot ``i`` of the four
    aligned lists holds the ids of the triangles ``(u,v,w)``, ``(u,v,x)``,
    ``(u,w,x)``, ``(v,w,x)`` of the ``i``-th four-clique ``u < v < w < x``.
    This is the materialised triangle→K₄ incidence the direct (3,4) peel
    and hierarchy construction replay.

    Four-cliques are found once from their smallest edge ``(u, v)``: a pair
    ``w < x`` of common neighbours beyond ``v`` completes one iff ``(w, x)``
    is an edge.  Both the common-neighbour lists and the edge tests come
    from the triangle list itself: triangles sharing their lowest edge sit
    in one consecutive lex run (so their ids need no lookup at all), and
    since ``w`` and ``x`` are both adjacent to ``u``, the edge ``(w, x)``
    exists iff ``(u, w, x)`` is a triangle — one probe of the id map, whose
    value the K₄ record needs anyway.

    With numpy present (``use_numpy=None`` auto-selects) the same
    enumeration runs fully vectorised through :func:`triangle_pair_kernel`
    and :func:`k4_pair_kernel`; output is identical, clique for clique.
    """
    n = csr.n
    if use_numpy is None:
        use_numpy = (_np is not None and csr.m >= _NUMPY_MIN_TRIANGLE_EDGES
                     and n < _MAX_KEYED_N and isinstance(csr, CSRGraph))
    if use_numpy:
        if _np is None:
            raise InvalidGraphError("numpy fast path requested but numpy is missing")
        tu, tv, tw, q1, q2, q3, q4 = _k4_numpy(csr)
        triangles = list(zip(tu.tolist(), tv.tolist(), tw.tolist(), strict=True))
        return triangles, (q1.tolist(), q2.tolist(), q3.tolist(), q4.tolist())
    triangles = list(csr_triangles(csr))
    # encoded int keys hash faster than tuple keys in the pair probes below
    tri_id: dict[int, int] = {
        (a * n + b) * n + c: tid for tid, (a, b, c) in enumerate(triangles)}
    q1: list[int] = []
    q2: list[int] = []
    q3: list[int] = []
    q4: list[int] = []
    get = tri_id.get
    num_tris = len(triangles)
    base = 0
    while base < num_tris:
        u, v, _w = triangles[base]
        end = base + 1
        while end < num_tris:
            tu, tv, _x = triangles[end]
            if tu != u or tv != v:
                break
            end += 1
        # triangles[base:end] share the lowest edge (u, v); their third
        # vertices are exactly the common neighbours of u and v beyond v
        for i in range(base, end - 1):
            w = triangles[i][2]
            uw = (u * n + w) * n
            vw = (v * n + w) * n
            for j in range(i + 1, end):
                x = triangles[j][2]
                t_uwx = get(uw + x)
                if t_uwx is not None:
                    q1.append(i)
                    q2.append(j)
                    q3.append(t_uwx)
                    q4.append(tri_id[vw + x])
        base = end
    return triangles, (q1, q2, q3, q4)


def csr_triangle_k4_counts(
        csr: CSRGraph) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """Triangle ids plus four-cliques containing each triangle (initial ω₄)."""
    triangles, quads = csr_k4_triangle_ids(csr)
    counts = [0] * len(triangles)
    for quad in quads:
        for tid in quad:
            counts[tid] += 1
    return {tri: tid for tid, tri in enumerate(triangles)}, counts
