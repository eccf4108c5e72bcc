"""Undirected simple graph used by every algorithm in the library.

The representation is tuned for peeling and clique enumeration workloads:

* vertices are dense integers ``0 .. n-1``;
* each adjacency is kept twice — as a :class:`set` for O(1) membership tests
  and as a sorted ``list`` for ordered iteration and merge-style
  intersections (common-neighbour queries are the inner loop of triangle and
  four-clique enumeration);
* an optional edge index maps the unordered pair ``(u, v)`` (stored with
  ``u < v``) to a dense edge id, which is what the (2,3) peeling view peels.

Graphs are immutable once constructed.  Build them with
:meth:`Graph.from_edges`, :func:`repro.graph.io` loaders, or the generators
in :mod:`repro.graph.generators`.

A graph may also hold its flat CSR form (:class:`~repro.graph.csr.CSRGraph`):
the edge-list loader builds that first and wraps it with
:meth:`Graph.from_csr`, and the set/list adjacency is then built only when
an object-engine method first reads it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import InvalidGraphError

__all__ = ["Graph", "EdgeIndex", "normalize_edge"]


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class EdgeIndex:
    """Dense integer ids for the edges of a :class:`Graph`.

    Edge ``i`` is the pair ``(source[i], target[i])`` with
    ``source[i] < target[i]``; edges are sorted lexicographically so edge ids
    are deterministic for a given graph.
    """

    __slots__ = ("source", "target", "_id_of")

    def __init__(self, edges: Sequence[tuple[int, int]]):
        ordered = sorted(normalize_edge(u, v) for u, v in edges)
        self.source = [e[0] for e in ordered]
        self.target = [e[1] for e in ordered]
        self._id_of = {e: i for i, e in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self.source)

    def id_of(self, u: int, v: int) -> int:
        """Return the id of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._id_of[normalize_edge(u, v)]

    def get(self, u: int, v: int) -> int | None:
        """Return the id of edge ``{u, v}`` or ``None`` if absent."""
        return self._id_of.get(normalize_edge(u, v))

    def endpoints(self, eid: int) -> tuple[int, int]:
        """Return the (sorted) endpoints of edge ``eid``."""
        return self.source[eid], self.target[eid]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.source, self.target, strict=True)


class Graph:
    """An immutable, undirected, simple graph on vertices ``0 .. n-1``."""

    __slots__ = ("_n", "_m", "_adj_set", "_adj_sorted", "_edge_index", "_csr",
                 "name")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = ""):
        if n < 0:
            raise InvalidGraphError(f"vertex count must be non-negative, got {n}")
        adj_set: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")
            adj_set[u].add(v)
            adj_set[v].add(u)
        self._n = n
        self._adj_set = adj_set
        self._adj_sorted = [sorted(s) for s in adj_set]
        self._m = sum(len(s) for s in adj_set) // 2
        self._edge_index: EdgeIndex | None = None
        self._csr = None
        self.name = name

    @classmethod
    def from_csr(cls, csr) -> "Graph":
        """A graph holding ``csr`` (a :class:`~repro.graph.csr.CSRGraph`).

        Nothing is copied: the set/list adjacency is built from the CSR
        arrays when an object-engine method first reads it, and
        :meth:`CSRGraph.from_graph` hands ``csr`` back.
        """
        self = cls.__new__(cls)
        self._n = csr.n
        self._m = csr.m
        self._edge_index = None
        self._csr = csr
        self.name = csr.name
        return self

    def __getattr__(self, name: str):
        # only reached for an unset slot: the adjacency of a graph made by
        # from_csr, built here once; later reads find the filled slots
        if name not in ("_adj_set", "_adj_sorted"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        csr = self._csr
        ptr = csr.indptr.tolist()
        flat = csr.indices.tolist()
        self._adj_sorted = [flat[ptr[v]:ptr[v + 1]] for v in range(self._n)]
        self._adj_set = [set(run) for run in self._adj_sorted]
        return getattr(self, name)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None,
                   name: str = "") -> "Graph":
        """Build a graph from an edge iterable.

        Duplicate edges and both orientations are tolerated (the adjacency is
        a set); self loops raise :class:`InvalidGraphError`.  When ``n`` is
        omitted it is inferred as ``max vertex + 1``.
        """
        edge_list = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list, name=name)

    @classmethod
    def empty(cls, n: int = 0, name: str = "") -> "Graph":
        """Return a graph with ``n`` vertices and no edges."""
        return cls(n, [], name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self._adj_set[v])

    def degrees(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return [len(s) for s in self._adj_set]

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbour list of ``v`` (do not mutate)."""
        return self._adj_sorted[v]

    def neighbor_set(self, v: int) -> set[int]:
        """Neighbour set of ``v`` (do not mutate)."""
        return self._adj_set[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` exists."""
        return v in self._adj_set[u] if 0 <= u < self._n else False

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once each, as sorted pairs, in lexicographic order."""
        for u in range(self._n):
            for v in self._adj_sorted[u]:
                if v > u:
                    yield (u, v)

    def vertices(self) -> range:
        """Iterable of all vertex ids."""
        return range(self._n)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def edge_index(self) -> EdgeIndex:
        """Lazily-built dense edge index (used by the (2,3) and (3,4) views)."""
        if self._edge_index is None:
            self._edge_index = EdgeIndex(list(self.edges()))
        return self._edge_index

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted common neighbours of ``u`` and ``v``.

        Scans the smaller sorted adjacency and probes the larger set, which
        is the right trade-off for the skewed degree distributions peeling
        workloads see.
        """
        if self.degree(u) > self.degree(v):
            u, v = v, u
        probe = self._adj_set[v]
        return [w for w in self._adj_sorted[u] if w in probe]

    def common_neighbor_count(self, u: int, v: int) -> int:
        """Number of common neighbours of ``u`` and ``v``."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        probe = self._adj_set[v]
        return sum(1 for w in self._adj_sorted[u] if w in probe)

    def subgraph(self, vertices: Iterable[int], relabel: bool = True) -> "Graph":
        """Induced subgraph on ``vertices``.

        With ``relabel=True`` (default) vertices are renumbered ``0..k-1`` in
        increasing original-id order; otherwise original ids are kept and the
        result has the same vertex count as ``self``.
        """
        keep = sorted(set(vertices))
        keep_set = set(keep)
        if relabel:
            new_id = {v: i for i, v in enumerate(keep)}
            edges = [(new_id[u], new_id[v]) for u in keep
                     for v in self._adj_sorted[u] if u < v and v in keep_set]
            return Graph(len(keep), edges, name=self.name)
        edges = [(u, v) for u in keep for v in self._adj_sorted[u]
                 if u < v and v in keep_set]
        return Graph(self._n, edges, name=self.name)

    def edge_subgraph(self, edge_ids: Iterable[int], relabel: bool = False) -> "Graph":
        """Subgraph made of the given edge ids (from :attr:`edge_index`)."""
        idx = self.edge_index
        edges = [idx.endpoints(e) for e in edge_ids]
        if relabel:
            verts = sorted({v for e in edges for v in e})
            new_id = {v: i for i, v in enumerate(verts)}
            return Graph(len(verts), [(new_id[u], new_id[v]) for u, v in edges],
                         name=self.name)
        return Graph(self._n, edges, name=self.name)

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj_set == other._adj_set

    def __hash__(self):  # Graphs are containers; identity hashing is enough.
        return id(self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self._n} m={self._m}>"
