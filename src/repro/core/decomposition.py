"""Top-level nucleus decomposition API.

:func:`nucleus_decomposition` runs any of the paper's algorithms on any
(r, s) pair and returns a :class:`Decomposition` carrying the λ values, the
hierarchy, and a peel/post-process timing breakdown (the quantity Figure 6
plots).  Algorithms:

===========  ===========================================  ==================
name         phases                                       applicable
===========  ===========================================  ==================
``naive``    Set-λ + per-level traversal (Alg. 2/3)       any (r, s)
``dft``      Set-λ + DF-Traversal (Alg. 5/6)              any (r, s)
``fnd``      extended peeling + BuildHierarchy (Alg. 8/9) any (r, s)
``lcps``     Set-λ + priority traversal (Matula–Beck)     (1, 2) only
``hypo``     Set-λ + flat traversal, **no hierarchy**     any (r, s)
===========  ===========================================  ==================
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.dft import dft_hierarchy
from repro.core.fnd import FndInstrumentation, fnd_decomposition
from repro.core.hierarchy import Hierarchy
from repro.core.hypo import hypo_traversal
from repro.core.lcps import lcps_hierarchy
from repro.core.peeling import peel
from repro.core.traversal import naive_hierarchy
from repro.core.views import CellView, build_view
from repro.errors import InvalidParameterError, UnknownAlgorithmError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph

__all__ = ["Decomposition", "nucleus_decomposition", "ALGORITHMS"]

ALGORITHMS = ("naive", "dft", "fnd", "lcps", "hypo")


class Decomposition:
    """Result of a nucleus decomposition run.

    Attributes:
        graph: the input graph, in whichever representation it was passed
            (:class:`Graph`, or :class:`CSRGraph` for the direct CSR paths —
            both support the subgraph-extraction API used here).
        r, s: the nucleus parameters.
        algorithm: which algorithm produced this result.
        lam: λ_s per cell (cell = vertex / edge id / triangle id for
            r = 1 / 2 / 3), a list of Python ints built on first read from
            ``lam_array``, the int64 array the result stores.
        hierarchy: the hierarchy-skeleton (``None`` for ``hypo``, which by
            definition does not build one).
        view: the cell view (maps cell ids back to vertex tuples).
        peel_seconds / post_seconds: timing breakdown.  For FND the peel
            phase is the *extended* peeling (Alg. 8) and the post phase is
            BuildHierarchy — matching how Figure 6 splits the bars.
    """

    def __init__(self, graph: Graph | CSRGraph, r: int, s: int,
                 algorithm: str, lam: Any, hierarchy: Hierarchy | None,
                 view: CellView, peel_seconds: float, post_seconds: float,
                 fnd_stats: FndInstrumentation | None = None):
        self.graph = graph
        self.r = r
        self.s = s
        self.algorithm = algorithm
        self.lam_array = np.asarray(lam, dtype=np.int64)
        self.hierarchy = hierarchy
        self.view = view
        self.peel_seconds = peel_seconds
        self.post_seconds = post_seconds
        self.fnd_stats = fnd_stats

    def __repr__(self) -> str:
        return (f"<Decomposition ({self.r},{self.s}) "
                f"algorithm={self.algorithm!r} cells={len(self.lam_array)} "
                f"max_lambda={self.max_lambda}>")

    @cached_property
    def lam(self) -> list[int]:
        return self.lam_array.tolist()

    @property
    def total_seconds(self) -> float:
        return self.peel_seconds + self.post_seconds

    @property
    def max_lambda(self) -> int:
        return int(self.lam_array.max()) if len(self.lam_array) else 0

    # -- convenience views over the hierarchy ---------------------------
    def nucleus_vertices(self, node_id: int) -> set[int]:
        """Vertex set of a condensed-tree nucleus node."""
        if self.hierarchy is None:
            raise InvalidParameterError(f"{self.algorithm} builds no hierarchy")
        tree = self.hierarchy.condense()
        return self.view.vertices_of_cells(tree.subtree_cells(node_id))

    def nucleus_subgraph(self, node_id: int, relabel: bool = True) -> Graph:
        """Induced subgraph of a condensed-tree nucleus node."""
        return self.graph.subgraph(self.nucleus_vertices(node_id), relabel=relabel)

    def nuclei_at_level(self, k: int) -> list[int]:
        """Condensed node ids of nuclei with level >= k, densest first."""
        if self.hierarchy is None:
            raise InvalidParameterError(f"{self.algorithm} builds no hierarchy")
        tree = self.hierarchy.condense()
        picked = [n.id for n in tree.nodes if n.k >= k]
        picked.sort(key=lambda i: -tree[i].k)
        return picked


def nucleus_decomposition(graph: Graph | CSRGraph, r: int = 1, s: int = 2,
                          algorithm: str = "fnd",
                          view: CellView | None = None) -> Decomposition:
    """Decompose ``graph`` into its k-(r, s) nuclei with full hierarchy.

    Args:
        graph: input graph.
        r, s: nucleus parameters, ``1 <= r < s``.  (1,2) = k-core,
            (2,3) = k-truss communities, (3,4) = the paper's densest setting.
        algorithm: one of :data:`ALGORITHMS`.
        view: pre-built cell view to reuse across runs (benchmarks build the
            view once so that clique *indexing* cost is not attributed to any
            one algorithm; clique *degree counting* is always charged to the
            peel phase).
    """
    if algorithm not in ALGORITHMS:
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if algorithm == "lcps" and (r, s) != (1, 2):
        raise InvalidParameterError("LCPS applies to (1,2) (k-core) only")
    if view is None:
        view = build_view(graph, r, s)

    if algorithm == "fnd":
        stats = FndInstrumentation()
        start = time.perf_counter()
        peeling, hierarchy = fnd_decomposition(view, instrumentation=stats)
        total = time.perf_counter() - start
        post_s = min(stats.build_seconds, total)
        return Decomposition(graph, r, s, algorithm, peeling.lam, hierarchy,
                             view, total - post_s, post_s, fnd_stats=stats)

    start = time.perf_counter()
    peeling = peel(view)
    peel_s = time.perf_counter() - start

    start = time.perf_counter()
    hierarchy: Hierarchy | None
    if algorithm == "naive":
        hierarchy = naive_hierarchy(view, peeling)
    elif algorithm == "dft":
        hierarchy = dft_hierarchy(view, peeling)
    elif algorithm == "lcps":
        hierarchy = lcps_hierarchy(graph, peeling)
    else:  # hypo
        hypo_traversal(view, peeling)
        hierarchy = None
    post_s = time.perf_counter() - start

    return Decomposition(graph, r, s, algorithm, peeling.lam, hierarchy,
                         view, peel_s, post_s)
