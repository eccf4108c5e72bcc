"""k-core conveniences built on the (1,2) decomposition.

The paper is careful to distinguish the *peeling* output (core numbers λ₂)
from the *k-core decomposition* proper, whose k-cores are **connected**
maximal subgraphs of minimum degree k (Seidman 1983; Matula & Beck 1983).
This module exposes both:

* :func:`core_numbers` — λ₂ per vertex (what most libraries call k-core);
* :func:`k_core` — vertex sets of the *connected* k-cores;
* :func:`k_core_subgraph` — the classic (possibly disconnected) closure,
  for comparison with the Batagelj–Zaversnik convention;
* :func:`degeneracy` / :func:`degeneracy_ordering` — from the peeling order;
* :func:`core_hierarchy` — the full hierarchy via any algorithm;
* :func:`shells` — the k-shells (vertices with λ₂ exactly k).
"""

from __future__ import annotations

from repro.backends import core_peel, decompose
from repro.core.decomposition import Decomposition
from repro.graph.adjacency import Graph
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph

__all__ = [
    "core_numbers",
    "degeneracy",
    "degeneracy_ordering",
    "k_core",
    "k_core_subgraph",
    "shells",
    "core_hierarchy",
]


def core_numbers(graph: Graph | CSRGraph,
                 backend: str | None = None,
                 workers: int | None = None) -> list[int]:
    """λ₂ (max k-core number) of every vertex.

    ``backend=None`` picks the engine matching the representation passed
    in; name one explicitly to force a conversion.  ``workers`` is
    validated on every backend; (1,2) lists no cliques, so no engine
    threads it.
    """
    return core_peel(graph, backend, workers).lam


def degeneracy(graph: Graph | CSRGraph, backend: str | None = None,
               workers: int | None = None) -> int:
    """The graph's degeneracy: the largest core number."""
    return core_peel(graph, backend, workers).max_lambda


def degeneracy_ordering(graph: Graph | CSRGraph,
                        backend: str | None = None,
                        workers: int | None = None) -> list[int]:
    """Vertices in peeling order (a degeneracy / smallest-last ordering)."""
    return core_peel(graph, backend, workers).order


def k_core(graph: Graph, k: int, lam: list[int] | None = None) -> list[list[int]]:
    """All *connected* k-cores, each as a sorted vertex list.

    This is Seidman's definition: maximal connected subgraphs of minimum
    degree >= k.  Multiple components with λ₂ >= k yield multiple k-cores
    (the paper's Figure 2 situation).
    """
    if lam is None:
        lam = core_numbers(graph)
    keep = {v for v in graph.vertices() if lam[v] >= k}
    if not keep:
        return []
    sub = graph.subgraph(keep, relabel=False)
    # relabel=False keeps all n vertices; dropped ones appear as singleton
    # components of the induced subgraph and must be filtered back out.
    return [c for c in connected_components(sub) if c[0] in keep]


def k_core_subgraph(graph: Graph, k: int, lam: list[int] | None = None) -> Graph:
    """The (possibly disconnected) induced subgraph on {v : λ₂(v) >= k}.

    This is the Batagelj–Zaversnik convention most libraries implement; the
    paper points out it conflates several of Seidman's k-cores into one.
    Vertex ids are preserved (not relabelled).
    """
    if lam is None:
        lam = core_numbers(graph)
    return graph.subgraph([v for v in graph.vertices() if lam[v] >= k],
                          relabel=False)


def shells(graph: Graph, lam: list[int] | None = None) -> dict[int, list[int]]:
    """k-shells: vertices whose core number is exactly k, keyed by k."""
    if lam is None:
        lam = core_numbers(graph)
    out: dict[int, list[int]] = {}
    for v, value in enumerate(lam):
        out.setdefault(value, []).append(v)
    return out


def core_hierarchy(graph: Graph | CSRGraph, algorithm: str = "lcps",
                   backend: str | None = None,
                   workers: int | None = None) -> Decomposition:
    """Full connected-k-core hierarchy (paper's (1,2) decomposition).

    Defaults to LCPS, the paper's fastest (1,2) algorithm (Table 4).
    Routes through :func:`repro.backends.decompose`, so ``backend=`` and
    ``workers=`` behave exactly as on every other entry point.
    """
    return decompose(graph, 1, 2, algorithm=algorithm,
                     backend=backend, workers=workers)
