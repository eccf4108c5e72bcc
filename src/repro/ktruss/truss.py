"""k-truss decompositions in all the flavours the literature confused.

Section 3.2 of the paper traces four inequivalent definitions; this module
implements each one so the differences (paper Figure 3) are executable:

* **k-dense / triangle k-core** (Saito et al.; Zhang & Parthasarathy): the
  maximal subgraph in which every edge is in >= k-2 triangles.  *No*
  connectivity requirement — one possibly-disconnected subgraph.
* **k-truss / k-community** (Cohen; Verma & Butenko): same degree condition
  but each output is a connected component (vertex connectivity).
* **k-truss community** (Huang et al.) = the (k-2)-(2,3) nucleus: edges must
  additionally be *triangle-connected* — adjacent communities sharing only a
  vertex are split apart.

Parameter convention: these functions take the literature's ``k``
(each edge in >= k-2 triangles).  The paper's λ₃ values count raw triangles;
``trussness = λ₃ + 2``.  Both are available from :func:`truss_numbers`.
"""

from __future__ import annotations

from collections import deque

from repro.backends import decompose, truss_peel
from repro.core.decomposition import Decomposition
from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph

__all__ = [
    "truss_numbers",
    "max_trussness",
    "k_dense_edges",
    "k_dense",
    "k_truss",
    "truss_communities",
    "truss_hierarchy",
]


def truss_numbers(graph: Graph | CSRGraph, convention: str = "nucleus",
                  backend: str | None = None,
                  workers: int | None = None) -> list[int]:
    """Per-edge truss values, indexed by edge id.

    ``convention="nucleus"`` returns λ₃ (max triangles-per-edge level, the
    paper's numbers); ``convention="truss"`` returns λ₃ + 2 (Cohen/Huang's
    trussness, where a single triangle is a 3-truss).  Edge ids are
    lexicographic on both backends, so the array is backend-independent;
    ``backend=None`` picks the engine matching the representation passed in;
    ``workers`` threads the ``csr`` backend's triangle listing.
    """
    lam = truss_peel(graph, backend=backend, workers=workers).lam
    if convention == "nucleus":
        return lam
    if convention == "truss":
        return [value + 2 for value in lam]
    raise InvalidParameterError(
        f"convention must be 'nucleus' or 'truss', got {convention!r}")


def max_trussness(graph: Graph | CSRGraph,
                  backend: str | None = None,
                  workers: int | None = None) -> int:
    """Largest trussness in the graph (truss convention; 2 if triangle-free)."""
    return max(truss_numbers(graph, convention="truss", backend=backend,
                             workers=workers),
               default=2)


def k_dense_edges(graph: Graph, k: int, lam: list[int] | None = None) -> list[int]:
    """Edge ids of the k-dense subgraph (every edge in >= k-2 triangles).

    The maximal subgraph satisfying the condition is exactly the set of
    edges with λ₃ >= k-2, so a single peeling answers all k.
    """
    if lam is None:
        lam = truss_numbers(graph)
    threshold = k - 2
    if threshold <= 0:
        return list(range(len(lam)))  # every edge is in >= 0 triangles
    return [e for e, value in enumerate(lam) if value >= threshold]


def k_dense(graph: Graph, k: int, lam: list[int] | None = None) -> Graph:
    """The k-dense subgraph as one (possibly disconnected) graph.

    Vertex ids are preserved.  This is Saito's k-dense / Zhang's triangle
    (k-2)-core: the union of all k-trusses, connectivity ignored.
    """
    return graph.edge_subgraph(k_dense_edges(graph, k, lam))


def k_truss(graph: Graph, k: int, lam: list[int] | None = None) -> list[list[int]]:
    """Cohen-style k-trusses: *vertex-connected* components of the k-dense
    subgraph, each returned as a sorted list of edge ids."""
    edge_ids = k_dense_edges(graph, k, lam)
    index = graph.edge_index
    incident: dict[int, list[int]] = {}
    for e in edge_ids:
        u, v = index.endpoints(e)
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    seen: set[int] = set()
    out: list[list[int]] = []
    for e0 in edge_ids:
        if e0 in seen:
            continue
        comp = [e0]
        seen.add(e0)
        queue = deque([e0])
        while queue:
            e = queue.popleft()
            for vertex in index.endpoints(e):
                for other in incident[vertex]:
                    if other not in seen:
                        seen.add(other)
                        comp.append(other)
                        queue.append(other)
        out.append(sorted(comp))
    return out


def truss_communities(graph: Graph, k: int,
                      decomposition: Decomposition | None = None) -> list[list[int]]:
    """Huang-style k-truss communities: the maximal (k-2)-(2,3) nuclei.

    Edges must be triangle-connected through triangles whose three edges all
    meet the trussness threshold.  Each community is a sorted edge-id list.
    Reuses a previous :func:`truss_hierarchy` result when provided.
    """
    if decomposition is None:
        decomposition = truss_hierarchy(graph)
    hierarchy = decomposition.hierarchy
    assert hierarchy is not None
    tree = hierarchy.condense()
    level = k - 2
    out: list[list[int]] = []
    for node in tree.nodes:
        if node.k >= level and node.k >= 1:
            parent = node.parent
            parent_k = tree[parent].k if parent is not None else -1
            if parent_k < level:  # maximal at this threshold
                out.append(sorted(tree.subtree_cells(node.id)))
    return out


def truss_hierarchy(graph: Graph | CSRGraph, algorithm: str = "fnd",
                    backend: str | None = None,
                    workers: int | None = None) -> Decomposition:
    """Full (2,3) nucleus hierarchy (k-truss community hierarchy).

    Routes through :func:`repro.backends.decompose`, so ``backend=`` and
    ``workers=`` behave exactly as on every other entry point.
    """
    return decompose(graph, 2, 3, algorithm=algorithm,
                     backend=backend, workers=workers)
