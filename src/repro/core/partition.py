"""Component-wise decomposition: split, decompose, merge hierarchies.

The paper's closing remark points at parallel peeling as future work.  The
embarrassingly-parallel slice of that is by connected component: nuclei
never span components, so each component's hierarchy can be built
independently and grafted under a single shared root.  This module
implements the split/merge machinery (and optional process-based
parallelism); the merged result is bit-identical in meaning to a
whole-graph run, which the tests assert via canonical nucleus families.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.decomposition import Decomposition, nucleus_decomposition
from repro.core.hierarchy import Hierarchy
from repro.core.views import build_view
from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.components import connected_components

__all__ = ["decompose_by_components", "merge_hierarchies"]


def merge_hierarchies(parts: Sequence[tuple[Hierarchy, list[int]]],
                      r: int, s: int, num_cells: int,
                      algorithm: str = "merged") -> Hierarchy:
    """Merge per-component hierarchies into one over the full cell space.

    ``parts`` pairs each component hierarchy with ``cell_map``, the list
    translating that component's local cell ids to global ones.  Each
    component's skeleton is copied under a fresh shared root; component
    roots themselves are dropped (they were per-component placeholders).
    """
    node_lambda: list[int] = []
    parent: list[int | None] = []
    lam = [0] * num_cells
    comp = [-1] * num_cells
    pending_root: list[int] = []

    for hierarchy, cell_map in parts:
        if len(cell_map) != hierarchy.num_cells:
            raise InvalidParameterError(
                "cell_map size does not match the component hierarchy")
        offset = len(node_lambda)
        local_root = hierarchy.root
        # copy nodes except the local root, remembering the id shift
        shifted: dict[int, int] = {}
        for node in range(hierarchy.num_nodes):
            if node == local_root:
                continue
            shifted[node] = offset + len(shifted)
        for node in range(hierarchy.num_nodes):
            if node == local_root:
                continue
            node_lambda.append(hierarchy.node_lambda[node])
            par = hierarchy.parent[node]
            if par is None or par == local_root:
                parent.append(None)  # grafted to the global root later
                pending_root.append(shifted[node])
            else:
                parent.append(shifted[par])
        for local_cell, global_cell in enumerate(cell_map):
            lam[global_cell] = hierarchy.lam[local_cell]
            node = hierarchy.comp[local_cell]
            comp[global_cell] = shifted[node] if node != local_root else -1

    root = len(node_lambda)
    node_lambda.append(0)
    parent.append(None)
    for node in pending_root:
        parent[node] = root
    for cell in range(num_cells):
        if comp[cell] == -1:
            comp[cell] = root
    return Hierarchy(r, s, lam, node_lambda, parent, comp, root,
                     algorithm=algorithm)


def _component_cell_map(graph: Graph, component: list[int], sub: Graph,
                        r: int, s: int) -> list[int]:
    """Global cell ids for each local cell of the component subgraph."""
    if r == 1:
        return list(component)
    back = {i: v for i, v in enumerate(component)}
    view = build_view(sub, r, s)
    global_view = build_view(graph, r, s)
    # map by vertex tuples; build a lookup from tuple -> global cell id
    global_ids = {tuple(global_view.cell_vertices(c)): c
                  for c in range(global_view.num_cells)}
    out = []
    for cell in range(view.num_cells):
        vertices = tuple(sorted(back[v] for v in view.cell_vertices(cell)))
        out.append(global_ids[vertices])
    return out


def decompose_by_components(graph: Graph, r: int = 1, s: int = 2,
                            algorithm: str = "fnd",
                            processes: int | None = None) -> Decomposition:
    """Decompose each connected component separately and merge.

    With ``processes`` > 1 components are decomposed in a process pool
    (fork-based; falls back to sequential execution where the platform
    has no fork start method).  Equivalent to a whole-graph run — useful
    when the input is a union of many archives/snapshots, and a building
    block for the parallel peeling the paper leaves as future work.
    """
    import multiprocessing as mp

    components = connected_components(graph)
    jobs = [(graph.subgraph(component), component) for component in components]

    if (processes and processes > 1 and len(jobs) > 1
            and "fork" in mp.get_all_start_methods()):
        with mp.get_context("fork").Pool(processes) as pool:
            results = pool.starmap(
                _decompose_subgraph, [(sub, r, s, algorithm) for sub, _ in jobs])
    else:
        results = [_decompose_subgraph(sub, r, s, algorithm)
                   for sub, _ in jobs]

    global_view = build_view(graph, r, s)
    parts = []
    peel_s = post_s = 0.0
    for (sub, component), result in zip(jobs, results, strict=True):
        assert result.hierarchy is not None
        cell_map = _component_cell_map(graph, component, sub, r, s)
        parts.append((result.hierarchy, cell_map))
        peel_s += result.peel_seconds
        post_s += result.post_seconds
    merged = merge_hierarchies(parts, r, s, global_view.num_cells,
                               algorithm=f"{algorithm}+components")
    return Decomposition(graph, r, s, f"{algorithm}+components", merged.lam,
                         merged, global_view, peel_s, post_s)


def _decompose_subgraph(sub: Graph, r: int, s: int,
                        algorithm: str) -> Decomposition:
    return nucleus_decomposition(sub, r, s, algorithm=algorithm)
