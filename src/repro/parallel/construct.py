"""Level-wise hierarchy construction over settled λ values.

Once the frontier peel (:mod:`repro.parallel.bulk`) has settled every λ,
FND's sub-nucleus detection (paper Alg. 8/9) needs no traversal and no
dependence on pop order: it decomposes into independent **level-wise
connectivity** problems.

* An s-clique becomes *active* at level ``k`` when the minimum λ over
  its cells is ``k`` — it proves its cells mutually connected in every
  k'-(r,s) nucleus with ``k' <= k``.
* The k-sub-nuclei are the connected components of the λ >= ``k`` cells
  under the cliques active at level ``k`` or above.  Components formed
  at higher levels collapse to one super-node each: their current top.
* Processing levels in decreasing λ order, every level component becomes
  one skeleton node, and every higher top it touched becomes its child.
  After condensation this is exactly the nucleus tree of the extended
  peel + BuildHierarchy: node λ multiset, cell→nucleus map and parent
  structure (the parity suites assert it node for node).

A level is a handful of numpy passes per chunk of pairs.  The level-edge
kernels of :mod:`repro.parallel.kernels` list the active pairs a bounded
chunk at a time.  Higher cells map to their tops through a
path-compressed jump array, and
:func:`~repro.parallel.kernels.component_roots` hooks each chunk into the
level's labels by hooking and pointer jumping.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fnd import FndInstrumentation
from repro.core.hierarchy import Hierarchy
from repro.graph.csr import CSRGraph, run_bounds, stable_order
from repro.parallel.kernels import (
    component_roots,
    core_level_edges,
    incidence_level_edges,
)

__all__ = [
    "core_hierarchy_from_lambda",
    "hierarchy_from_lambda",
    "incidence_hierarchy_from_lambda",
]


def _tops(jump, nodes):
    """Current top of every skeleton node in ``nodes``.

    ``jump[x]`` points at some ancestor of ``x`` (-1: ``x`` is a top).
    The walk runs vectorised over all queries at once, and every node it
    passed is compressed straight to its top afterwards, so no chain of
    nested levels is ever walked twice.
    """
    top = nodes
    path = []
    while True:
        up = jump[top]
        moving = up >= 0
        if not moving.any():
            break
        path.append(top)
        top = np.where(moving, up, top)
    for visited in path:
        moved = visited != top
        jump[visited[moved]] = top[moved]
    return top


def _label_tops(top_label, tops, touched, width: int):
    """Label the tops in ``touched`` (one entry per occurrence) that the
    level has not labelled yet, and return them, one entry per top.

    ``tops`` holds the level's labelled tops, the ``j``-th at label
    ``width + j`` in ``top_label``; a slot of ``top_label`` is trusted
    only when ``tops`` reads its node back, so the scratch array needs
    no reset between levels.  Each new occurrence writes its position
    into its top's slot, and the occurrences that read their own
    position back (one per distinct top) take the next labels.
    """
    known = top_label[touched] - width
    inside = (known >= 0) & (known < len(tops))
    inside[inside] = tops[known[inside]] == touched[inside]
    new = touched[~inside]
    seat = np.arange(len(new), dtype=np.int64)
    top_label[new] = seat
    fresh = new[top_label[new] == seat]
    top_label[fresh] = width + len(tops) + seat[:len(fresh)]
    return fresh


def hierarchy_from_lambda(r: int, s: int, lam, edge_source,
                          instrumentation: FndInstrumentation | None = None,
                          ) -> Hierarchy:
    """Build the FND hierarchy from settled λ values, level by level.

    ``edge_source(frontier, k)`` yields the level's connectivity pairs
    in chunks, each an ``(a, b)`` pair of aligned arrays: ``a`` a
    frontier cell (λ = ``k``) owning an active s-clique, ``b`` a
    companion with λ >= ``k``.  Each level component becomes one
    skeleton node, a frontier cell untouched by any active clique a
    singleton one.

    A level labels its graph densely without sorting.  A frontier cell's
    label is its position in the frontier.  A higher companion stands for
    the current top of the component it joined, and the ``j``-th distinct
    top the level touches gets label ``len(frontier) + j``
    (:func:`_label_tops`).  Every chunk is hooked into one label
    array (:func:`~repro.parallel.kernels.component_roots`) over the
    frontier cells and the tops touched so far, so untouched cells come
    out as singleton components and need no pass of their own.  A
    component's root is its smallest label, always a frontier cell's
    (every top is touched through a pair with one), so the nodes do not
    depend on the chunking or on the order tops are labelled in.
    """
    lam = np.ascontiguousarray(lam, dtype=np.int64)
    size = len(lam)
    comp = np.full(size, -1, dtype=np.int64)
    # every node owns at least one cell, so size + 1 bounds the skeleton
    node_lambda = np.zeros(size + 1, dtype=np.int64)
    parent = np.full(size + 1, -1, dtype=np.int64)
    jump = np.full(size + 1, -1, dtype=np.int64)
    # scratch labels, per cell and per node; a level reads only what it
    # wrote itself
    cell_label = np.empty(size, dtype=np.int64)
    top_label = np.empty(size + 1, dtype=np.int64)
    nodes = 0
    downward = 0
    build_start = time.perf_counter()
    highest = int(lam.max(initial=0))
    # λ descending, cell id ascending
    order = stable_order(highest - lam, highest + 1)
    lam_sorted = lam[order]
    bounds = run_bounds(lam_sorted)
    for k, start, end in zip(lam_sorted[bounds[:-1]].tolist(),
                             bounds[:-1].tolist(), bounds[1:].tolist()):
        if k == 0:
            break  # λ = 0 cells belong to the root
        frontier = order[start:end]
        width = end - start
        label = np.arange(width, dtype=np.int64)
        cell_label[frontier] = label
        tops = np.empty(0, dtype=np.int64)
        for a, b in edge_source(frontier, k):
            label_b = cell_label[b]
            # higher cells stand for the top of the component they joined
            higher = comp[b] >= 0
            touched = _tops(jump, comp[b[higher]])  # one per occurrence
            fresh = _label_tops(top_label, tops, touched, width)
            label = np.concatenate((label, top_label[fresh]))
            tops = np.concatenate((tops, fresh))
            label_b[higher] = top_label[touched]
            label = component_roots(label, cell_label[a], label_b)
        # a component's root is its smallest label: number them in order
        is_root = label[:width] == np.arange(width)
        made = nodes + (np.cumsum(is_root) - 1)[label]
        first = nodes
        nodes += int(np.count_nonzero(is_root))
        node_lambda[first:nodes] = k
        comp[frontier] = made[:width]
        parent[tops] = made[width:]
        jump[tops] = made[width:]
        downward += len(tops)

    # number the nodes as the per-cell engines do — ascending λ, the root
    # last — so anything keyed by node id (a served index's node order)
    # reads the same nuclei in the same order; ties go to the smallest
    # own cell (every node owns at least one)
    owned = np.flatnonzero(comp >= 0)
    first_cell = np.full(nodes, size, dtype=np.int64)
    np.minimum.at(first_cell, comp[owned], owned)
    renumber = np.empty(nodes, dtype=np.int64)
    # the keys are distinct: no two nodes own the same cell
    renumber[np.argsort(node_lambda[:nodes] * size + first_cell)] = \
        np.arange(nodes)
    root = nodes
    comp[owned] = renumber[comp[owned]]
    comp[comp < 0] = root
    ordered_parent = np.full(nodes + 1, root, dtype=np.int64)
    ordered_parent[root] = -1
    linked = np.flatnonzero(parent[:nodes] >= 0)
    ordered_parent[renumber[linked]] = renumber[parent[linked]]
    ordered_lambda = np.zeros(nodes + 1, dtype=np.int64)
    ordered_lambda[renumber] = node_lambda[:nodes]
    if instrumentation is not None:
        instrumentation.num_subnuclei = nodes
        instrumentation.num_downward_connections = downward
        instrumentation.build_seconds = time.perf_counter() - build_start
    return Hierarchy(r, s, lam, ordered_lambda, ordered_parent, comp, root,
                     algorithm="fnd")


def core_hierarchy_from_lambda(
        csr: CSRGraph, lam,
        instrumentation: FndInstrumentation | None = None) -> Hierarchy:
    """(1,2) hierarchy from settled core numbers, adjacency-driven."""
    indptr, indices = csr.indptr, csr.indices
    lam = np.ascontiguousarray(lam, dtype=np.int64)

    def edge_source(frontier, k):
        return core_level_edges(indptr, indices, lam, frontier, k)

    return hierarchy_from_lambda(1, 2, lam, edge_source, instrumentation)


def incidence_hierarchy_from_lambda(
        r: int, s: int, lam, ptr, comps,
        instrumentation: FndInstrumentation | None = None) -> Hierarchy:
    """(2,3)/(3,4) hierarchy from settled λ over a materialised incidence."""
    comps = tuple(np.ascontiguousarray(c, dtype=np.int64) for c in comps)
    ptr = np.ascontiguousarray(ptr, dtype=np.int64)
    lam = np.ascontiguousarray(lam, dtype=np.int64)

    def edge_source(frontier, k):
        return incidence_level_edges(ptr, comps, lam, frontier, k)

    return hierarchy_from_lambda(r, s, lam, edge_source, instrumentation)
