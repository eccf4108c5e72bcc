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

A level is a handful of numpy passes.  The level-edge kernels of
:mod:`repro.parallel.kernels` list the active pairs.  Higher cells map to
their tops through a path-compressed jump array, and
:func:`~repro.parallel.kernels.component_roots` labels the level's
components by hooking and pointer jumping.

With a :class:`~repro.parallel.pool.WorkerPool`, each level's frontier is
sharded by incidence weight.  Workers scan their ranges zero-copy (the
incidence, λ and frontier arrays live in a
:class:`~repro.parallel.shm.SharedArrayBundle`) and send back one star per
component (:func:`~repro.parallel.kernels.spanning_forest_reduce`).  The
parent labels the union of the stars.  A star keeps its component's node
set, so every worker count builds the same skeleton, byte for byte.
Levels too small to amortise a pipe round-trip run the same kernels in
the parent (:data:`MIN_LEVEL_SLOTS`, mirroring the bulk peels).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.fnd import FndInstrumentation
from repro.core.hierarchy import Hierarchy
from repro.graph.csr import CSRGraph
from repro.parallel.kernels import (
    component_roots,
    core_level_edges,
    incidence_level_edges,
    weighted_cuts,
)

if TYPE_CHECKING:
    from repro.parallel.pool import WorkerPool
    from repro.parallel.shm import SharedArrayBundle

__all__ = [
    "MIN_LEVEL_SLOTS",
    "core_hierarchy_from_lambda",
    "hierarchy_from_lambda",
    "incidence_hierarchy_from_lambda",
]

#: levels touching fewer incidence slots than this are resolved by the
#: parent itself — like the bulk peels' ``MIN_SHARD_SLOTS``, the pipe
#: round-trip costs more than the scan for the long tail of tiny levels.
MIN_LEVEL_SLOTS = 32768


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


def hierarchy_from_lambda(r: int, s: int, lam, edge_source,
                          instrumentation: FndInstrumentation | None = None,
                          ) -> Hierarchy:
    """Build the FND hierarchy from settled λ values, level by level.

    ``edge_source(frontier, k)`` yields the level's connectivity pairs as
    a list of ``(a, b)`` array pairs: ``a`` a frontier cell (λ = ``k``)
    owning an active s-clique, ``b`` a companion with λ >= ``k``.  Each
    level component becomes one skeleton node, a frontier cell untouched
    by any active clique a singleton one.

    A level labels its graph densely without sorting.  A frontier cell's
    label is its position in the frontier.  A higher companion stands for
    the current top of the component it joined, and the ``j``-th distinct
    top gets label ``len(frontier) + j``: each occurrence writes its
    position into a scratch slot per node, and the occurrences that read
    their own position back (one per distinct top) take the labels.
    :func:`~repro.parallel.kernels.component_roots` then runs over all
    frontier cells and tops, so untouched cells come out as singleton
    components and need no pass of their own.
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
    order = np.argsort(-lam, kind="stable")  # λ descending, cell id ascending
    lam_sorted = lam[order]
    start = 0
    while start < size:
        k = int(lam_sorted[start])
        if k == 0:
            break  # λ = 0 cells belong to the root
        end = int(np.searchsorted(-lam_sorted, -k, side="right"))
        frontier = order[start:end]
        width = end - start
        cell_label[frontier] = np.arange(width, dtype=np.int64)
        parts = edge_source(frontier, k)
        a = np.concatenate([pair[0] for pair in parts])
        b = np.concatenate([pair[1] for pair in parts])
        label_b = cell_label[b]
        # higher cells stand for the top of the component they joined
        higher = comp[b] >= 0
        touched = _tops(jump, comp[b[higher]])  # one entry per occurrence
        seat = np.arange(len(touched), dtype=np.int64)
        top_label[touched] = seat
        tops = touched[top_label[touched] == seat]  # one occurrence per top
        top_label[tops] = width + np.arange(len(tops), dtype=np.int64)
        label_b[higher] = top_label[touched]
        roots = component_roots(cell_label[a], label_b, width + len(tops))
        # a component's root is its smallest label: number them in order
        is_root = roots == np.arange(len(roots))
        made = nodes + (np.cumsum(is_root) - 1)[roots]
        first = nodes
        nodes += int(np.count_nonzero(is_root))
        node_lambda[first:nodes] = k
        comp[frontier] = made[:width]
        parent[tops] = made[width:]
        jump[tops] = made[width:]
        downward += len(tops)
        start = end

    # number the nodes as the per-cell engines do — ascending λ, the root
    # last — so anything keyed by node id (a served index's node order)
    # reads the same nuclei in the same order; ties go to the smallest
    # own cell (every node owns at least one)
    owned = np.flatnonzero(comp >= 0)
    first_cell = np.full(nodes, size, dtype=np.int64)
    np.minimum.at(first_cell, comp[owned], owned)
    renumber = np.empty(nodes, dtype=np.int64)
    renumber[np.lexsort((first_cell, node_lambda[:nodes]))] = np.arange(nodes)
    root = nodes
    comp[owned] = renumber[comp[owned]]
    comp[comp < 0] = root
    ordered_parent = np.full(nodes + 1, root, dtype=np.int64)
    linked = np.flatnonzero(parent[:nodes] >= 0)
    ordered_parent[renumber[linked]] = renumber[parent[linked]]
    ordered_lambda = np.zeros(nodes + 1, dtype=np.int64)
    ordered_lambda[renumber] = node_lambda[:nodes]
    if instrumentation is not None:
        instrumentation.num_subnuclei = nodes
        instrumentation.num_downward_connections = downward
        instrumentation.build_seconds = time.perf_counter() - build_start
    parents: list[int | None] = ordered_parent.tolist()
    parents[root] = None
    return Hierarchy(r, s, lam.tolist(), ordered_lambda.tolist(), parents,
                     comp.tolist(), root, algorithm="fnd")


def _run_construction(r: int, s: int, lam, static: dict, weights,
                      task_prefix: tuple, local_edges,
                      pool: WorkerPool | None,
                      instrumentation: FndInstrumentation | None,
                      static_bundle: SharedArrayBundle | None) -> Hierarchy:
    """Shared driver: in-process (``pool=None``) or worker-sharded.

    ``static_bundle`` may hand in the static arrays already shared (the
    FND pipeline shares the adjacency/incidence once across its peel and
    construction phases); otherwise ``static`` is exported — and freed —
    here.  Only the small per-construction state (λ plus the frontier
    buffer) is ever exported twice.
    """
    lam = np.ascontiguousarray(lam, dtype=np.int64)
    if pool is None:
        def edge_source(frontier, k):
            return [local_edges(lam, frontier, k)]

        return hierarchy_from_lambda(r, s, lam, edge_source, instrumentation)

    from repro.parallel.shm import SharedArrayBundle

    owned = static_bundle is None
    if owned:
        static_bundle = SharedArrayBundle.create(static)
    try:
        state = {"lam": lam,
                 "level_frontier": np.zeros(len(lam), dtype=np.int64)}
        with SharedArrayBundle.create(state) as bundle:
            pool.bind([static_bundle.spec, bundle.spec])
            try:
                frontier_buf = bundle["level_frontier"]

                def edge_source(frontier, k):
                    level_weights = weights[frontier]
                    if int(level_weights.sum()) < MIN_LEVEL_SLOTS:
                        return [local_edges(lam, frontier, k)]
                    frontier_buf[:len(frontier)] = frontier
                    cuts = weighted_cuts(level_weights, pool.workers)
                    return pool.scatter(
                        [task_prefix + (k, lo, hi)
                         for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)])

                return hierarchy_from_lambda(r, s, lam, edge_source,
                                             instrumentation)
            finally:
                pool.unbind()
    finally:
        if owned:
            static_bundle.unlink()


def core_hierarchy_from_lambda(
        csr: CSRGraph, lam, pool: WorkerPool | None = None,
        instrumentation: FndInstrumentation | None = None,
        static_bundle: SharedArrayBundle | None = None) -> Hierarchy:
    """(1,2) hierarchy from settled core numbers, adjacency-driven.

    With a pool, ``static_bundle`` may hand in the
    :class:`~repro.parallel.shm.SharedArrayBundle` already exporting
    ``indptr`` / ``indices``, so the adjacency is exported once per
    pipeline.
    """
    indptr, indices = csr.indptr, csr.indices

    def local_edges(lam_arr, frontier, k):
        return core_level_edges(indptr, indices, lam_arr, frontier, k)

    return _run_construction(
        1, 2, lam, {"indptr": indptr, "indices": indices}, np.diff(indptr),
        ("core-level",), local_edges, pool, instrumentation, static_bundle)


def incidence_hierarchy_from_lambda(
        r: int, s: int, lam, ptr, comps,
        pool: WorkerPool | None = None,
        instrumentation: FndInstrumentation | None = None,
        static_bundle: SharedArrayBundle | None = None) -> Hierarchy:
    """(2,3)/(3,4) hierarchy from settled λ over a materialised incidence.

    ``static_bundle`` may hand in an already-shared ``ptr``/``c1..cN``
    bundle covering the same incidence (see
    :func:`core_hierarchy_from_lambda`).
    """
    comps = tuple(np.ascontiguousarray(c, dtype=np.int64) for c in comps)
    ptr = np.ascontiguousarray(ptr, dtype=np.int64)

    def local_edges(lam_arr, frontier, k):
        return incidence_level_edges(ptr, comps, lam_arr, frontier, k)

    static = {"ptr": ptr}
    for i, comp in enumerate(comps):
        static[f"c{i + 1}"] = comp
    return _run_construction(
        r, s, lam, static, np.diff(ptr), ("inc-level", len(comps)),
        local_edges, pool, instrumentation, static_bundle)
