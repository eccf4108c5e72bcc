"""Per-round decrement kernels and shard planning for the bulk peels.

These are the functions the worker processes actually execute: pure
numpy over flat int64 arrays (attached shared memory or local, they
cannot tell), no graph objects, no mutation of anything but the caller's
output buffer.  The round-synchronous drivers in
:mod:`repro.parallel.bulk` call them on the whole frontier in-process, or
shard the frontier across workers and sum the partial counts — addition
commutes, so the merged decrement vector is identical for every worker
count.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import run_slots as _gather_slots

__all__ = [
    "component_roots",
    "core_decrement",
    "core_level_edges",
    "incidence_decrement",
    "incidence_level_edges",
    "spanning_forest_reduce",
    "weighted_cuts",
]


_EMPTY = np.empty(0, dtype=np.int64)


def core_decrement(indptr, indices, peel_round, frontier):
    """Degree losses caused by peeling ``frontier``: ``(targets, counts)``.

    A still-alive vertex (``peel_round < 0``) loses one degree for every
    frontier neighbour; frontier members themselves and vertices peeled in
    earlier rounds are already out of the graph.  One gather + one
    ``unique`` — the parallel analogue of the inner loop of the sequential
    Batagelj–Zaversnik peel.  Sparse output keeps a round's cost
    proportional to the cells it actually touches, not the graph size.
    """
    slots, _ = _gather_slots(indptr[frontier], indptr[frontier + 1])
    if len(slots) == 0:
        return _EMPTY, _EMPTY
    neighbors = indices[slots]
    alive = peel_round[neighbors] < 0
    return np.unique(neighbors[alive], return_counts=True)


def incidence_decrement(ptr, comps, peel_round, frontier, rnd):
    """Support losses caused by peeling ``frontier``: ``(targets, counts)``.

    Walks the materialised incidence of every frontier cell.  An s-clique
    is *spent* the first time one of its cells is peeled, so each one must
    decrement its surviving cells exactly once across the whole round:

    * any companion peeled in an **earlier** round (``0 <= peel_round <
      rnd``) means the clique was already spent — skip it entirely;
    * among the frontier cells of a clique, only the minimum-id one owns
      it (the others skip), mirroring the sequential rule that whichever
      same-λ cell pops first spends the clique;
    * the owner decrements exactly the companions that are still alive
      (``peel_round < 0``).
    """
    slots, counts = _gather_slots(ptr[frontier], ptr[frontier + 1])
    if len(slots) == 0:
        return _EMPTY, _EMPTY
    cell_of_slot = np.repeat(frontier, counts)
    companions = [c[slots] for c in comps]
    rounds = [peel_round[c] for c in companions]
    spent = np.zeros(len(slots), dtype=bool)
    owner = np.ones(len(slots), dtype=bool)
    for comp, comp_round in zip(companions, rounds, strict=True):
        spent |= (comp_round >= 0) & (comp_round < rnd)
        in_frontier = comp_round == rnd
        owner &= ~in_frontier | (cell_of_slot < comp)
    live = ~spent & owner
    hit = [comp[live & (comp_round < 0)]
           for comp, comp_round in zip(companions, rounds, strict=True)]
    hit = [h for h in hit if len(h)]
    if not hit:
        return _EMPTY, _EMPTY
    return np.unique(np.concatenate(hit) if len(hit) > 1 else hit[0],
                     return_counts=True)


def core_level_edges(indptr, indices, lam, frontier, k):
    """Level-``k`` connectivity pairs of a (1,2) frontier shard.

    ``frontier`` holds vertices with λ = ``k``.  An edge connects two
    sub-nuclei at level ``k`` exactly when its minimum endpoint λ is
    ``k``; the minimum-id λ = ``k`` endpoint *owns* the edge so each one
    is emitted by exactly one frontier cell (and hence exactly one
    worker, whatever the sharding).  Returns aligned ``(a, b)`` arrays
    with ``a`` the owning frontier vertex and λ(b) >= ``k``.
    """
    slots, counts = _gather_slots(indptr[frontier], indptr[frontier + 1])
    if len(slots) == 0:
        return _EMPTY, _EMPTY
    cell = np.repeat(frontier, counts)
    neighbor = indices[slots]
    nl = lam[neighbor]
    keep = (nl > k) | ((nl == k) & (neighbor > cell))
    return cell[keep], neighbor[keep]


def incidence_level_edges(ptr, comps, lam, frontier, k):
    """Level-``k`` connectivity pairs of a (2,3)/(3,4) frontier shard.

    Walks the materialised incidence of every frontier cell (all λ =
    ``k``).  An s-clique becomes *active* at level ``k`` when the
    minimum λ over its cells is ``k``; its minimum-id λ = ``k`` cell
    owns it and emits one ``(owner, companion)`` pair per companion —
    a star, so the clique's cells land in one component.  Companions
    with λ < ``k`` kill the slot (the clique activated at a lower
    level); a λ = ``k`` companion with a smaller id means another
    frontier cell owns it.
    """
    slots, counts = _gather_slots(ptr[frontier], ptr[frontier + 1])
    if len(slots) == 0:
        return _EMPTY, _EMPTY
    cell_of_slot = np.repeat(frontier, counts)
    companions = [c[slots] for c in comps]
    keep = np.ones(len(slots), dtype=bool)
    for comp in companions:
        cl = lam[comp]
        keep &= cl >= k
        keep &= (cl != k) | (comp > cell_of_slot)
    if not keep.any():
        return _EMPTY, _EMPTY
    owner = cell_of_slot[keep]
    a = np.concatenate([owner] * len(companions))
    b = np.concatenate([comp[keep] for comp in companions])
    return a, b


def component_roots(x, y, size: int):
    """Component label of every node ``0 .. size-1`` under pairs ``(x, y)``.

    Hooking and pointer jumping (Shiloach–Vishkin style) in numpy: each
    round hooks the larger root of every pair whose roots differ under
    the smaller one, then jumps pointers until every node points at its
    root.  A component that hooks nowhere in one round has a neighbour
    hooked below it by the next, so the unresolved pairs die out after
    O(log size) rounds.  The label of a component is its smallest node.
    """
    label = np.arange(size, dtype=np.int64)
    while len(x):
        lx = label[x]
        ly = label[y]
        differ = lx != ly
        if not differ.any():
            break
        x, y, lx, ly = x[differ], y[differ], lx[differ], ly[differ]
        np.minimum.at(label, np.maximum(lx, ly), np.minimum(lx, ly))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def spanning_forest_reduce(a, b):
    """Reduce union pairs to one star per connected component.

    The worker-side compression step of the parallel hierarchy
    construction: the pairs' components are labelled with
    :func:`component_roots`, and each component comes back as a star
    centred on its smallest owner (a value of ``a``) — ``nodes −
    components`` pairs, usually a tiny fraction of the raw pair count.
    Every pair keeps an owner first, the orientation the parent's level
    merge reads; the output is sorted by the non-centre node, so it is
    deterministic.
    """
    if len(a) == 0:
        return _EMPTY, _EMPTY
    nodes, inverse = np.unique(np.concatenate((a, b)), return_inverse=True)
    owners = inverse[:len(a)]
    root = component_roots(owners, inverse[len(a):], len(nodes))
    centre = np.full(len(nodes), len(nodes), dtype=np.int64)
    np.minimum.at(centre, root[owners], owners)
    hub = centre[root]
    leaf = np.flatnonzero(hub != np.arange(len(nodes)))
    return nodes[hub[leaf]], nodes[leaf]


def weighted_cuts(weights, parts: int) -> list[int]:
    """Boundaries splitting ``weights`` into ``parts`` ~equal-sum ranges.

    Returns ``parts + 1`` ascending indices (first 0, last ``len``); empty
    ranges are fine — a worker handed one just zeroes its buffer.
    """
    count = len(weights)
    if count == 0 or parts <= 1:
        return [0] + [count] * max(parts, 1)
    cum = np.concatenate(([0], np.cumsum(weights)))
    if cum[-1] == 0:  # no weight signal: split by count
        bounds = np.linspace(0, count, parts + 1).astype(np.int64).tolist()
    else:
        targets = np.linspace(0, int(cum[-1]), parts + 1)[1:-1]
        bounds = [0, *np.searchsorted(cum, targets).tolist(), count]
    for i in range(1, len(bounds)):
        if bounds[i] < bounds[i - 1]:
            bounds[i] = bounds[i - 1]
    return bounds
