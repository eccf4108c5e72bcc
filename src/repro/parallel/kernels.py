"""Per-round decrement kernels and per-level connectivity kernels.

Pure numpy over flat int64 arrays, no graph objects, no mutation of their
inputs (bar the label array :func:`component_roots` hooks into):
:mod:`repro.parallel.bulk` calls the decrement kernels on each round's
whole frontier, and :mod:`repro.parallel.construct` calls the level-edge
kernels and :func:`component_roots` on each λ level.  The level-edge
kernels yield a level's pairs in chunks of at most
``_LEVEL_CHUNK_SLOTS`` adjacency or incidence slots, so a level's
working arrays stay that size however many slots its frontier owns.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import run_slots as _gather_slots

__all__ = [
    "component_roots",
    "core_decrement",
    "core_level_edges",
    "incidence_decrement",
    "incidence_level_edges",
]


_EMPTY = np.empty(0, dtype=np.int64)

#: slots a level-edge kernel gathers per chunk of pairs it yields
_LEVEL_CHUNK_SLOTS = 1 << 16


def _pieces(cells, starts, ends) -> Iterator[tuple]:
    """The runs ``[starts[i], ends[i])`` of ``cells`` cut into pieces of
    at most ``_LEVEL_CHUNK_SLOTS`` slots, in order: yields ``(cells,
    starts, ends)`` of each piece.  A run longer than a piece is cut
    across several."""
    budget = _LEVEL_CHUNK_SLOTS
    run_end = np.cumsum(ends - starts)  # slot offset past each run
    total = int(run_end[-1]) if len(run_end) else 0
    for lo in range(0, total, budget):
        hi = min(lo + budget, total)
        first = int(np.searchsorted(run_end, lo, "right"))
        last = int(np.searchsorted(run_end, hi - 1, "right")) + 1
        piece_starts = starts[first:last].copy()
        piece_ends = ends[first:last].copy()
        piece_starts[0] = ends[first] - (run_end[first] - lo)
        piece_ends[-1] -= run_end[last - 1] - hi
        yield cells[first:last], piece_starts, piece_ends


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


def core_level_edges(indptr, indices, lam, frontier, k) -> Iterator[tuple]:
    """Level-``k`` connectivity pairs of a (1,2) λ frontier, in chunks.

    ``frontier`` holds vertices with λ = ``k``.  An edge connects two
    sub-nuclei at level ``k`` exactly when its minimum endpoint λ is
    ``k``; the minimum-id λ = ``k`` endpoint *owns* the edge so each one
    is emitted by exactly one frontier cell.  Yields aligned ``(a, b)``
    arrays with ``a`` the owning frontier vertex and λ(b) >= ``k``, one
    pair per chunk of at most ``_LEVEL_CHUNK_SLOTS`` adjacency slots.
    """
    for piece in _pieces(frontier, indptr[frontier], indptr[frontier + 1]):
        yield _core_pairs(indices, lam, k, *piece)


def _core_pairs(indices, lam, k, cells, starts, ends) -> tuple:
    """:func:`core_level_edges` over one piece of the frontier's runs
    (its gathers are freed before the consumer hooks the pairs)."""
    slots, counts = _gather_slots(starts, ends)
    cell = np.repeat(cells, counts)
    neighbor = indices[slots]
    nl = lam[neighbor]
    keep = (nl > k) | ((nl == k) & (neighbor > cell))
    return cell[keep], neighbor[keep]


def incidence_level_edges(ptr, comps, lam, frontier, k) -> Iterator[tuple]:
    """Level-``k`` connectivity pairs of a (2,3)/(3,4) λ frontier, in
    chunks.

    Walks the materialised incidence of every frontier cell (all λ =
    ``k``).  An s-clique becomes *active* at level ``k`` when the
    minimum λ over its cells is ``k``; its minimum-id λ = ``k`` cell
    owns it and emits one ``(owner, companion)`` pair per companion —
    a star, so the clique's cells land in one component.  Companions
    with λ < ``k`` kill the slot (the clique activated at a lower
    level); a λ = ``k`` companion with a smaller id means another
    frontier cell owns it.  Yields the pairs of at most
    ``_LEVEL_CHUNK_SLOTS`` incidence slots at a time.
    """
    for piece in _pieces(frontier, ptr[frontier], ptr[frontier + 1]):
        yield _incidence_pairs(comps, lam, k, *piece)


def _incidence_pairs(comps, lam, k, cells, starts, ends) -> tuple:
    """:func:`incidence_level_edges` over one piece of the frontier's
    runs."""
    slots, counts = _gather_slots(starts, ends)
    cell_of_slot = np.repeat(cells, counts)
    companions = [c[slots] for c in comps]
    keep = np.ones(len(slots), dtype=bool)
    for comp in companions:
        cl = lam[comp]
        keep &= cl >= k
        keep &= (cl != k) | (comp > cell_of_slot)
    owner = cell_of_slot[keep]
    return (np.concatenate([owner] * len(companions)),
            np.concatenate([comp[keep] for comp in companions]))


def component_roots(label, x, y):
    """``label`` with the pairs ``(x, y)`` hooked in: every node's root.

    ``label[v]`` is the root of node ``v``'s component, its smallest
    node (``np.arange(size)``: no pairs yet).  Hooking and pointer
    jumping (Shiloach–Vishkin style) in numpy: each round hooks the
    larger root of every pair whose roots differ under the smaller one,
    then jumps pointers until every node points at its root again.  A
    component that hooks nowhere in one round has a neighbour hooked
    below it by the next, so the unresolved pairs die out after
    O(log size) rounds.  The hooks write into ``label``; the caller
    keeps the returned array, so a level can hook its pairs chunk by
    chunk into one label array.
    """
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
