"""The per-round decrement kernel and the per-level connectivity kernels.

Pure numpy over flat int64 arrays, no graph objects, no mutation of their
inputs (bar the label array :func:`component_roots` hooks into).  Both
incidence kernels read a cell→s-clique incidence ``(ptr, comps)`` of any
(r, s) (:func:`repro.core.csr_peel.incidence_arrays`; at (1,2) it is the
adjacency, one companion column): :mod:`repro.parallel.bulk` calls
:func:`incidence_decrement` on each round's whole frontier, and
:mod:`repro.parallel.construct` calls :func:`incidence_level_edges` and
:func:`component_roots` on each λ level.  The level-edge kernel yields a
level's pairs in chunks of at most ``_LEVEL_CHUNK_SLOTS`` incidence
slots, so a level's working arrays stay that size however many slots
its frontier owns.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import run_slots as _gather_slots

__all__ = [
    "component_roots",
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


def _joined(parts: list):
    """``parts`` concatenated; a single part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def incidence_decrement(ptr, comps, peel_round, frontier, rnd):
    """Support losses caused by peeling ``frontier`` in round ``rnd``:
    ``(targets, counts)``.

    Walks the incidence slots of every frontier cell.  An s-clique is
    *spent* the first time one of its cells is peeled, so it decrements
    each surviving cell exactly once across the whole round.  A companion
    loses one for a slot when it is still alive (``peel_round < 0``) and
    no *other* companion of the slot

    * was peeled in an **earlier** round (``0 <= peel_round < rnd``):
      the clique was already spent; or
    * owns the clique: it is in this round's frontier with a smaller id
      than the slot's cell, mirroring the sequential rule that whichever
      same-λ cell pops first spends the clique.

    A live companion does neither, so with one column — (1,2), whose
    incidence is the adjacency — there is no other companion to check: a
    vertex loses one degree per frontier neighbour, and no slot needs
    its cell.  A gather per column and one ``unique`` — the parallel
    analogue of the sequential peel's inner loop; the sparse output keeps
    a round's cost proportional to the slots it walks.
    """
    slots, counts = _gather_slots(ptr[frontier], ptr[frontier + 1])
    if len(slots) == 0:
        return _EMPTY, _EMPTY
    companions = [c[slots] for c in comps]
    rounds = [peel_round[c] for c in companions]
    keep = [comp_round < 0 for comp_round in rounds]
    if len(comps) > 1:
        # a live companion never spends or owns the clique, so one mask
        # over every column tests exactly each live companion's others
        cell_of_slot = np.repeat(frontier, counts)
        clear = np.ones(len(slots), dtype=bool)
        for comp, comp_round, alive in zip(companions, rounds, keep,
                                           strict=True):
            clear &= alive | ((comp_round == rnd) & (comp > cell_of_slot))
        keep = [alive & clear for alive in keep]
    hit = [comp[alive] for comp, alive in zip(companions, keep, strict=True)]
    hit = [h for h in hit if len(h)]
    if not hit:
        return _EMPTY, _EMPTY
    return np.unique(_joined(hit), return_counts=True)


def incidence_level_edges(ptr, comps, lam, frontier, k) -> Iterator[tuple]:
    """Level-``k`` connectivity pairs of a λ frontier, in chunks.

    Walks the incidence slots of every frontier cell (all λ = ``k``).
    An s-clique becomes *active* at level ``k`` when the minimum λ over
    its cells is ``k``; its minimum-id λ = ``k`` cell owns it and emits
    one ``(owner, companion)`` pair per companion — a star, so the
    clique's cells land in one component.  Companions with λ < ``k``
    kill the slot (the clique activated at a lower level); a λ = ``k``
    companion with a smaller id means another frontier cell owns it.  At
    (1,2) the incidence is the adjacency, and an edge is a pair.  Yields
    aligned ``(a, b)`` arrays, ``a`` the owning frontier cell and λ(b) >=
    ``k``, for at most ``_LEVEL_CHUNK_SLOTS`` incidence slots at a time.
    """
    for piece in _pieces(frontier, ptr[frontier], ptr[frontier + 1]):
        yield _incidence_pairs(comps, lam, k, *piece)


def _incidence_pairs(comps, lam, k, cells, starts, ends) -> tuple:
    """:func:`incidence_level_edges` over one piece of the frontier's
    runs (its gathers are freed before the consumer hooks the pairs)."""
    slots, counts = _gather_slots(starts, ends)
    cell_of_slot = np.repeat(cells, counts)
    companions = [c[slots] for c in comps]
    keep = np.ones(len(slots), dtype=bool)
    for comp in companions:
        cl = lam[comp]
        keep &= cl >= k
        keep &= (cl != k) | (comp > cell_of_slot)
    owner = cell_of_slot[keep]
    return (_joined([owner] * len(companions)),
            _joined([comp[keep] for comp in companions]))


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
