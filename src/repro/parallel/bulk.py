"""Frontier rounds: the CSR engine's peels.

A Batagelj–Zaversnik peel pops one minimum cell at a time — correct, and
intrinsically serial, with an interpreted inner loop.  The bulk peels
here run the De Zoysa et al. 2021 bucket-synchronous formulation instead:
every round peels the *entire* current-minimum frontier at once and
applies the merged support decrements afterwards.  λ is a structural
quantity (the largest k whose (k, s)-subgraph contains the cell), so the
frontier formulation settles every cell at exactly the per-cell value —
the parity suites assert elementwise equality with the object engine —
while turning the inner loop into a handful of numpy gathers per round.

The rounds always run in process.  ``workers`` reaches only the clique
listing under the (2,3)/(3,4) incidences, which maps its kernel ranges
over threads (:func:`~repro.graph.csr.csr_triangle_edge_ids`); λ is the
same for every worker count.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.csr_peel import (
    nucleus34_incidence_arrays,
    truss_incidence_arrays,
)
from repro.core.peeling import PeelingResult
from repro.graph.csr import CSRGraph, run_bounds
from repro.parallel.kernels import core_decrement, incidence_decrement

__all__ = ["bulk_core_peel", "bulk_nucleus34_peel", "bulk_truss_peel"]


def _round_loop(sup, peel_round, decrement_for) -> tuple:
    """The shared frontier loop: extract, stamp, decrement, clamp.
    Returns ``(lam, max_lambda, order)``, λ and the order int64 arrays.

    ``sup`` holds the current s-clique degrees (mutated toward λ in
    place); ``peel_round[x]`` is the round ``x`` was peeled in (−1 =
    alive) — the only state the decrement kernels read.  Each round peels
    the whole minimum-support frontier: every frontier cell's λ is the
    round's k, and surviving cells clamp at k exactly like the
    sequential ``if sup > k`` guard.

    Frontier discovery is bucket-driven, not scan-driven: a cell is
    dropped into ``pending[v]`` whenever its support reaches ``v`` (once
    at build time, then on every effective decrement), and the loop only
    ever touches the cells of the current bucket plus the cells a round
    actually decremented — entries left behind at higher levels are
    filtered by the liveness check.  Buckets exist only for the levels
    present, and a heap of those levels gives the next k, so no step
    costs anything per level absent.  A round therefore costs
    O(frontier + touched), so long-cascade graphs (paths, trees: O(n)
    rounds) peel in linear total time instead of the quadratic a
    full-array rescan per round would give.
    """
    size = len(sup)
    lam = np.zeros(size, dtype=np.int64)
    if size == 0:
        return lam, 0, lam
    # pending[v]: arrays of cells whose support last settled at v, for
    # the levels v present; levels: a heap of pending's keys
    pending: dict[int, list] = {}
    levels: list[int] = []

    def settle(cells, vals) -> None:
        """File ``cells`` under their new levels ``vals``."""
        # each round sorts its frontier: any order within a level will do
        by_val = np.argsort(vals)
        vals = vals[by_val]
        cells = cells[by_val]
        bounds = run_bounds(vals)
        for level, lo, hi in zip(vals[bounds[:-1]].tolist(),
                                 bounds[:-1].tolist(), bounds[1:].tolist()):
            bucket = pending.get(level)
            if bucket is None:
                pending[level] = [cells[lo:hi]]
                heapq.heappush(levels, level)
            else:
                bucket.append(cells[lo:hi])

    settle(np.arange(size, dtype=np.int64), sup)
    order_parts = []
    remaining = size
    rnd = 0
    max_lambda = 0
    while remaining:
        k = heapq.heappop(levels)
        groups = pending.pop(k)
        candidates = groups[0] if len(groups) == 1 else np.concatenate(groups)
        # a candidate is stale when the cell was peeled at a lower level
        # (its entry here was superseded); live ones all sit exactly at k
        frontier = candidates[peel_round[candidates] < 0]
        if len(frontier) == 0:
            continue
        frontier = np.sort(frontier)
        lam[frontier] = k
        max_lambda = k
        peel_round[frontier] = rnd
        targets, counts = decrement_for(frontier, rnd)
        if len(targets):
            old = sup[targets]
            new_vals = np.maximum(k, old - counts)
            changed = new_vals < old
            cells = targets[changed]
            if len(cells):
                vals = new_vals[changed]
                sup[cells] = vals
                settle(cells, vals)
        order_parts.append(frontier)
        remaining -= len(frontier)
        rnd += 1
    order = (np.concatenate(order_parts) if order_parts
             else np.empty(0, dtype=np.int64))
    return lam, max_lambda, order


def _listed(rounds: tuple) -> PeelingResult:
    """A :func:`_round_loop` result as a :class:`PeelingResult` of lists."""
    lam, max_lambda, order = rounds
    return PeelingResult(lam=lam.tolist(), max_lambda=max_lambda,
                         order=order.tolist())


def _core_rounds(csr: CSRGraph) -> tuple:
    """The (1,2) frontier rounds over the CSR adjacency as
    ``(lam, max_lambda, order)`` arrays."""
    indptr, indices = csr.indptr, csr.indices
    peel_round = np.full(csr.n, -1, dtype=np.int64)

    def decrement_for(frontier, rnd):
        return core_decrement(indptr, indices, peel_round, frontier)

    return _round_loop(np.diff(indptr), peel_round, decrement_for)


def _incidence_rounds(sup, ptr, comps) -> tuple:
    """The (2,3)/(3,4) frontier rounds over a materialised incidence as
    ``(lam, max_lambda, order)`` arrays; ``sup`` settles into λ in
    place."""
    peel_round = np.full(len(sup), -1, dtype=np.int64)

    def decrement_for(frontier, rnd):
        return incidence_decrement(ptr, comps, peel_round, frontier, rnd)

    return _round_loop(sup, peel_round, decrement_for)


def bulk_core_peel(csr: CSRGraph) -> PeelingResult:
    """(1,2) bulk peel: core numbers λ₂, frontier rounds over the CSR."""
    return _listed(_core_rounds(csr))


def bulk_truss_peel(csr: CSRGraph, workers: int = 1) -> PeelingResult:
    """(2,3) bulk peel: λ₃ per lex edge id, frontier rounds over the
    materialised edge→triangle incidence (listed on up to ``workers``
    threads)."""
    sup, ptr, comps = truss_incidence_arrays(csr, workers)
    return _listed(_incidence_rounds(sup, ptr, comps))


def bulk_nucleus34_peel(csr: CSRGraph, workers: int = 1) -> PeelingResult:
    """(3,4) bulk peel: λ₄ per lex triangle id, frontier rounds over the
    materialised triangle→K₄ incidence (listed on up to ``workers``
    threads)."""
    _, sup, ptr, comps = nucleus34_incidence_arrays(csr, workers)
    return _listed(_incidence_rounds(sup, ptr, comps))
