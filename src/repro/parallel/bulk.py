"""Frontier rounds: the CSR engine's peel.

A Batagelj–Zaversnik peel pops one minimum cell at a time — correct, and
intrinsically serial, with an interpreted inner loop.  The bulk peel
here runs the De Zoysa et al. 2021 bucket-synchronous formulation instead:
every round peels the *entire* current-minimum frontier at once and
applies the merged support decrements afterwards.  λ is a structural
quantity (the largest k whose (k, s)-subgraph contains the cell), so the
frontier formulation settles every cell at exactly the per-cell value —
the parity suites assert elementwise equality with the object engine —
while turning the inner loop into a handful of numpy gathers per round.

One loop serves every (r, s): it walks the cell→s-clique incidence of
:func:`~repro.core.csr_peel.incidence_arrays`, which at (1,2) is the
adjacency itself.  The rounds always run in process.  ``workers``
reaches only the clique listing under the (2,3)/(3,4) incidences, which
maps its kernel ranges over threads
(:func:`~repro.graph.csr.csr_triangle_edge_ids`); λ is the same for
every worker count.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.csr_peel import incidence_arrays
from repro.core.peeling import PeelingResult
from repro.graph.csr import CSRGraph, run_bounds
from repro.parallel.kernels import incidence_decrement

__all__ = ["bulk_peel"]


def _round_loop(sup, ptr, comps) -> tuple:
    """The frontier loop over the incidence ``(ptr, comps)``: extract,
    stamp, decrement, clamp.  Returns ``(lam, max_lambda, order)``, λ and
    the order int64 arrays.

    ``sup`` holds the current s-clique degrees (mutated toward λ in
    place); ``peel_round[x]`` is the round ``x`` was peeled in (−1 =
    alive) — the only state the decrement kernel reads.  Each round peels
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
    peel_round = np.full(size, -1, dtype=np.int64)
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
        targets, counts = incidence_decrement(ptr, comps, peel_round,
                                              frontier, rnd)
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


def bulk_peel(csr: CSRGraph, r: int, s: int,
              workers: int = 1) -> PeelingResult:
    """(r, s) bulk peel: λ per cell id (vertex, lexicographic edge or
    lexicographic triangle), frontier rounds over the incidence of
    :func:`~repro.core.csr_peel.incidence_arrays`, whose (2,3)/(3,4)
    cliques are listed on up to ``workers`` threads."""
    _, sup, ptr, comps = incidence_arrays(csr, r, s, workers)
    lam, max_lambda, order = _round_loop(sup, ptr, comps)
    return PeelingResult(lam=lam.tolist(), max_lambda=max_lambda,
                         order=order.tolist())
