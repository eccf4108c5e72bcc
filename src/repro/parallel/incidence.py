"""Sharded incidence set-up: clique listing split across workers.

The peel loops are one half of the (2,3)/(3,4) cost; listing the
triangles / four-cliques and materialising the cell→s-clique incidence is
the other (Sarıyüce et al. 2015 measure them at the same order).  Both
listings are range-shardable: the wedge-pair kernel of
:mod:`repro.graph.csr` is pure index algebra over arrays a worker can
attach read-only, and consecutive ranges concatenate to exactly the
sequential output — so the merged listing (and everything derived from
it) is byte-identical for every worker count.

The incidence fill itself (one stable argsort) stays in the parent: it is
already vectorised, and its output feeds straight into the frontier
peel (:mod:`repro.parallel.bulk`) and the level-wise construction
(:mod:`repro.parallel.construct`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import (
    _MAX_KEYED_N,
    _concat_columns,
    CSRGraph,
    csr_arrays_int64,
    csr_forward_structure,
    fill_incidence,
    triangle_run_pointers,
    triangle_triples,
)
from repro.parallel.kernels import weighted_cuts

if TYPE_CHECKING:
    from repro.parallel.pool import WorkerPool

__all__ = [
    "parallel_nucleus34_incidence",
    "parallel_triangle_edge_ids",
    "parallel_truss_incidence",
]


def parallel_triangle_edge_ids(csr: CSRGraph, pool: WorkerPool):
    """Sharded triangle listing: ``(e1, e2, e3)`` edge-id arrays.

    The parent builds the degree-ranked forward structure (one sort),
    shares it, and each worker enumerates the wedge pairs of a rank range
    balanced by pair count.  Concatenating the shards in range order
    reproduces the sequential :func:`~repro.graph.csr.csr_triangle_edge_ids`
    output exactly.
    """
    from repro.parallel.shm import SharedArrayBundle

    forward = csr_forward_structure(csr)
    counts = np.diff(forward["fptr"])
    cuts = weighted_cuts(counts * (counts - 1) // 2, pool.workers)
    with SharedArrayBundle.create(forward) as bundle:
        pool.bind([bundle.spec])
        try:
            parts = pool.scatter(
                [("triangles", csr.n, lo, hi)
                 for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)])
        finally:
            pool.unbind()
    return _concat_columns(parts, 3)


def parallel_truss_incidence(csr: CSRGraph, pool: WorkerPool):
    """Sharded edge→triangle incidence: ``(sup, ptr, comp1, comp2)``.

    Same shape as :func:`~repro.core.csr_peel.truss_incidence`, as int64
    numpy arrays; only the triangle listing is farmed out — the fill is
    one argsort in the parent (:func:`~repro.graph.csr.fill_incidence`,
    shared with the sequential builders).
    """
    e1, e2, e3 = parallel_triangle_edge_ids(csr, pool)
    sup, ptr, (comp1, comp2) = fill_incidence(
        [e1, e2, e3], [(e2, e3), (e1, e3), (e1, e2)], csr.m)
    return sup, ptr, comp1, comp2


def parallel_nucleus34_incidence(csr: CSRGraph, pool: WorkerPool):
    """Sharded triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``.

    Same shape as :func:`~repro.core.csr_peel.nucleus34_incidence` with
    numpy arrays: the lex triangle triple list (ids = positions), initial
    ω₄ supports, and the three aligned companion arrays.  Workers shard
    first the triangle listing, then the K₄ pair kernel over
    lowest-edge runs balanced by pair count.

    Past :data:`~repro.graph.csr._MAX_KEYED_N` vertices the int64 triple
    keys the K₄ kernel searches would overflow, so huge graphs fall back
    to the (guarded) sequential builder rather than shard.
    """
    if csr.n >= _MAX_KEYED_N:
        from repro.core.csr_peel import nucleus34_incidence_arrays

        return nucleus34_incidence_arrays(csr)
    from repro.parallel.shm import SharedArrayBundle

    tri_edges = parallel_triangle_edge_ids(csr, pool)
    tu, tv, tw = triangle_triples(csr_arrays_int64(csr), *tri_edges)
    order = np.lexsort((tw, tv, tu))
    tu, tv, tw = tu[order], tv[order], tw[order]
    n = csr.n
    run_ptr = triangle_run_pointers(tu, tv, n)
    run_sizes = run_ptr[1:] - run_ptr[:-1]
    cuts = weighted_cuts(run_sizes * (run_sizes - 1) // 2, pool.workers)
    shared = {"tri_keys": (tu * n + tv) * n + tw, "tri_u": tu, "tri_v": tv,
              "tri_w": tw, "run_ptr": run_ptr}
    with SharedArrayBundle.create(shared) as bundle:
        pool.bind([bundle.spec])
        try:
            parts = pool.scatter(
                [("k4", n, glo, ghi)
                 for glo, ghi in zip(cuts[:-1], cuts[1:], strict=True)])
        finally:
            pool.unbind()
    q1, q2, q3, q4 = _concat_columns(parts, 4)
    sup, ptr, comps = fill_incidence(
        [q1, q2, q3, q4],
        [(q2, q3, q4), (q1, q3, q4), (q1, q2, q4), (q1, q2, q3)],
        len(tu))
    triangles = list(zip(tu.tolist(), tv.tolist(), tw.tolist(), strict=True))
    return triangles, sup, ptr, comps
