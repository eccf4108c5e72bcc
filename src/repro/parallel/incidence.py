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

from repro.core.csr_peel import nucleus34_fill, truss_fill
from repro.graph.csr import (
    _concat_columns,
    CSRGraph,
    csr_forward_structure,
    k4_setup,
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
    """Sharded edge→triangle incidence: ``(sup, ptr, (comp1, comp2))``.

    Same shape and arrays as
    :func:`~repro.core.csr_peel.truss_incidence_arrays`; only the
    triangle listing is farmed out — the fill is one argsort in the
    parent (:func:`~repro.core.csr_peel.truss_fill`, shared with the
    sequential builder).
    """
    return truss_fill(csr.m, *parallel_triangle_edge_ids(csr, pool))


def parallel_nucleus34_incidence(csr: CSRGraph, pool: WorkerPool):
    """Sharded triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``.

    Same shape and arrays as
    :func:`~repro.core.csr_peel.nucleus34_incidence_arrays`: the lex
    triangle triple list (ids = positions), initial ω₄ supports, and the
    three aligned companion arrays.  Workers shard first the triangle
    listing, then the K₄ pair kernel over lowest-edge runs balanced by
    pair count.
    """
    from repro.parallel.shm import SharedArrayBundle

    k4 = k4_setup(csr, *parallel_triangle_edge_ids(csr, pool))
    run_sizes = np.diff(k4["run_ptr"])
    cuts = weighted_cuts(run_sizes * (run_sizes - 1) // 2, pool.workers)
    with SharedArrayBundle.create(k4) as bundle:
        pool.bind([bundle.spec])
        try:
            parts = pool.scatter(
                [("k4", csr.n, glo, ghi)
                 for glo, ghi in zip(cuts[:-1], cuts[1:], strict=True)])
        finally:
            pool.unbind()
    return nucleus34_fill(csr, k4["tri_keys"], _concat_columns(parts, 4))
