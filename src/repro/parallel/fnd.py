"""FND on the frontier engine: one pipeline, with or without a pool.

The paper's FND (Alg. 8/9) needs no traversal once λ is settled, so the
CSR engine runs it as three phases over one set of flat arrays:

1. **set-up** — triangle/K₄ listing and incidence materialisation
   (:mod:`repro.parallel.incidence` shards the listing over a pool;
   (1,2) needs none — its degrees are one ``np.diff``);
2. **peel** — the frontier rounds settle λ for every cell, elementwise
   identical to the object engine (:mod:`repro.parallel.bulk`);
3. **construction** — with λ known, sub-nucleus detection becomes
   level-wise connectivity (:mod:`repro.parallel.construct`).

``backend="csr"`` runs the pipeline in process; ``csr-parallel`` runs the
same functions with a :class:`~repro.parallel.pool.WorkerPool` when one
can pay (:func:`~repro.parallel.bulk.worker_pool`), exporting the static
arrays to shared memory once for the peel and the construction.  λ is
elementwise and the *condensed* hierarchy node-for-node identical to the
object engine for (1,2), (2,3) and (3,4) at every worker count; the
skeleton holds one sub-nucleus per (level, component), which condenses to
the same nucleus tree as the paper's T*.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from repro.core.csr_peel import (
    nucleus34_incidence_arrays,
    truss_incidence_arrays,
)
from repro.core.fnd import FndInstrumentation
from repro.core.hierarchy import Hierarchy
from repro.core.peeling import PeelingResult
from repro.core.views import CellView, CSREdgeView, CSRTriangleView, VertexView
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph, csr_arrays_int64
from repro.parallel.bulk import (
    _bulk_incidence_peel,
    bulk_core_peel,
    worker_pool,
)
from repro.parallel.construct import (
    core_hierarchy_from_lambda,
    incidence_hierarchy_from_lambda,
)
from repro.parallel.incidence import (
    parallel_nucleus34_incidence,
    parallel_truss_incidence,
)

if TYPE_CHECKING:
    from repro.parallel.pool import WorkerPool

__all__ = ["FND_RS", "frontier_fnd", "parallel_fnd_decomposition"]

#: the (r, s) pairs the frontier engine runs FND for (the paper's
#: evaluated cases)
FND_RS = ((1, 2), (2, 3), (3, 4))


def frontier_fnd(csr: CSRGraph, r: int, s: int,
                 pool: WorkerPool | None = None,
                 instrumentation: FndInstrumentation | None = None,
                 ) -> tuple[PeelingResult, Hierarchy, CellView]:
    """FND for ``(r, s)`` in :data:`FND_RS`: ``(peeling, hierarchy, view)``.

    The view construction is free for (1,2)/(2,3) and reuses the triangle
    enumeration the set-up already materialised for (3,4) — no object
    graph, and no second pass over the cliques.  Only the peel ``order``
    depends on the engine: it is round order, still smallest-last.
    """
    if (r, s) == (1, 2):
        arrays = csr_arrays_int64(csr)
        static = {"indptr": arrays["indptr"], "indices": arrays["indices"]}
        view: CellView = VertexView(csr)
    elif (r, s) == (2, 3):
        if pool is None:
            sup, ptr, comps = truss_incidence_arrays(csr)
        else:
            sup, ptr, comp1, comp2 = parallel_truss_incidence(csr, pool)
            comps = (comp1, comp2)
        view = CSREdgeView(csr)
    elif (r, s) == (3, 4):
        if pool is None:
            triangles, sup, ptr, comps = nucleus34_incidence_arrays(csr)
        else:
            triangles, sup, ptr, comps = parallel_nucleus34_incidence(
                csr, pool)
        # the peel settles sup in place: keep the initial ω₄ degrees
        view = CSRTriangleView(csr, _enumeration=(triangles, sup.tolist()))
    else:
        raise InvalidParameterError(
            f"no FND on the CSR engine for (r, s) = ({r}, {s}); "
            f"supported: {FND_RS}")
    if r > 1:
        static = {"ptr": ptr}
        for i, comp in enumerate(comps):
            static[f"c{i + 1}"] = comp
    with _exported(static, pool) as bundle:
        if r == 1:
            shared = static if bundle is None else bundle
            peeling = bulk_core_peel(csr, pool, static=shared)
            lam = np.asarray(peeling.lam, dtype=np.int64)
            hierarchy = core_hierarchy_from_lambda(
                csr, lam, pool, instrumentation, static_bundle=shared)
        else:
            peeling = _bulk_incidence_peel(sup, ptr, comps, pool,
                                           static=bundle)
            lam = np.asarray(peeling.lam, dtype=np.int64)
            hierarchy = incidence_hierarchy_from_lambda(
                r, s, lam, ptr, comps, pool, instrumentation,
                static_bundle=bundle)
    return peeling, hierarchy, view


def _exported(static: dict, pool: WorkerPool | None):
    """The static arrays in shared memory for a pooled run (one export
    serves the peel and the construction), else nothing."""
    if pool is None:
        return nullcontext(None)
    from repro.parallel.shm import SharedArrayBundle

    return SharedArrayBundle.create(static)


def parallel_fnd_decomposition(
        csr: CSRGraph, r: int, s: int, workers: int,
        instrumentation: FndInstrumentation | None = None,
) -> tuple[PeelingResult, Hierarchy, CellView]:
    """:func:`frontier_fnd` over its own ``workers``-process pool (in
    process when a pool cannot pay, see
    :func:`~repro.parallel.bulk.worker_pool`)."""
    with worker_pool(csr, workers) as pool:
        return frontier_fnd(csr, r, s, pool, instrumentation)
