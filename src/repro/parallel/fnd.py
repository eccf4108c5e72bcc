"""FND on the frontier engine: one in-process pipeline.

The paper's FND (Alg. 8/9) needs no traversal once λ is settled, so the
CSR engine runs it as three phases over one set of flat arrays, with one
code path for every (r, s):

1. **set-up** — the cell→s-clique incidence and the view of its cells
   (:func:`repro.core.csr_peel.incidence_arrays`; at (1,2) the
   adjacency itself, so nothing is listed);
2. **peel** — the frontier rounds settle λ for every cell, elementwise
   identical to the object engine (:mod:`repro.parallel.bulk`);
3. **construction** — with λ known, sub-nucleus detection becomes
   level-wise connectivity over the same incidence
   (:mod:`repro.parallel.construct`).

``backend="csr"`` passes its worker count (default 1) to the set-up,
whose listing kernels then run on threads.  The peel and the
construction always run in process.  λ is
elementwise and the *condensed* hierarchy node-for-node identical to the
object engine for (1,2), (2,3) and (3,4) at every worker count; the
skeleton holds one sub-nucleus per (level, component), which condenses to
the same nucleus tree as the paper's T*.  λ and the skeleton stay int64
arrays from the rounds to the :class:`~repro.core.hierarchy.Hierarchy`.
"""

from __future__ import annotations

import numpy as np

from repro.core.csr_peel import INCIDENCE_RS, incidence_arrays
from repro.core.fnd import FndInstrumentation
from repro.core.hierarchy import Hierarchy
from repro.core.views import CellView
from repro.graph.csr import CSRGraph
from repro.parallel.bulk import _round_loop
from repro.parallel.construct import hierarchy_from_lambda

__all__ = ["FND_RS", "frontier_fnd"]

#: the (r, s) pairs the frontier engine runs FND for: those with a CSR
#: incidence (the paper's evaluated cases)
FND_RS = INCIDENCE_RS


def frontier_fnd(csr: CSRGraph, r: int, s: int, workers: int = 1,
                 instrumentation: FndInstrumentation | None = None,
                 ) -> tuple[np.ndarray, Hierarchy, CellView]:
    """FND for ``(r, s)`` in :data:`FND_RS`: ``(lam, hierarchy, view)``,
    with λ the int64 array the hierarchy holds.

    ``workers`` threads the clique listing of the set-up.  The view
    construction is free for (1,2)/(2,3) and reuses the triangle array
    the set-up already materialised for (3,4) — no object graph, and no
    second pass over the cliques.
    """
    view, sup, ptr, comps = incidence_arrays(csr, r, s, workers)
    lam, _, _ = _round_loop(sup, ptr, comps)
    hierarchy = hierarchy_from_lambda(r, s, lam, ptr, comps, instrumentation)
    return lam, hierarchy, view
