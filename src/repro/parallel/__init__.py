"""The CSR engine's frontier rounds, and the worker pool that speeds them up.

``backend="csr"`` (:mod:`repro.backends`) runs the in-process pieces;
``csr-parallel`` runs the same functions with a worker pool:

* :mod:`repro.parallel.bulk` — frontier-round peels for (1,2), (2,3) and
  (3,4), λ identical to the per-cell peels at any worker count, plus the
  pool gate (:func:`~repro.parallel.bulk.worker_pool`);
* :mod:`repro.parallel.construct` — level-wise hierarchy construction
  over the settled λ values (condensed tree node-for-node identical to
  the object engine's FND);
* :mod:`repro.parallel.fnd` — the one FND pipeline (set-up, peel,
  construction) with or without a pool;
* :mod:`repro.parallel.kernels` — the per-round numpy kernels, run in
  process or by the workers;
* :mod:`repro.parallel.incidence` — triangle / K₄ listing sharded across
  workers;
* :mod:`repro.parallel.pool` — persistent worker processes executing
  range tasks over attached arrays (plus ``REPRO_WORKERS`` resolution);
* :mod:`repro.parallel.shm` — zero-copy export/attach of the flat arrays
  via ``multiprocessing.shared_memory``.

Names resolve lazily, so the in-process engine never imports the pool
and shared-memory modules.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "bulk_core_peel": "bulk",
    "bulk_nucleus34_peel": "bulk",
    "bulk_truss_peel": "bulk",
    "merge_sparse_decrements": "bulk",
    "parallel_core_peel": "bulk",
    "parallel_nucleus34_peel": "bulk",
    "parallel_truss_peel": "bulk",
    "worker_pool": "bulk",
    "core_hierarchy_from_lambda": "construct",
    "hierarchy_from_lambda": "construct",
    "incidence_hierarchy_from_lambda": "construct",
    "frontier_fnd": "fnd",
    "parallel_fnd_decomposition": "fnd",
    "parallel_nucleus34_incidence": "incidence",
    "parallel_triangle_edge_ids": "incidence",
    "parallel_truss_incidence": "incidence",
    "component_roots": "kernels",
    "core_decrement": "kernels",
    "core_level_edges": "kernels",
    "incidence_decrement": "kernels",
    "incidence_level_edges": "kernels",
    "spanning_forest_reduce": "kernels",
    "weighted_cuts": "kernels",
    "WORKERS_ENV": "pool",
    "WorkerPool": "pool",
    "resolve_workers": "pool",
    "SharedArrayBundle": "shm",
    "SharedRootedForest": "shm",
    "share_forest": "shm",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
