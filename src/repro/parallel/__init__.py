"""The CSR engine's frontier rounds and level-wise construction.

``backend="csr"`` (:mod:`repro.backends`) runs these functions in
process; its ``workers=`` count reaches only the clique listing, which
maps its kernel ranges over threads:

* :mod:`repro.parallel.bulk` — frontier-round peels for (1,2), (2,3) and
  (3,4), λ identical to the per-cell peels;
* :mod:`repro.parallel.construct` — level-wise hierarchy construction
  over the settled λ values (condensed tree node-for-node identical to
  the object engine's FND);
* :mod:`repro.parallel.fnd` — the one FND pipeline (set-up, peel,
  construction);
* :mod:`repro.parallel.kernels` — the per-round and per-level numpy
  kernels.

Names resolve lazily on first access.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "bulk_core_peel": "bulk",
    "bulk_nucleus34_peel": "bulk",
    "bulk_truss_peel": "bulk",
    "core_hierarchy_from_lambda": "construct",
    "hierarchy_from_lambda": "construct",
    "incidence_hierarchy_from_lambda": "construct",
    "frontier_fnd": "fnd",
    "component_roots": "kernels",
    "core_decrement": "kernels",
    "core_level_edges": "kernels",
    "incidence_decrement": "kernels",
    "incidence_level_edges": "kernels",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
