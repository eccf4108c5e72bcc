"""The CSR engine's frontier rounds and level-wise construction.

``backend="csr"`` (:mod:`repro.backends`) runs these functions in
process; its ``workers=`` count reaches only the clique listing, which
maps its kernel ranges over threads:

* :mod:`repro.parallel.bulk` — the frontier-round peel
  (:func:`bulk_peel`), λ identical to the per-cell peels;
* :mod:`repro.parallel.construct` — level-wise hierarchy construction
  over the settled λ values (condensed tree node-for-node identical to
  the object engine's FND);
* :mod:`repro.parallel.fnd` — the one FND pipeline (set-up, peel,
  construction);
* :mod:`repro.parallel.kernels` — the per-round and per-level numpy
  kernels.

Each layer runs one code path for (1,2), (2,3) and (3,4): it reads the
cell→s-clique incidence of :func:`repro.core.csr_peel.incidence_arrays`,
which at (1,2) is the adjacency itself.  Names resolve lazily on first
access.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "bulk_peel": "bulk",
    "hierarchy_from_lambda": "construct",
    "frontier_fnd": "fnd",
    "component_roots": "kernels",
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


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
