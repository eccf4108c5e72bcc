"""Core algorithms: peeling, hierarchy construction, the paper's Alg. 1-9.

Names resolve lazily on first access, so importing one module of this
package does not import the rest.
"""

from __future__ import annotations

import importlib
from typing import Any

#: public name → the module of this package that defines it
_EXPORTS = {
    "ALGORITHMS": "decomposition",
    "Decomposition": "decomposition",
    "nucleus_decomposition": "decomposition",
    "Hierarchy": "hierarchy",
    "NucleusNode": "hierarchy",
    "NucleusTree": "hierarchy",
    "PeelingResult": "peeling",
    "peel": "peeling",
    "naive_hierarchy": "traversal",
    "dft_hierarchy": "dft",
    "fnd_decomposition": "fnd",
    "FndInstrumentation": "fnd",
    "lcps_hierarchy": "lcps",
    "hypo_traversal": "hypo",
    "CellView": "views",
    "VertexView": "views",
    "EdgeView": "views",
    "TriangleView": "views",
    "GenericCliqueView": "views",
    "build_view": "views",
    "DisjointSetForest": "disjoint_set",
    "RootedForest": "disjoint_set",
    "MinBucketQueue": "bucket",
    "MaxBucketQueue": "bucket",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
