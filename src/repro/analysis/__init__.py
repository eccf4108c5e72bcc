"""Analysis utilities: density reports, Table-3 statistics, test oracles.

Names resolve lazily on first access, so importing one module of this
package does not import the rest.
"""

from __future__ import annotations

import importlib
from typing import Any

#: public name → the module of this package that defines it
_EXPORTS = {
    "edge_density": "density",
    "average_degree": "density",
    "NucleusReport": "density",
    "densest_nuclei": "density",
    "reference_lambda": "reference",
    "reference_nuclei": "reference",
    "reference_core_numbers": "reference",
    "Table3Row": "stats",
    "table3_row": "stats",
    "HierarchyStats": "stats",
    "hierarchy_stats": "stats",
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
