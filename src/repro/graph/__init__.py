"""Graph substrate: data structures, IO, generators, clique enumeration.

Names resolve lazily on first access, so importing one module of this
package does not import the rest.
"""

from __future__ import annotations

import importlib
from typing import Any

#: public name → the module of this package that defines it
_EXPORTS = {
    "Graph": "adjacency",
    "CSRGraph": "csr",
    "DirectedGraph": "directed",
    "TemporalGraph": "temporal",
    "EdgeIndex": "adjacency",
    "normalize_edge": "adjacency",
    "bfs_order": "components",
    "connected_components": "components",
    "is_connected": "components",
    "largest_component": "components",
    "load_edge_list": "io",
    "load_graph": "io",
    "load_json": "io",
    "load_mtx": "io",
    "save_edge_list": "io",
    "save_json": "io",
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
