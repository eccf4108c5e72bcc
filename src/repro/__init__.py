"""repro — fast hierarchy construction for dense subgraphs.

A faithful implementation in Python and numpy of Sariyüce & Pinar, *Fast
Hierarchy Construction for Dense Subgraphs* (PVLDB 10(3), 2016): k-core,
k-truss and generic k-(r,s) nucleus decompositions that return not just λ
values but the full tree of **connected** nuclei, via four interchangeable
algorithms (naive per-level traversal, disjoint-set-forest traversal,
traversal-free FND, and the LCPS adaptation for k-core).

Quickstart::

    import repro

    graph = repro.generators.powerlaw_cluster(500, 8, 0.5, seed=7)
    result = repro.nucleus_decomposition(graph, r=2, s=3, algorithm="fnd")
    tree = result.hierarchy.condense()
    print(tree.format(max_nodes=20))

The package is layered (see ``docs/ARCHITECTURE.md`` for the full map):

* **graph substrate** — :class:`Graph` (object adjacency) and
  :class:`CSRGraph` (flat arrays), loaders, generators, datasets;
* **decomposition engines** — :func:`nucleus_decomposition` and the
  :mod:`repro.backends` dispatch layer (``object`` / ``csr`` /
  ``disk``, identical λ and hierarchies, only speed and memory differ);
* **k-core / k-truss layers** — :func:`core_numbers`,
  :func:`truss_numbers`, the survey-section variants (weighted,
  directed, uncertain, temporal) and :func:`build_tcp_index`;
* **query indexes** — :class:`HierarchyIndex` (object, interactive) and
  :class:`FlatHierarchyIndex` (flat arrays, batch kernels, ``.npz``
  persistence) built by :func:`build_query_index` and reloaded by
  :func:`load_query_index`;
* **serving tier** — :mod:`repro.serve`: :class:`IndexRegistry` over
  memory-mapped indexes plus the async ``repro-nucleus serve`` front
  end (NDJSON + HTTP, each connection's requests answered in order;
  ``docs/SERVING.md``);
* **analysis & export** — :func:`densest_nuclei`,
  :func:`hierarchy_stats`, JSON/DOT/``.npz`` round-trips.

Every public name resolves lazily (PEP 562): ``import repro`` loads no
subsystem, and ``repro.serve`` or ``repro.decompose`` imports its module
on first access, so a process pays only for what it uses.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.9.0"

#: public name → the module under ``repro`` that defines it
_EXPORTS = {
    # unified front door (plain + every scenario variant)
    "decompose": "api",
    "VARIANTS": "api",
    # graph substrate
    "Graph": "graph.adjacency",
    "CSRGraph": "graph.csr",
    "DirectedGraph": "graph.directed",
    "TemporalGraph": "graph.temporal",
    "BACKENDS": "backends",
    "connected_components": "graph.components",
    "load_edge_list": "graph.io",
    "load_graph": "graph.io",
    "save_edge_list": "graph.io",
    "dataset_names": "graph.datasets",
    "load_dataset": "graph.datasets",
    # core decomposition
    "ALGORITHMS": "core.decomposition",
    "nucleus_decomposition": "core.decomposition",
    "Decomposition": "core.decomposition",
    "Hierarchy": "core.hierarchy",
    "NucleusTree": "core.hierarchy",
    "build_view": "core.views",
    "peel": "core.peeling",
    # k-core layer
    "core_numbers": "kcore.core",
    "core_hierarchy": "kcore.core",
    "degeneracy": "kcore.core",
    "degeneracy_ordering": "kcore.core",
    "k_core": "kcore.core",
    "k_core_subgraph": "kcore.core",
    # k-truss layer
    "truss_numbers": "ktruss.truss",
    "truss_hierarchy": "ktruss.truss",
    "truss_communities": "ktruss.truss",
    "k_dense": "ktruss.truss",
    "k_truss": "ktruss.truss",
    "build_tcp_index": "ktruss.tcp",
    # analysis
    "densest_nuclei": "analysis.density",
    "edge_density": "analysis.density",
    "hierarchy_stats": "analysis.stats",
    "table3_row": "analysis.stats",
    "skeleton_report": "analysis.skeleton",
    # dynamic graphs, partitioned decomposition, export
    "IncrementalCoreMaintainer": "streaming.kcore",
    "decompose_by_components": "core.partition",
    "semi_external_core_decomposition": "external.semi",
    "HierarchyIndex": "queries",
    "FlatHierarchyIndex": "flatindex",
    "build_query_index": "backends",
    "load_query_index": "backends",
    # serving tier (full surface in repro.serve)
    "IndexRegistry": "serve.registry",
    "ServeClient": "serve.client",
    # survey-section core variants
    "weighted_core_numbers": "kcore.variants",
    "weighted_k_core": "kcore.variants",
    "directed_core_numbers": "kcore.variants",
    "uncertain_core_numbers": "kcore.uncertain",
    "uncertain_k_core": "kcore.uncertain",
    "eta_degree": "kcore.uncertain",
    "temporal_core_numbers": "kcore.temporal",
    "temporal_k_core": "kcore.temporal",
    "temporal_core_profile": "kcore.temporal",
    "hierarchy_to_json": "export",
    "hierarchy_from_json": "export",
    "save_hierarchy": "export",
    "load_hierarchy": "export",
    "save_hierarchy_npz": "export",
    "load_hierarchy_npz": "export",
    "tree_to_dot": "export",
    "skeleton_to_dot": "export",
    # errors
    "ReproError": "errors",
    "GraphFormatError": "errors",
    "InvalidGraphError": "errors",
    "InvalidParameterError": "errors",
    "UnknownAlgorithmError": "errors",
    "UnknownDatasetError": "errors",
}

#: name → module, for the names that are modules: the public ``backends``
#: and ``generators``, and every subsystem an ``import repro`` has always
#: reached as an attribute (``repro.serve.ServeClient``)
_SUBMODULES = {
    "backends": "backends",
    "generators": "graph.generators",
    **{name: name for name in (
        "analysis", "api", "core", "errors", "export", "external",
        "flatindex", "graph", "kcore", "ktruss", "parallel", "queries",
        "serve", "streaming")},
}

__all__ = ["__version__", "backends", "generators", *_EXPORTS]


def __getattr__(name: str) -> Any:
    # a module is imported as one: looking it up on this package would
    # land back in this function
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{_SUBMODULES[name]}")
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(
            f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # the next access is a plain lookup
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
