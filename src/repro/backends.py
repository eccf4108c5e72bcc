"""Backend dispatch: run any decomposition on any graph engine.

Four backends implement the peeling engine:

* ``"object"`` — :class:`~repro.graph.adjacency.Graph`, per-vertex
  ``set``/``list`` adjacency.  Flexible, allocation-heavy.
* ``"csr"`` — :class:`~repro.graph.csr.CSRGraph`, flat ``indptr`` /
  ``indices`` / edge-id arrays.  The peels run in *frontier rounds*
  (:mod:`repro.parallel.bulk`: every round peels the whole
  minimum-support frontier with a few numpy passes), and FND builds its
  hierarchy level by level from the settled λ values
  (:mod:`repro.parallel.construct`).  Requires numpy.
* ``"csr-parallel"`` — the same functions with a shared-memory worker
  pool (:mod:`repro.parallel`): sharded clique listing, farmed round
  decrements and farmed level connectivity.  Takes ``workers=N``
  (default: the ``REPRO_WORKERS`` environment variable, else 1).  The
  pool starts only when it can pay — ``workers > 1``, spare cores, and
  an input above the measured crossover
  (:data:`~repro.parallel.bulk.POOL_CROSSOVER_EDGES`); otherwise the run is
  the ``csr`` engine's, in process.
* ``"disk"`` — :class:`~repro.external.diskcsr.DiskCSRGraph`, the same
  flat arrays stored in ``np.memmap``-backed ``.npy`` files and served
  through windowed block readers, with the incidence of (2,3)/(3,4)
  spooled to scratch files (:mod:`repro.external.engine`).  Peak memory
  is bounded by the window cache and the O(#cells) peeling state, not
  the graph — the out-of-core engine for graphs bigger than RAM.
  Requires numpy.

Callers pick per run: every function here takes ``backend=`` (or an
already-converted graph) and guarantees **identical λ output** across
backends — only speed differs.  ``backend=None`` (the default everywhere)
means *follow the representation passed in*: a :class:`CSRGraph` runs the
CSR engine, a :class:`Graph` the object engine, with no silent conversion
either way (the parallel engine is never auto-selected).  Cell ids are
representation-independent (vertices are shared, edge and triangle ids
are lexicographic on both backends), so the λ arrays compare
element-for-element, and the condensed hierarchies are identical.
The CLI exposes the switch as ``--backend`` (default: auto) plus
``--workers``, and the benchmark suite as the ``REPRO_BENCH_BACKEND``
environment variable.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, cast

from repro.core.decomposition import Decomposition, nucleus_decomposition
from repro.core.fnd import FndInstrumentation
from repro.core.lcps import lcps_hierarchy
from repro.core.peeling import PeelingResult, peel
from repro.core.views import build_view
from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.parallel.bulk import (
    bulk_core_peel,
    bulk_nucleus34_peel,
    bulk_truss_peel,
    parallel_core_peel,
    parallel_nucleus34_peel,
    parallel_truss_peel,
)
from repro.parallel.fnd import (
    FND_RS,
    frontier_fnd,
    parallel_fnd_decomposition,
)

if TYPE_CHECKING:
    from pathlib import Path

    from repro.external.diskcsr import DiskCSRGraph
    from repro.flatindex import FlatHierarchyIndex

    AnyGraph = Graph | CSRGraph | DiskCSRGraph

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "as_backend",
    "as_csr",
    "as_disk",
    "as_object",
    "backend_view",
    "build_query_index",
    "core_peel",
    "decompose",
    "directed_core_peel",
    "load_query_index",
    "nucleus34_peel",
    "resolve_backend",
    "temporal_core_peel",
    "temporal_core_sweep",
    "truss_peel",
    "uncertain_core_peel",
    "weighted_core_peel",
]

BACKENDS = ("object", "csr", "csr-parallel", "disk")

#: engine used when an object :class:`Graph` is passed with ``backend=None``
DEFAULT_BACKEND = "object"


def _check(backend: str) -> None:
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")


def _resolve_parallel_workers(workers: int | None) -> int:
    """Validated worker count for the ``csr-parallel`` engine (lazy import
    keeps the pool module out of the in-process engines)."""
    from repro.parallel.pool import resolve_workers

    return resolve_workers(workers)


def _diskcsr_type() -> type | None:
    """The :class:`DiskCSRGraph` type, or ``None`` when numpy is absent
    (lazy import keeps the disk engine out of in-memory runs)."""
    try:
        from repro.external.diskcsr import DiskCSRGraph
    except ImportError:  # pragma: no cover - diskcsr itself guards numpy
        return None
    return DiskCSRGraph


def resolve_backend(graph: AnyGraph, backend: str | None) -> str:
    """Resolve a ``backend=None`` sentinel to the engine matching ``graph``.

    An explicit backend name is validated and returned untouched — passing
    ``backend="object"`` with a :class:`CSRGraph` really does convert and
    run the object engine (useful for A/B measurements).
    """
    if backend is None:
        if isinstance(graph, CSRGraph):
            return "csr"
        disk_cls = _diskcsr_type()
        if disk_cls is not None and isinstance(graph, disk_cls):
            return "disk"
        return "object"
    _check(backend)
    return backend


def as_csr(graph: AnyGraph) -> CSRGraph:
    """The CSR representation of ``graph`` (no-op if already CSR)."""
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, Graph):
        return CSRGraph.from_graph(graph)
    # disk (or any duck-typed flat) representation: edges stream sorted
    return CSRGraph(graph.n, graph.edges(), name=graph.name)


def as_object(graph: AnyGraph) -> Graph:
    """The object representation of ``graph`` (no-op if already object)."""
    if isinstance(graph, Graph):
        return graph
    return graph.to_object()


def as_disk(graph: AnyGraph) -> "DiskCSRGraph":
    """The disk-backed representation of ``graph`` (no-op if already disk).

    A converted graph lives in a temporary ``.diskcsr`` directory it owns
    and removes on ``close()``; build into a persistent directory with
    :func:`repro.external.build.build_diskcsr` instead.  Requires numpy.
    """
    from repro.external.diskcsr import as_diskcsr

    return as_diskcsr(graph)


def _ensure_disk(graph: AnyGraph) -> "tuple[DiskCSRGraph, bool]":
    """``(disk_graph, converted)`` — ``converted`` means this call built a
    temporary owned directory the caller must ``close()``."""
    disk_cls = _diskcsr_type()
    if disk_cls is not None and isinstance(graph, disk_cls):
        return cast("DiskCSRGraph", graph), False
    return as_disk(graph), True


def as_backend(graph: AnyGraph, backend: str) -> AnyGraph:
    """Convert ``graph`` to the representation the backend peels."""
    _check(backend)
    if backend == "object":
        return as_object(graph)
    if backend == "disk":
        return as_disk(graph)
    return as_csr(graph)


def backend_view(graph: AnyGraph, r: int, s: int,
                 backend: str) -> Any:
    """The (r, s) cell view over the chosen backend's representation."""
    return build_view(as_backend(graph, backend), r, s)


def core_peel(graph: AnyGraph, backend: str | None = None,
              workers: int | None = None) -> PeelingResult:
    """(1,2) peel — λ₂ (core numbers) plus a smallest-last order.

    The CSR backend peels in frontier rounds (the order is round order);
    the object backend runs the generic Set-λ over :class:`VertexView`;
    the disk backend the Batagelj–Zaversnik array peel over windowed
    memmap reads; the parallel backend the frontier rounds with a pool of
    ``workers`` processes when one can pay.  ``backend=None`` follows the
    representation passed in.
    """
    backend = resolve_backend(graph, backend)
    if backend == "disk":
        disk, converted = _ensure_disk(graph)
        try:
            from repro.external.engine import disk_core_peel

            return disk_core_peel(disk)
        finally:
            if converted:
                disk.close()
    if backend == "csr-parallel":
        return parallel_core_peel(as_csr(graph),
                                  _resolve_parallel_workers(workers))
    if backend == "csr":
        return bulk_core_peel(as_csr(graph))
    return peel(build_view(as_object(graph), 1, 2))


def truss_peel(graph: AnyGraph, backend: str | None = None,
               workers: int | None = None) -> PeelingResult:
    """(2,3) peel — λ₃ per edge id (ids are lexicographic on every backend,
    so the arrays compare element-for-element).  ``backend=None`` follows
    the representation passed in; the disk backend spools the triangle
    incidence to scratch files; the parallel backend shards the triangle
    listing and the rounds over ``workers`` processes when a pool can
    pay."""
    backend = resolve_backend(graph, backend)
    if backend == "disk":
        disk, converted = _ensure_disk(graph)
        try:
            from repro.external.engine import disk_truss_peel

            return disk_truss_peel(disk)
        finally:
            if converted:
                disk.close()
    if backend == "csr-parallel":
        return parallel_truss_peel(as_csr(graph),
                                   _resolve_parallel_workers(workers))
    if backend == "csr":
        return bulk_truss_peel(as_csr(graph))
    return peel(build_view(as_object(graph), 2, 3))


def nucleus34_peel(graph: AnyGraph, backend: str | None = None,
                   workers: int | None = None) -> PeelingResult:
    """(3,4) peel — λ₄ per lexicographic triangle id.

    The CSR backend peels a materialised triangle→K₄ incidence in
    frontier rounds; the object backend runs the generic Set-λ over
    :class:`TriangleView`; the disk backend replays the same incidence
    spooled to scratch files; the parallel backend shards the K₄ listing
    and the rounds when a pool can pay.  ``backend=None`` follows the
    representation passed in."""
    backend = resolve_backend(graph, backend)
    if backend == "disk":
        disk, converted = _ensure_disk(graph)
        try:
            from repro.external.engine import disk_nucleus34_peel

            return disk_nucleus34_peel(disk)
        finally:
            if converted:
                disk.close()
    if backend == "csr-parallel":
        return parallel_nucleus34_peel(as_csr(graph),
                                       _resolve_parallel_workers(workers))
    if backend == "csr":
        return bulk_nucleus34_peel(as_csr(graph))
    return peel(build_view(as_object(graph), 3, 4))


def _variant_kernel_backend(backend: str | None, workers: int | None,
                            graph_kind: str) -> str:
    """Resolve the backend for the flat-native variant graphs
    (:class:`~repro.graph.directed.DirectedGraph`,
    :class:`~repro.graph.temporal.TemporalGraph`).

    Their native representation *is* the flat arrays, so ``backend=None``
    and ``"csr"`` run the generic kernel; ``"object"`` forces the
    set/heap reference engine; ``"csr-parallel"`` validates ``workers``
    and degrades to the sequential kernel (the variant peels are
    sequential); ``"disk"`` has no representation for these graphs.
    """
    if backend is None:
        return "kernel"
    _check(backend)
    if backend == "object":
        return "object"
    if backend == "disk":
        graph_cls = ("DirectedGraph" if graph_kind == "directed"
                     else "TemporalGraph")
        supported = tuple(name for name in BACKENDS if name != "disk")
        raise InvalidParameterError(
            f"backend 'disk' is not supported for {graph_kind} graphs "
            f"({graph_cls}); choose from {supported}")
    if backend == "csr-parallel":
        _resolve_parallel_workers(workers)
    return "kernel"


def weighted_core_peel(graph: AnyGraph, weights: Any,
                       backend: str | None = None,
                       workers: int | None = None) -> PeelingResult:
    """Weighted-degree peel — λʷ per vertex plus removal order.

    The object backend runs the reference heap peel over adjacency sets;
    the CSR and disk backends run the generic flat kernel
    (:mod:`repro.core.generic_peel`) with float heap buckets over the
    flat arrays (windowed memmap reads on disk).  ``csr-parallel``
    validates ``workers`` and degrades to the sequential kernel.
    ``weights`` is a mapping keyed by endpoint pair or a sequence indexed
    by lexicographic edge id — the same on every backend.
    """
    from repro.kcore import variants as _variants
    from repro.kcore.params import edge_values

    wlist = edge_values(graph, weights, kind="weight", lo=0.0)
    backend = resolve_backend(graph, backend)
    if backend == "csr-parallel":
        _resolve_parallel_workers(workers)
        backend = "csr"
    if backend == "object":
        return _variants._object_weighted_core(as_object(graph), wlist)
    if backend == "disk":
        disk, converted = _ensure_disk(graph)
        try:
            return _variants._kernel_weighted_core(disk, wlist)
        finally:
            if converted:
                disk.close()
    return _variants._kernel_weighted_core(as_csr(graph), wlist)


def uncertain_core_peel(graph: AnyGraph, probabilities: Any,
                        eta: float = 0.5,
                        backend: str | None = None,
                        workers: int | None = None) -> PeelingResult:
    """(k, η)-core peel — η-core number per vertex plus removal order.

    The object backend recomputes η-degrees through adjacency sets and an
    edge-index lookup per incident edge; the CSR and disk backends run
    the generic kernel with lazy int buckets and a capped downward
    η-degree search over the flat arrays.  ``csr-parallel`` validates
    ``workers`` and degrades to the sequential kernel.
    """
    from repro.kcore import uncertain as _uncertain
    from repro.kcore.params import edge_values, require_fraction

    require_fraction("eta", eta)
    plist = edge_values(graph, probabilities, kind="probability",
                        plural="probabilities", lo=0.0, hi=1.0)
    backend = resolve_backend(graph, backend)
    if backend == "csr-parallel":
        _resolve_parallel_workers(workers)
        backend = "csr"
    if backend == "object":
        return _uncertain._object_uncertain_core(as_object(graph), plist, eta)
    if backend == "disk":
        disk, converted = _ensure_disk(graph)
        try:
            return _uncertain._kernel_uncertain_core(disk, plist, eta)
        finally:
            if converted:
                disk.close()
    return _uncertain._kernel_uncertain_core(as_csr(graph), plist, eta)


def directed_core_peel(graph: Any, backend: str | None = None,
                       workers: int | None = None
                       ) -> tuple[PeelingResult, PeelingResult]:
    """D-core peels — independent ``(in, out)`` peeling results.

    Takes a :class:`~repro.graph.directed.DirectedGraph`; ``backend=None``
    runs the generic kernel over its flat successor/predecessor arrays,
    ``backend="object"`` the set-based reference engine.
    """
    from repro.graph.directed import DirectedGraph
    from repro.kcore import variants as _variants

    if not isinstance(graph, DirectedGraph):
        raise InvalidParameterError(
            "directed_core_peel needs a DirectedGraph "
            "(DirectedGraph(n, arcs))")
    mode = _variant_kernel_backend(backend, workers, "directed")
    if mode == "object":
        return _variants._object_directed_core(graph)
    return _variants._kernel_directed_core(graph)


def _require_temporal(graph: Any) -> None:
    from repro.graph.temporal import TemporalGraph

    if not isinstance(graph, TemporalGraph):
        raise InvalidParameterError(
            "temporal core dispatch needs a TemporalGraph "
            "(TemporalGraph(n, events))")


def temporal_core_peel(graph: Any, h: int = 1,
                       backend: str | None = None,
                       workers: int | None = None) -> PeelingResult:
    """(·, h)-core peel of a :class:`~repro.graph.temporal.TemporalGraph`.

    ``backend=None`` runs the generic kernel over the cached CSR of the
    distinct interacting pairs, skipping edges below the ``h`` threshold
    in the decrement rule — no per-threshold graph rebuild;
    ``backend="object"`` peels the materialised h-thresholded object
    graph through the reference Set-λ engine.
    """
    from repro.kcore import temporal as _temporal
    from repro.kcore.params import require_count

    _require_temporal(graph)
    require_count("interaction threshold h", h)
    mode = _variant_kernel_backend(backend, workers, "temporal")
    if mode == "object":
        return peel(build_view(graph.threshold(h), 1, 2))
    return _temporal._kernel_temporal_core(graph, h)


def temporal_core_sweep(graph: Any, backend: str | None = None,
                        workers: int | None = None
                        ) -> dict[int, PeelingResult]:
    """Peeling results for every ``h`` from 1 to the max interaction count.

    The kernel backend builds the pair CSR **once** and re-peels it per
    threshold (the rebuild-free sweep behind
    ``temporal_core_profile``); the object backend materialises a
    thresholded graph per ``h`` — the reference the parity suite checks
    against.
    """
    from repro.kcore import temporal as _temporal

    _require_temporal(graph)
    mode = _variant_kernel_backend(backend, workers, "temporal")
    top = max(graph.max_count, 1)
    if mode == "object":
        return {h: peel(build_view(graph.threshold(h), 1, 2))
                for h in range(1, top + 1)}
    return {h: _temporal._kernel_temporal_core(graph, h)
            for h in range(1, top + 1)}


def _disk_decompose(graph: AnyGraph, r: int, s: int,
                    algorithm: str) -> Decomposition:
    """Run :func:`repro.external.engine.disk_decomposition`, converting to a
    temporary ``.diskcsr`` directory when needed.  A converted run re-points
    the result at the caller's graph (and rebuilds the view over it) before
    removing the scratch directory, so the result never references deleted
    memmap files."""
    from repro.external.engine import disk_decomposition

    disk, converted = _ensure_disk(graph)
    try:
        result = disk_decomposition(disk, r, s, algorithm=algorithm)
        if not converted:
            return result
        if (r, s) == (3, 4):
            from repro.core.views import CSRTriangleView

            view: Any = CSRTriangleView(
                as_csr(graph),
                _enumeration=(result.view._vertices, result.view._degrees))
        else:
            view = build_view(graph, r, s)
        return Decomposition(graph, r, s, result.algorithm, result.lam,
                             result.hierarchy, view, result.peel_seconds,
                             result.post_seconds, fnd_stats=result.fnd_stats)
    finally:
        if converted:
            disk.close()


def decompose(graph: AnyGraph, r: int = 1, s: int = 2,
              algorithm: str = "fnd",
              backend: str | None = None,
              workers: int | None = None) -> Decomposition:
    """Full nucleus decomposition on the chosen backend.

    ``backend=None`` follows the representation passed in; naming a
    backend explicitly forces that *engine* (useful for A/B runs).  On the
    CSR backend, FND for the paper's evaluated (r, s) pairs and LCPS run
    *directly* on the flat arrays — peel, hierarchy construction and
    traversal never build an object graph; the remaining algorithms peel
    through the CSR cell views.  FND is one pipeline: clique listing,
    frontier-round peel, level-wise construction.  The parallel backend
    runs the same pipeline with a pool of ``workers`` processes when one
    can pay, the condensed tree still node-for-node identical;
    ``workers`` is ignored by the other backends.  The disk backend streams the flat
    arrays (and, for (2,3)/(3,4), a spooled incidence) from files through
    windowed block reads — λ and the condensed hierarchy are identical to
    the CSR engine while peak memory stays bounded by the window cache.
    The returned :class:`Decomposition` carries the graph
    exactly as it was passed in, with one exception: running the object
    engine on a :class:`CSRGraph` input converts, since that engine's
    views and traversals need the object representation.
    """
    backend = resolve_backend(graph, backend)
    if backend == "object":
        return nucleus_decomposition(as_object(graph), r, s,
                                     algorithm=algorithm)
    if backend == "disk":
        return _disk_decompose(graph, r, s, algorithm)
    count = (_resolve_parallel_workers(workers)
             if backend == "csr-parallel" else 1)
    csr = as_csr(graph)
    if algorithm == "fnd" and (r, s) in FND_RS:
        stats = FndInstrumentation()
        start = time.perf_counter()
        if count > 1:
            peeling, hierarchy, view = parallel_fnd_decomposition(
                csr, r, s, count, instrumentation=stats)
        else:
            peeling, hierarchy, view = frontier_fnd(
                csr, r, s, instrumentation=stats)
        total = time.perf_counter() - start
        post_s = min(stats.build_seconds, total)
        return Decomposition(graph, r, s, algorithm, peeling.lam, hierarchy,
                             view, total - post_s, post_s, fnd_stats=stats)
    if algorithm == "lcps":
        if (r, s) != (1, 2):
            raise InvalidParameterError("LCPS applies to (1,2) (k-core) only")
        start = time.perf_counter()
        peeling = bulk_core_peel(csr)
        peel_s = time.perf_counter() - start
        start = time.perf_counter()
        hierarchy = lcps_hierarchy(csr, peeling)
        post_s = time.perf_counter() - start
        return Decomposition(graph, 1, 2, algorithm, peeling.lam, hierarchy,
                             build_view(csr, 1, 2), peel_s, post_s)
    # generic algorithms: peel through the CSR cell views; the carried
    # graph stays whatever representation the caller handed in (naive/dft/
    # hypo touch the graph only through the view)
    return nucleus_decomposition(graph, r, s, algorithm=algorithm,
                                 view=build_view(csr, r, s))


def build_query_index(graph: AnyGraph, r: int = 1, s: int = 2,
                      algorithm: str = "fnd",
                      backend: str | None = None,
                      workers: int | None = None) -> "FlatHierarchyIndex":
    """Decompose on the chosen backend and return the flat serving index.

    The build-once half of build-once/serve-many: runs :func:`decompose`
    (any backend, identical hierarchy) and lowers the condensed tree to a
    :class:`~repro.flatindex.FlatHierarchyIndex` — persist it with
    ``index.save(path)`` and a fresh process serves batch queries via
    ``FlatHierarchyIndex.load(path)`` without re-peeling.
    """
    from repro.flatindex import FlatHierarchyIndex

    return FlatHierarchyIndex(decompose(graph, r, s, algorithm=algorithm,
                                        backend=backend, workers=workers))


def load_query_index(path: str | Path, *, mmap_mode: str | None = "r",
                     graph: Any = None,
                     view: Any = None) -> "FlatHierarchyIndex":
    """Load a persisted ``.npz`` flat index — the serve-many half.

    ``mmap_mode="r"`` (the default) memory-maps the arrays read-only, so
    the index costs one page-cache copy no matter how many processes
    serve it (what ``repro-nucleus serve`` workers and the CLI ``query``
    subcommand use); ``mmap_mode=None`` copies them into the process.
    ``graph``/``view`` attach only when profile statistics were skipped
    at save time (``stats=False``).  See also
    :class:`repro.serve.IndexRegistry` for serving several indexes from
    one process.
    """
    from repro.flatindex import FlatHierarchyIndex

    return FlatHierarchyIndex.load(path, graph=graph, view=view,
                                   mmap_mode=mmap_mode)
