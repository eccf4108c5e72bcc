"""Backend dispatch: run any decomposition on any graph engine.

Three backends implement the peeling engine:

* ``"object"`` — :class:`~repro.graph.adjacency.Graph`, per-vertex
  ``set``/``list`` adjacency.  Flexible, allocation-heavy.
* ``"csr"`` — :class:`~repro.graph.csr.CSRGraph`, flat ``indptr`` /
  ``indices`` / edge-id arrays.  The peels run in *frontier rounds*
  (:mod:`repro.parallel.bulk`: every round peels the whole
  minimum-support frontier with a few numpy passes), and FND builds its
  hierarchy level by level from the settled λ values
  (:mod:`repro.parallel.construct`).  ``workers=N`` threads the triangle
  and K₄ listing under the (2,3)/(3,4) incidences: its kernel ranges map
  over ``min(workers, CPUs in the affinity mask)`` threads
  (:func:`~repro.graph.csr.csr_triangle_edge_ids`) and concatenate in
  order, so every array is the same bytes at every count.  Requires
  numpy.
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
either way.  Every entry point validates ``workers`` once, whatever the
backend (an explicit count, else ``$REPRO_WORKERS``, else 1; see
:func:`resolve_workers`); only the csr listing uses it.  Cell ids are
representation-independent (vertices are shared, edge and triangle ids
are lexicographic on both backends), so the λ arrays compare
element-for-element, and the condensed hierarchies are identical.
The CLI exposes the switch as ``--backend`` (default: auto) plus
``--workers``, and the benchmark suite as the ``REPRO_BENCH_BACKEND``
environment variable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

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
)
from repro.parallel.fnd import FND_RS, frontier_fnd

if TYPE_CHECKING:
    from pathlib import Path

    from repro.external.diskcsr import DiskCSRGraph
    from repro.flatindex import FlatHierarchyIndex

    AnyGraph = Graph | CSRGraph | DiskCSRGraph

__all__ = [
    "BACKENDS",
    "WORKERS_ENV",
    "as_backend",
    "as_csr",
    "as_disk",
    "as_object",
    "build_query_index",
    "core_peel",
    "decompose",
    "directed_core_peel",
    "load_query_index",
    "nucleus34_peel",
    "resolve_backend",
    "resolve_workers",
    "temporal_core_peel",
    "temporal_core_sweep",
    "truss_peel",
    "uncertain_core_peel",
    "weighted_core_peel",
]

BACKENDS = ("object", "csr", "disk")

#: environment variable consulted when ``workers=None`` is passed
WORKERS_ENV = "REPRO_WORKERS"


def _check(backend: str) -> None:
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")


def resolve_workers(workers: int | None = None) -> int:
    """Validate a worker count, falling back to ``$REPRO_WORKERS`` then 1.

    Raises :class:`InvalidParameterError` for zero, negative, or
    non-integer counts — both the explicit parameter and the environment
    value are validated the same way.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None or raw.strip() == "":
            return 1
        try:
            workers = int(raw.strip())
        except ValueError:
            raise InvalidParameterError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise InvalidParameterError(
            f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise InvalidParameterError(
            f"workers must be >= 1, got {workers}")
    return workers


def resolve_backend(graph: AnyGraph, backend: str | None) -> str:
    """Resolve a ``backend=None`` sentinel to the engine matching ``graph``.

    An explicit backend name is validated and returned untouched — passing
    ``backend="object"`` with a :class:`CSRGraph` really does convert and
    run the object engine (useful for A/B measurements).
    """
    if backend is None:
        if isinstance(graph, CSRGraph):
            return "csr"
        # imported here: in-memory runs never load the disk engine
        from repro.external.diskcsr import DiskCSRGraph

        return "disk" if isinstance(graph, DiskCSRGraph) else "object"
    _check(backend)
    return backend


def _resolve(graph: AnyGraph, backend: str | None,
             workers: int | None) -> tuple[str, int]:
    """``(engine, listing threads)`` — the one check every entry point
    makes: both are validated whatever the engine, though only the csr
    listing uses the thread count."""
    return resolve_backend(graph, backend), resolve_workers(workers)


def as_csr(graph: AnyGraph) -> CSRGraph:
    """The CSR representation of ``graph`` (no-op if already CSR; a
    :class:`Graph` hands over the CSR it holds, building it only once)."""
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, Graph):
        return CSRGraph.from_graph(graph)
    # the disk representation: its endpoint columns are already valid
    return CSRGraph.from_arrays(graph.n, graph.esrc, graph.etgt,
                                name=graph.name)


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


@contextmanager
def _on_disk(graph: AnyGraph) -> "Iterator[DiskCSRGraph]":
    """``graph`` as a :class:`DiskCSRGraph` for the ``with`` block.  A
    converted graph lives in a temporary directory it owns, removed on
    exit; a disk graph passed in stays open for its caller."""
    disk = as_disk(graph)
    try:
        yield disk
    finally:
        if disk is not graph:
            disk.close()


def as_backend(graph: AnyGraph, backend: str) -> AnyGraph:
    """Convert ``graph`` to the representation the backend peels."""
    _check(backend)
    if backend == "object":
        return as_object(graph)
    if backend == "disk":
        return as_disk(graph)
    return as_csr(graph)


def _peel(graph: AnyGraph, r: int, s: int, backend: str | None,
          workers: int | None) -> PeelingResult:
    """The (r, s) peel behind :func:`core_peel`, :func:`truss_peel` and
    :func:`nucleus34_peel` on whichever engine ``backend`` names."""
    backend, count = _resolve(graph, backend, workers)
    if backend == "object":
        return peel(build_view(as_object(graph), r, s))
    if backend == "disk":
        from repro.external.engine import (
            disk_core_peel,
            disk_nucleus34_peel,
            disk_truss_peel,
        )

        disk_peel = {(1, 2): disk_core_peel, (2, 3): disk_truss_peel,
                     (3, 4): disk_nucleus34_peel}[(r, s)]
        with _on_disk(graph) as disk:
            return disk_peel(disk)
    csr = as_csr(graph)
    if (r, s) == (1, 2):
        return bulk_core_peel(csr)  # lists no cliques: nothing to thread
    if (r, s) == (2, 3):
        return bulk_truss_peel(csr, count)
    return bulk_nucleus34_peel(csr, count)


def core_peel(graph: AnyGraph, backend: str | None = None,
              workers: int | None = None) -> PeelingResult:
    """(1,2) peel — λ₂ (core numbers) plus a smallest-last order.

    The CSR backend peels in frontier rounds (the order is round order);
    the object backend runs the generic Set-λ over :class:`VertexView`;
    the disk backend the Batagelj–Zaversnik array peel over windowed
    memmap reads.  ``workers`` is validated on every backend, but (1,2)
    lists no cliques, so the CSR rounds have nothing to thread.
    ``backend=None`` follows the representation passed in.
    """
    return _peel(graph, 1, 2, backend, workers)


def truss_peel(graph: AnyGraph, backend: str | None = None,
               workers: int | None = None) -> PeelingResult:
    """(2,3) peel — λ₃ per edge id (ids are lexicographic on every backend,
    so the arrays compare element-for-element).  ``backend=None`` follows
    the representation passed in; the disk backend spools the triangle
    incidence to scratch files; the CSR backend lists the triangles on up
    to ``workers`` threads."""
    return _peel(graph, 2, 3, backend, workers)


def nucleus34_peel(graph: AnyGraph, backend: str | None = None,
                   workers: int | None = None) -> PeelingResult:
    """(3,4) peel — λ₄ per lexicographic triangle id.

    The CSR backend lists the triangles and four-cliques on up to
    ``workers`` threads and peels the materialised triangle→K₄ incidence
    in frontier rounds; the object backend runs the generic Set-λ over
    :class:`TriangleView`; the disk backend replays the same incidence
    spooled to scratch files.  ``backend=None`` follows the
    representation passed in."""
    return _peel(graph, 3, 4, backend, workers)


def _variant_kernel_backend(backend: str | None, workers: int | None,
                            graph_kind: str) -> str:
    """Resolve the backend for the flat-native variant graphs
    (:class:`~repro.graph.directed.DirectedGraph`,
    :class:`~repro.graph.temporal.TemporalGraph`).

    Their native representation *is* the flat arrays, so ``backend=None``
    and ``"csr"`` run the generic kernel; ``"object"`` forces the
    set/heap reference engine; ``"disk"`` has no representation for these
    graphs.  ``workers`` is validated and unused: the variant peels are
    sequential.
    """
    resolve_workers(workers)
    if backend is None:
        return "kernel"
    _check(backend)
    if backend == "disk":
        graph_cls = ("DirectedGraph" if graph_kind == "directed"
                     else "TemporalGraph")
        supported = tuple(name for name in BACKENDS if name != "disk")
        raise InvalidParameterError(
            f"backend 'disk' is not supported for {graph_kind} graphs "
            f"({graph_cls}); choose from {supported}")
    return "object" if backend == "object" else "kernel"


def weighted_core_peel(graph: AnyGraph, weights: Any,
                       backend: str | None = None,
                       workers: int | None = None) -> PeelingResult:
    """Weighted-degree peel — λʷ per vertex plus removal order.

    The object backend runs the reference heap peel over adjacency sets;
    the CSR and disk backends run the generic flat kernel
    (:mod:`repro.core.generic_peel`) with float heap buckets over the
    flat arrays (windowed memmap reads on disk).  ``workers`` is
    validated and unused: the kernel is sequential.
    ``weights`` is a mapping keyed by endpoint pair or a sequence indexed
    by lexicographic edge id — the same on every backend.
    """
    from repro.kcore import variants as _variants
    from repro.kcore.params import edge_values

    wlist = edge_values(graph, weights, kind="weight", lo=0.0)
    backend, _ = _resolve(graph, backend, workers)
    if backend == "object":
        return _variants._object_weighted_core(as_object(graph), wlist)
    if backend == "disk":
        with _on_disk(graph) as disk:
            return _variants._kernel_weighted_core(disk, wlist)
    return _variants._kernel_weighted_core(as_csr(graph), wlist)


def uncertain_core_peel(graph: AnyGraph, probabilities: Any,
                        eta: float = 0.5,
                        backend: str | None = None,
                        workers: int | None = None) -> PeelingResult:
    """(k, η)-core peel — η-core number per vertex plus removal order.

    The object backend recomputes η-degrees through adjacency sets and an
    edge-index lookup per incident edge; the CSR and disk backends run
    the generic kernel with lazy int buckets and a capped downward
    η-degree search over the flat arrays.  ``workers`` is validated and
    unused: the kernel is sequential.
    """
    from repro.kcore import uncertain as _uncertain
    from repro.kcore.params import edge_values, require_fraction

    require_fraction("eta", eta)
    plist = edge_values(graph, probabilities, kind="probability",
                        plural="probabilities", lo=0.0, hi=1.0)
    backend, _ = _resolve(graph, backend, workers)
    if backend == "object":
        return _uncertain._object_uncertain_core(as_object(graph), plist, eta)
    if backend == "disk":
        with _on_disk(graph) as disk:
            return _uncertain._kernel_uncertain_core(disk, plist, eta)
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

    with _on_disk(graph) as disk:
        result = disk_decomposition(disk, r, s, algorithm=algorithm)
        if disk is graph:
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
    through the CSR cell views.  FND is one pipeline: clique listing on
    up to ``workers`` threads (every array the same bytes at any count),
    frontier-round peel, level-wise construction.  Every backend
    validates ``workers``; only that listing uses it.  The disk backend
    streams the flat arrays (and, for (2,3)/(3,4), a spooled incidence)
    from files through windowed block reads — λ and the condensed
    hierarchy are identical to the CSR engine while peak memory stays
    bounded by the window cache.  The returned :class:`Decomposition`
    carries the graph exactly as it was passed in, with one exception:
    running the object engine on a :class:`CSRGraph` input converts,
    since that engine's views and traversals need the object
    representation.
    """
    backend, count = _resolve(graph, backend, workers)
    if backend == "object":
        return nucleus_decomposition(as_object(graph), r, s,
                                     algorithm=algorithm)
    if backend == "disk":
        return _disk_decompose(graph, r, s, algorithm)
    csr = as_csr(graph)
    if algorithm == "fnd" and (r, s) in FND_RS:
        stats = FndInstrumentation()
        start = time.perf_counter()
        lam, hierarchy, view = frontier_fnd(csr, r, s, count,
                                            instrumentation=stats)
        total = time.perf_counter() - start
        post_s = min(stats.build_seconds, total)
        return Decomposition(graph, r, s, algorithm, lam, hierarchy,
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
                     graph: Any = None) -> "FlatHierarchyIndex":
    """Load a persisted ``.npz`` flat index — the serve-many half.

    ``mmap_mode="r"`` (the default) memory-maps the arrays read-only, so
    the index costs one page-cache copy no matter how many processes
    serve it (what ``repro-nucleus serve`` workers and the CLI ``query``
    subcommand use); ``mmap_mode=None`` copies them into the process.
    ``graph`` (the index's own graph) attaches only when profile
    statistics were skipped at save time (``stats=False``).  See also
    :class:`repro.serve.IndexRegistry` for serving several indexes from
    one process.
    """
    from repro.flatindex import FlatHierarchyIndex

    return FlatHierarchyIndex.load(path, graph=graph, mmap_mode=mmap_mode)
