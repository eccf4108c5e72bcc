"""Frontier rounds: the CSR engine's peels, with or without a pool.

A Batagelj–Zaversnik peel pops one minimum cell at a time — correct, and
intrinsically serial, with an interpreted inner loop.  The bulk peels
here run the De Zoysa et al. 2021 bucket-synchronous formulation instead:
every round peels the *entire* current-minimum frontier at once and
applies the merged support decrements afterwards.  λ is a structural
quantity (the largest k whose (k, s)-subgraph contains the cell), so the
frontier formulation settles every cell at exactly the per-cell value —
the parity suites assert elementwise equality with the object engine —
while turning the inner loop into a handful of numpy gathers per round.

With a :class:`~repro.parallel.pool.WorkerPool`, each round's decrement
is sharded: the parent stamps the frontier into the shared ``peel_round``
array, workers compute sparse ``(targets, counts)`` pairs over their
frontier shard — exactly what the in-process kernels emit — and the
parent merges them by sorted target id.  Addition commutes, so λ is
byte-identical for every worker count (and to the in-process run).
Without a pool the same kernels run on the whole frontier in one call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.csr_peel import (
    nucleus34_incidence_arrays,
    truss_incidence_arrays,
)
from repro.core.peeling import PeelingResult
from repro.graph.csr import CSRGraph, csr_arrays_int64
from repro.parallel.incidence import (
    parallel_nucleus34_incidence,
    parallel_truss_incidence,
)
from repro.parallel.kernels import (
    core_decrement,
    incidence_decrement,
    weighted_cuts,
)

if TYPE_CHECKING:
    from repro.parallel.pool import WorkerPool
    from repro.parallel.shm import SharedArrayBundle

__all__ = [
    "bulk_core_peel",
    "bulk_nucleus34_peel",
    "bulk_truss_peel",
    "merge_sparse_decrements",
    "parallel_core_peel",
    "parallel_nucleus34_peel",
    "parallel_truss_peel",
    "worker_pool",
]


def _round_loop(sup, peel_round, decrement_for) -> PeelingResult:
    """The shared frontier loop: extract, stamp, decrement, clamp.

    ``sup`` holds the current s-clique degrees (mutated toward λ in
    place); ``peel_round[x]`` is the round ``x`` was peeled in (−1 =
    alive) — the only state the decrement kernels read.  Each round peels
    the whole minimum-support frontier: every frontier cell's λ is the
    round's k, and surviving cells clamp at k exactly like the
    sequential ``if sup > k`` guard.

    Frontier discovery is bucket-driven, not scan-driven: a cell is
    dropped into ``pending[v]`` whenever its support reaches ``v`` (once
    at build time, then on every effective decrement), and the loop only
    ever touches the cells of the current bucket plus the cells a round
    actually decremented — entries left behind at higher levels are
    filtered by the liveness check.  A round therefore costs
    O(frontier + touched), so long-cascade graphs (paths, trees: O(n)
    rounds) peel in linear total time instead of the quadratic a
    full-array rescan per round would give.
    """
    size = len(sup)
    if size == 0:
        return PeelingResult(lam=[], max_lambda=0, order=[])
    lam = np.zeros(size, dtype=np.int64)
    max_sup = int(sup.max())
    # pending[v]: arrays of cells whose support last settled at v
    pending: list[list] = [[] for _ in range(max_sup + 1)]
    by_sup = np.argsort(sup, kind="stable")
    bounds = np.searchsorted(sup[by_sup], np.arange(max_sup + 2))
    for level in range(max_sup + 1):
        chunk = by_sup[bounds[level]:bounds[level + 1]]
        if len(chunk):
            pending[level].append(chunk)
    order_parts = []
    remaining = size
    rnd = 0
    k = 0
    max_lambda = 0
    while remaining:
        while not pending[k]:
            k += 1
        groups = pending[k]
        candidates = groups[0] if len(groups) == 1 else np.concatenate(groups)
        pending[k] = []
        # a candidate is stale when the cell was peeled at a lower level
        # (its entry here was superseded); live ones all sit exactly at k
        frontier = candidates[peel_round[candidates] < 0]
        if len(frontier) == 0:
            continue
        frontier = np.sort(frontier)
        lam[frontier] = k
        if k > max_lambda:
            max_lambda = k
        peel_round[frontier] = rnd
        targets, counts = decrement_for(frontier, rnd)
        if len(targets):
            old = sup[targets]
            new_vals = np.maximum(k, old - counts)
            changed = new_vals < old
            cells = targets[changed]
            if len(cells):
                vals = new_vals[changed]
                sup[cells] = vals
                # one stable sort splits the touched cells by new level
                by_val = np.argsort(vals, kind="stable")
                vals = vals[by_val]
                cells = cells[by_val]
                cuts = (np.flatnonzero(vals[1:] != vals[:-1]) + 1).tolist()
                starts = [0, *cuts]
                for level, lo, hi in zip(vals[starts].tolist(), starts,
                                         [*cuts, len(cells)], strict=True):
                    pending[level].append(cells[lo:hi])
        order_parts.append(frontier)
        remaining -= len(frontier)
        rnd += 1
    order = (np.concatenate(order_parts) if order_parts
             else np.empty(0, dtype=np.int64))
    return PeelingResult(lam=lam.tolist(), max_lambda=max_lambda,
                         order=order.tolist())


#: frontiers touching fewer incidence slots than this are decremented by
#: the parent itself — the round-trip to the workers costs more than the
#: gather.  Most rounds of a peel are tiny; only the heavy early frontiers
#: are worth farming out.  Only rounds of a pooled run consult it;
#: whether a run gets a pool at all is up to :data:`POOL_CROSSOVER_EDGES`.
MIN_SHARD_SLOTS = 32768


class _ShardedDecrement:
    """Pool-side decrement: shard the frontier, merge sparse partials.

    Owns the shared round state (``peel_round`` + frontier buffer) for
    the duration of one peel; the static arrays (adjacency or incidence)
    are bound by the caller.  Workers return sparse ``(targets, counts)``
    pairs — exactly what the in-process kernels produce — and the parent
    merges them by sorted target id, so a round's merge cost follows the
    cells it actually touched instead of O(workers × cells) dense-vector
    sums.  Rounds whose total slot weight falls under
    :data:`MIN_SHARD_SLOTS` run the same kernel in the parent instead
    (``local_fn``) — byte-identical result, no round trip.  Use as a
    context manager so the segments are always unlinked.
    """

    def __init__(self, pool: WorkerPool, size: int, weights, task, local_fn):
        self.pool = pool
        self.weights = weights
        self.task = task
        self.local_fn = local_fn
        self.state = None
        from repro.parallel.shm import SharedArrayBundle

        try:
            self.state = SharedArrayBundle.create({
                "peel_round": np.full(size, -1, dtype=np.int64),
                "frontier": np.zeros(size, dtype=np.int64),
            })
            pool.bind([self.state.spec])
        except Exception:
            # __exit__ never runs when __init__ raises — free the
            # segments here or they leak for the process lifetime
            self._release()
            raise
        self.peel_round = self.state["peel_round"]
        self._frontier_buf = self.state["frontier"]

    def _release(self) -> None:
        if self.state is not None:
            self.state.unlink()
            self.state = None

    def __call__(self, frontier, rnd):
        shard_weights = self.weights[frontier]
        if int(shard_weights.sum()) < MIN_SHARD_SLOTS:
            return self.local_fn(self.peel_round, frontier, rnd)
        count = len(frontier)
        self._frontier_buf[:count] = frontier
        cuts = weighted_cuts(shard_weights, self.pool.workers)
        parts = self.pool.scatter([self.task + (rnd, lo, hi)
                                   for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)])
        return merge_sparse_decrements(parts)

    def __enter__(self) -> "_ShardedDecrement":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.pool.unbind()
        finally:
            self._release()


def merge_sparse_decrements(parts):
    """Sum per-worker sparse ``(targets, counts)`` pairs into one pair.

    Frontier shards overlap in the cells they touch, so equal targets
    from different workers must add; ``np.unique`` keeps the merged
    targets sorted (the same order the in-process kernels emit), making
    the pool path's output byte-identical to a single whole-frontier
    kernel call.
    """
    parts = [(t, c) for t, c in parts if len(t)]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if len(parts) == 1:
        return parts[0]
    all_targets = np.concatenate([t for t, _ in parts])
    all_counts = np.concatenate([c for _, c in parts])
    targets, inverse = np.unique(all_targets, return_inverse=True)
    counts = np.zeros(len(targets), dtype=np.int64)
    np.add.at(counts, inverse, all_counts)
    return targets, counts


def _peel(sup, static: dict, weights, task: tuple, decrement,
          pool: WorkerPool | None, bundle=None) -> PeelingResult:
    """Shared driver: in-process rounds (``pool=None``) or farmed rounds.

    ``decrement(peel_round, frontier, rnd)`` is the in-process kernel;
    ``task`` names the same kernel in the worker vocabulary.  With a
    pool, ``bundle`` may hand in ``static`` already shared; otherwise it
    is exported — and freed — here.
    """
    if pool is None:
        peel_round = np.full(len(sup), -1, dtype=np.int64)

        def decrement_for(frontier, rnd):
            return decrement(peel_round, frontier, rnd)

        return _round_loop(sup, peel_round, decrement_for)
    from repro.parallel.shm import SharedArrayBundle

    owned = bundle is None
    if owned:
        bundle = SharedArrayBundle.create(static)
    try:
        pool.bind([bundle.spec])
        with _ShardedDecrement(pool, len(sup), weights, task,
                               decrement) as sharded:
            return _round_loop(sup, sharded.peel_round, sharded)
    finally:
        if owned:
            bundle.unlink()


def bulk_core_peel(csr: CSRGraph, pool: WorkerPool | None = None,
                   static=None) -> PeelingResult:
    """(1,2) bulk peel: core numbers λ₂, frontier rounds over the CSR.

    ``static`` may hand in the int64 ``indptr``/``indices`` arrays
    already converted — with a pool, the :class:`SharedArrayBundle`
    exporting them (the FND pipeline shares the adjacency once across its
    peel and construction phases).
    """
    arrays = csr_arrays_int64(csr) if static is None else static
    indptr, indices = arrays["indptr"], arrays["indices"]
    sup = np.diff(indptr)

    def decrement(peel_round, frontier, rnd):
        return core_decrement(indptr, indices, peel_round, frontier)

    return _peel(sup, {"indptr": indptr, "indices": indices}, sup.copy(),
                 ("core-dec",), decrement, pool, static)


def _bulk_incidence_peel(sup, ptr, comps, pool: WorkerPool | None,
                         static: SharedArrayBundle | None = None,
                         ) -> PeelingResult:
    """Shared driver for the (2,3)/(3,4) bulk peels over an incidence.

    ``static`` may hand in an already-shared ``ptr``/``c1..cN`` bundle
    (see :func:`bulk_core_peel`).
    """
    named = {"ptr": ptr}
    for i, comp in enumerate(comps):
        named[f"c{i + 1}"] = comp

    def decrement(peel_round, frontier, rnd):
        return incidence_decrement(ptr, comps, peel_round, frontier, rnd)

    return _peel(sup, named, np.diff(ptr), ("inc-dec", len(comps)),
                 decrement, pool, static)


def bulk_truss_peel(csr: CSRGraph, pool: WorkerPool | None = None,
                    ) -> PeelingResult:
    """(2,3) bulk peel: λ₃ per lex edge id, frontier rounds over the
    materialised edge→triangle incidence (built sharded when a pool is
    given)."""
    if pool is None:
        sup, ptr, comps = truss_incidence_arrays(csr)
    else:
        sup, ptr, comp1, comp2 = parallel_truss_incidence(csr, pool)
        comps = (comp1, comp2)
    return _bulk_incidence_peel(sup, ptr, comps, pool)


def bulk_nucleus34_peel(csr: CSRGraph, pool: WorkerPool | None = None,
                        ) -> PeelingResult:
    """(3,4) bulk peel: λ₄ per lex triangle id, frontier rounds over the
    materialised triangle→K₄ incidence (built sharded when a pool is
    given)."""
    if pool is None:
        _, sup, ptr, comps = nucleus34_incidence_arrays(csr)
    else:
        _, sup, ptr, comps = parallel_nucleus34_incidence(csr, pool)
    return _bulk_incidence_peel(sup, ptr, comps, pool)


#: set to ``1``/``0`` to force worker sharding on/off regardless of the
#: host's core count (CI and tests; unset = decide from ``os.cpu_count``)
FORCE_SHARDING_ENV = "REPRO_FORCE_SHARDING"

#: inputs with at most this many edges never start a worker pool.  On a
#: 2-vCPU host a forced 2-worker pool ran 1.5–2.8× slower than the
#: in-process rounds at every size measured, from 18k edges up to this
#: one (975,315 edges, the largest), so the crossover sits at the largest
#: size measured rather than at an extrapolated one.  Independent of
#: ``REPRO_FORCE_SHARDING``, which overrides only the core-count check.
POOL_CROSSOVER_EDGES = 975_315


def sharding_effective() -> bool:
    """Whether farming work to a pool can actually run concurrently.

    On a single-core host the shards serialise, so every pipe round-trip
    and shared-memory copy is pure loss; the right degradation is the
    in-process bulk path — identical λ, no pool.  The
    ``REPRO_FORCE_SHARDING`` environment variable overrides the detection
    both ways.
    """
    forced = os.environ.get(FORCE_SHARDING_ENV, "").strip().lower()
    if forced in ("1", "true", "yes", "on"):
        return True
    if forced in ("0", "false", "no", "off"):
        return False
    return _available_cpus() >= 2


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores; in a cgroup/affinity-
    limited container that overcounts and would engage the pool on what
    is effectively a single-core box.  The scheduler affinity mask is the
    truthful number where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


@contextmanager
def worker_pool(csr: CSRGraph, workers: int) -> Iterator[WorkerPool | None]:
    """A ``workers``-process pool when one can pay for ``csr``, else None.

    The pool — and with it every shared-memory export — starts only for
    inputs above :data:`POOL_CROSSOVER_EDGES` on a host where shards can run
    concurrently; everything else runs the same functions in process.
    """
    if (workers == 1 or csr.m <= POOL_CROSSOVER_EDGES
            or not sharding_effective()):
        yield None
        return
    from repro.parallel.pool import WorkerPool

    with WorkerPool(workers) as pool:
        yield pool


def parallel_core_peel(csr: CSRGraph, workers: int) -> PeelingResult:
    """(1,2) bulk peel with its own ``workers``-process pool (in process
    when a pool cannot pay, see :func:`worker_pool`)."""
    with worker_pool(csr, workers) as pool:
        return bulk_core_peel(csr, pool)


def parallel_truss_peel(csr: CSRGraph, workers: int) -> PeelingResult:
    """(2,3) sharded incidence + bulk peel with its own pool."""
    with worker_pool(csr, workers) as pool:
        return bulk_truss_peel(csr, pool)


def parallel_nucleus34_peel(csr: CSRGraph, workers: int) -> PeelingResult:
    """(3,4) sharded incidence + bulk peel with its own pool."""
    with worker_pool(csr, workers) as pool:
        return bulk_nucleus34_peel(csr, pool)
