"""Persistent worker processes for the shared-memory peeling subsystem.

A :class:`WorkerPool` spawns ``workers`` long-lived processes connected
by pipes.  Workers hold no state of their own beyond the shared-memory
bundles the parent has told them to :meth:`~WorkerPool.bind`; every task
is a tiny picklable tuple naming a range of work over those arrays, so
the inputs never cross the pipe and each reply carries only the task's
sparse output (decrement pairs, reduced spanning forests, or listing
shards) — nothing proportional to the graph.

Task vocabulary (see ``_worker_main``):

* ``core-dec`` / ``inc-dec`` — sparse ``(targets, counts)`` decrement
  pairs for a frontier shard (the round's touched cells only — the
  parent merges the per-worker pairs, so nothing dense ever moves);
* ``core-level`` / ``inc-level`` — level-``k`` connectivity pairs for a
  λ-frontier shard of the parallel hierarchy construction, reduced to
  the worker's local union-find spanning forest before they cross the
  pipe;
* ``triangles`` / ``k4`` — a shard of the vectorised clique-listing
  kernels of :mod:`repro.graph.csr` (these do return arrays, since their
  output size is unknown up front);
* ``bind`` / ``unbind`` / ``stop`` — lifecycle.

Worker count resolution (the ``workers=`` parameter everywhere, or the
``REPRO_WORKERS`` environment variable) lives here too.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback

from repro.errors import InvalidParameterError
from repro.parallel.shm import SharedArrayBundle

__all__ = ["WORKERS_ENV", "WorkerPool", "resolve_workers"]

#: environment variable consulted when ``workers=None`` is passed
WORKERS_ENV = "REPRO_WORKERS"


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


def _context():
    """Fork when the platform offers it (cheap start, inherits imports)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _worker_main(conn, untrack: bool) -> None:
    """Worker loop: attach bundles on bind, execute range tasks, reply."""
    import numpy as np  # noqa: F401 - ensures numpy is live before kernels

    from repro.graph.csr import k4_pair_kernel, triangle_pair_kernel
    from repro.parallel.kernels import (
        core_decrement,
        core_level_edges,
        incidence_decrement,
        incidence_level_edges,
        spanning_forest_reduce,
    )

    bundles: list[SharedArrayBundle] = []
    arrays: dict = {}
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "stop":
                break
            try:
                payload = None
                if command == "bind":
                    for spec in message[1]:
                        bundle = SharedArrayBundle.attach(spec, untrack)
                        bundles.append(bundle)
                        for key in bundle.keys():
                            arrays[key] = bundle[key]
                elif command == "unbind":
                    arrays.clear()
                    while bundles:
                        bundles.pop().close()
                elif command == "core-dec":
                    _, _rnd, lo, hi = message
                    frontier = arrays["frontier"][lo:hi]
                    payload = core_decrement(
                        arrays["indptr"], arrays["indices"],
                        arrays["peel_round"], frontier)
                elif command == "inc-dec":
                    _, ncomps, rnd, lo, hi = message
                    comps = tuple(arrays[f"c{i + 1}"] for i in range(ncomps))
                    frontier = arrays["frontier"][lo:hi]
                    payload = incidence_decrement(
                        arrays["ptr"], comps, arrays["peel_round"],
                        frontier, rnd)
                elif command == "core-level":
                    _, k, lo, hi = message
                    frontier = arrays["level_frontier"][lo:hi]
                    payload = spanning_forest_reduce(*core_level_edges(
                        arrays["indptr"], arrays["indices"], arrays["lam"],
                        frontier, k))
                elif command == "inc-level":
                    _, ncomps, k, lo, hi = message
                    comps = tuple(arrays[f"c{i + 1}"] for i in range(ncomps))
                    frontier = arrays["level_frontier"][lo:hi]
                    payload = spanning_forest_reduce(*incidence_level_edges(
                        arrays["ptr"], comps, arrays["lam"], frontier, k))
                elif command == "triangles":
                    _, n, lo, hi = message
                    payload = triangle_pair_kernel(
                        arrays["fptr"], arrays["fdst"], arrays["feid"],
                        arrays["fkeys"], n, lo, hi)
                elif command == "k4":
                    _, n, glo, ghi = message
                    payload = k4_pair_kernel(
                        arrays["tri_keys"], arrays["tri_uw"], arrays["tri_vw"],
                        arrays["tri_w"], arrays["run_ptr"], n, glo, ghi)
                else:
                    raise ValueError(f"unknown pool command {command!r}")
                conn.send(("ok", payload))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    finally:
        while bundles:
            bundles.pop().close()
        conn.close()


class WorkerPool:
    """``workers`` persistent processes executing shard tasks over
    shared-memory arrays.

    Use as a context manager; :meth:`close` tears the processes down.
    The pool is deliberately dumb — all scheduling intelligence (what to
    shard, by what weights) lives with the callers in
    :mod:`repro.parallel.bulk` and :mod:`repro.parallel.incidence`.
    """

    def __init__(self, workers: int):
        workers = resolve_workers(workers)
        self.workers = workers
        self._conns = []
        self._procs = []
        ctx = _context()
        try:
            untrack = ctx.get_start_method() != "fork"
            if not untrack:
                # fork workers must inherit the parent's resource tracker:
                # started this late, a child's first attach would spawn a
                # private tracker that "cleans up" (unlinks) segments the
                # parent still owns at worker exit.  A shared tracker
                # dedupes the attach registrations instead.
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker_main,
                                   args=(child_conn, untrack),
                                   daemon=True)
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except Exception:
            self.close()
            raise

    def _collect(self, conns) -> list:
        # drain every reply before raising — each command produces exactly
        # one reply, so the pipes stay in sync even across failures
        replies = [conn.recv() for conn in conns]
        for status, payload in replies:
            if status != "ok":
                raise RuntimeError(f"pool worker failed:\n{payload}")
        return [payload for _, payload in replies]

    def broadcast(self, message: tuple) -> list:
        """Send the same task to every worker; return replies in order."""
        for conn in self._conns:
            conn.send(message)
        return self._collect(self._conns)

    def scatter(self, tasks: list[tuple]) -> list:
        """Send task ``i`` to worker ``i``; return replies in order."""
        if len(tasks) != self.workers:
            raise ValueError(
                f"need exactly {self.workers} tasks, got {len(tasks)}")
        for conn, task in zip(self._conns, tasks, strict=True):
            conn.send(task)
        return self._collect(self._conns)

    def bind(self, specs: list[tuple]) -> None:
        """Attach the given bundles (by spec) in every worker."""
        self.broadcast(("bind", list(specs)))

    def unbind(self) -> None:
        """Drop every bound bundle in every worker."""
        self.broadcast(("unbind",))

    def close(self) -> None:
        """Stop and join the workers (terminate stragglers)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
