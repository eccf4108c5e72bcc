"""Micro-batching: coalesce concurrent scalar requests into batch kernels.

The flat index's ``*_batch`` kernels answer a thousand look-ups in one
vectorised pass — on a 163k-cell (2,3) index, 1,000 ``max_nucleus``
look-ups take 2.7 ms as one batch call against 10.9 ms as scalar calls,
and 1,000 ``communities_of_vertex`` look-ups at one k 1.7 ms against
160 ms (2-vCPU host) — but network requests arrive one at a time.
:class:`BatchCoalescer` bridges the two: each scalar request parks a
future in a per-route bucket, the first request in a bucket schedules a
flush — after ``window`` seconds, or on the **next event-loop tick** when
``window == 0`` (batching scales with instantaneous load and adds no
artificial latency), or immediately once ``max_batch`` requests are
parked — and one flush answers the whole bucket through the matching
batch kernel.

Buckets are keyed per (op, k): requests for different community strengths
cannot share a kernel call (the per-``k`` "top" pointer array differs).
Flushes also *serialise* each distinct answer once: the batch kernels
return the same ndarray object for every request resolving to the same
nucleus, so the JSON fragment is built per unique answer, not per
request (see :mod:`repro.serve.protocol`).  Each flush times its kernel
call and its encoding apart, for the route's ``kernel_*`` and
``encode_*`` quantiles on ``/stats``.

Requests are validated **before** they are submitted (the server rejects
a bad cell id or an out-of-range ``k`` per request), so one malformed
request can never poison the shared batch; a kernel failure is still
fanned out to every parked future defensively.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.serve import protocol
from repro.serve.metrics import ServerMetrics

__all__ = ["BatchCoalescer"]


class _Bucket:
    __slots__ = ("values", "futures", "handle")

    def __init__(self) -> None:
        self.values: list[int] = []
        self.futures: list[asyncio.Future] = []
        self.handle: asyncio.TimerHandle | asyncio.Handle | None = None


class BatchCoalescer:
    """Gathers scalar queries against one index into batch-kernel calls.

    ``window`` is the maximum seconds a request waits for company
    (``0`` = flush on the next event-loop tick); ``max_batch`` flushes a
    bucket early once that many requests are parked.  Every submit
    resolves to the request's answer as a ready-to-send JSON fragment.
    """

    def __init__(self, index: Any, metrics: ServerMetrics | None = None,
                 window: float = 0.0, max_batch: int = 512) -> None:
        self.index = index
        self.metrics = metrics
        self.window = window
        self.max_batch = max_batch
        self._buckets: dict[tuple, _Bucket] = {}

    # ------------------------------------------------------------------
    # the four scalar routes
    # ------------------------------------------------------------------
    async def max_nucleus(self, cell: int) -> str:
        return await self._submit(("max_nucleus", None), cell)

    async def nucleus_at(self, cell: int, k: int) -> str:
        return await self._submit(("nucleus_at", k), cell)

    async def communities_of_vertex(self, vertex: int, k: int) -> str:
        return await self._submit(("communities_of_vertex", k), vertex)

    async def profile(self, vertex: int) -> str:
        return await self._submit(("profile", None), vertex)

    # ------------------------------------------------------------------
    # batching machinery
    # ------------------------------------------------------------------
    def _submit(self, key: tuple, value: int) -> "asyncio.Future[str]":
        loop = asyncio.get_running_loop()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
            if self.window > 0:
                bucket.handle = loop.call_later(
                    self.window, self._flush, key)
            else:
                bucket.handle = loop.call_soon(self._flush, key)
        bucket.values.append(value)
        future: asyncio.Future = loop.create_future()
        bucket.futures.append(future)
        if len(bucket.values) >= self.max_batch:
            bucket.handle.cancel()
            self._flush(key)
        return future

    def _flush(self, key: tuple) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:  # already flushed by the max_batch trigger
            return
        if self.metrics is not None:
            self.metrics.record_batch(len(bucket.values))
        try:
            start = time.perf_counter()
            answers = self._kernel(key, bucket.values)
            middle = time.perf_counter()
            fragments = self._encode(key[0], answers)
            end = time.perf_counter()
        except Exception as exc:  # defensive: requests are pre-validated
            if self.metrics is not None:  # surfaced on /stats, not just
                self.metrics.record_batch_failure(exc)  # on the futures
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        if self.metrics is not None:
            self.metrics.record_flush(key[0], middle - start, end - middle)
        for future, fragment in zip(bucket.futures, fragments, strict=True):
            if not future.done():  # the client may have disconnected
                future.set_result(fragment)

    def _kernel(self, key: tuple, values: list[int]) -> list:
        """The answers of one bucket, from one batch-kernel call."""
        op, k = key
        index = self.index
        if op == "max_nucleus":
            return index.max_nucleus_batch(values)
        if op == "nucleus_at":
            return index.nucleus_at_batch(values, k)
        if op == "communities_of_vertex":
            return index.communities_of_vertex_batch(values, k)
        if op == "profile":
            return index.profile_batch(values)
        raise ValueError(f"unknown batch route {op!r}")

    @staticmethod
    def _encode(op: str, answers: list) -> list[str]:
        """One JSON fragment per answer; the kernels return one array
        object per distinct nucleus, so an ``id()`` cache encodes each of
        them once per batch."""
        cache: dict[int, str] = {}
        if op == "communities_of_vertex":
            return [protocol.communities_json(row, cache) for row in answers]
        if op == "profile":
            return [protocol.profile_json(levels) for levels in answers]
        return [protocol.cells_json(cells, cache) for cells in answers]
