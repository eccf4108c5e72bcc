"""Per-route serving counters: requests, errors, latency quantiles, and
each answer's kernel and encode seconds.

Pure bookkeeping — no locks, because every mutation happens on the event
loop thread of one worker process.  ``/stats`` snapshots are therefore
per-worker; the benchmark aggregates client-side across workers instead.
"""

from __future__ import annotations

import time

__all__ = ["RouteStats", "ServerMetrics"]

#: ring-buffer size for latency quantiles; big enough for stable p99 on a
#: smoke run, small enough to be free
_RESERVOIR = 8192


def _percentile(sample: list[float], q: float) -> float:
    """The q-quantile (0..1) of ``sample`` by nearest-rank."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class _Window:
    """The last ``_RESERVOIR`` samples (seconds) of one timing."""

    __slots__ = ("samples", "_next")

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0

    def add(self, seconds: float) -> None:
        if len(self.samples) < _RESERVOIR:
            self.samples.append(seconds)
        else:  # overwrite round-robin: a sliding window of recent samples
            self.samples[self._next] = seconds
            self._next = (self._next + 1) % _RESERVOIR

    def quantiles(self, prefix: str) -> dict:
        """``{prefix}p50_ms`` and ``{prefix}p99_ms`` (0 with no samples)."""
        return {f"{prefix}p{q}_ms":
                round(_percentile(self.samples, q / 100) * 1000, 4)
                for q in (50, 99)}


class RouteStats:
    """Counters for one request route (op name).

    ``kernel_*`` and ``encode_*`` time each answer of a query route: its
    one batch-kernel call, and the JSON encoding of its answer.
    """

    __slots__ = ("requests", "errors", "seconds_total", "_latency",
                 "_kernel", "_encode")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.seconds_total = 0.0
        self._latency = _Window()
        self._kernel = _Window()
        self._encode = _Window()

    def record(self, seconds: float, error: bool = False) -> None:
        self.requests += 1
        self.errors += int(error)
        self.seconds_total += seconds
        self._latency.add(seconds)

    def record_flush(self, kernel_seconds: float,
                     encode_seconds: float) -> None:
        self._kernel.add(kernel_seconds)
        self._encode.add(encode_seconds)

    def snapshot(self) -> dict:
        mean = self.seconds_total / self.requests if self.requests else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "mean_ms": round(mean * 1000, 4),
            **self._latency.quantiles(""),
            **self._kernel.quantiles("kernel_"),
            **self._encode.quantiles("encode_"),
        }


class ServerMetrics:
    """All counters one worker process exports on ``/stats``."""

    def __init__(self) -> None:
        self.started = time.time()
        self.connections_total = 0
        self.connections_open = 0
        #: queries answered, each by one batch-kernel call
        self.batches = 0
        self._routes: dict[str, RouteStats] = {}

    def route(self, name: str) -> RouteStats:
        stats = self._routes.get(name)
        if stats is None:
            stats = self._routes[name] = RouteStats()
        return stats

    def record_request(self, route: str, seconds: float,
                       error: bool = False) -> None:
        self.route(route).record(seconds, error=error)

    def record_flush(self, route: str, kernel_seconds: float,
                     encode_seconds: float) -> None:
        """Time one answer: its kernel call and its encoding."""
        self.batches += 1
        self.route(route).record_flush(kernel_seconds, encode_seconds)

    def snapshot(self) -> dict:
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            # each kernel call answers one request; mean_batch stays
            # because perfbench reads it
            "batching": {
                "batches": self.batches,
                "mean_batch": 1.0 if self.batches else 0.0,
            },
            "routes": {name: stats.snapshot()
                       for name, stats in self._routes.items()},
        }
