"""Async serving tier: long-lived query processes over mmap'd flat indexes.

The ``.npz`` build-once/serve-many path (:mod:`repro.flatindex`) ends at a
one-shot CLI call; this package turns it into a long-lived server:

* :class:`IndexRegistry` — loads one or many persisted indexes with
  memory-mapped arrays (:func:`repro.flatindex.mmap_npz`), so N worker
  processes share a **single page-cache copy** per index;
* :class:`NucleusServer` — an asyncio front end speaking newline-delimited
  JSON over TCP plus a minimal HTTP/1.1 surface (stdlib only), exposing
  ``max_nucleus`` / ``nucleus_at`` / ``communities_of_vertex`` /
  ``profile`` with multi-index routing; it answers each connection's
  requests in order, each through one call of the index's ``*_batch``
  kernel, and counts requests, errors, latency and the kernel/encode
  split per route on ``/stats``;
* :func:`run_server` / ``repro-nucleus serve`` — the process entry point:
  one listening socket, ``--workers N`` forked accept loops;
* :class:`ServerThread` / :class:`ServeClient` — embed a server in-process
  (tests, notebooks) and talk to any server from blocking code.

See ``docs/SERVING.md`` for the build → persist → serve walkthrough.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import IndexRegistry
from repro.serve.server import (
    NucleusServer,
    ServerConfig,
    ServerThread,
    run_server,
)

__all__ = [
    "IndexRegistry",
    "NucleusServer",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerMetrics",
    "ServerThread",
    "run_server",
]
