"""Blocking NDJSON client for the serving tier.

Used by the tests, the benchmark drivers and the docs walkthrough; any
language with sockets and JSON can implement the same ten lines.  One
client owns one TCP connection.  :meth:`ServeClient.call_many` pipelines:
it writes every request line before reading any response, then matches
responses to requests by ``id``.  The server replies in request order,
and every reply carries its request's ``id``.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.errors import ReproError

__all__ = ["ServeClient", "ServeError"]


class ServeError(ReproError):
    """The server answered ``ok: false`` (or broke protocol)."""


class ServeClient:
    """One blocking connection to a nucleus server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def call_many(self, requests: list[dict],
                  raise_on_error: bool = True) -> list[Any]:
        """Pipeline ``requests`` and return their results in order.

        Requests are tagged with fresh ``id`` values, written as one
        block, and the responses are matched back by ``id``.  With
        ``raise_on_error=False`` an error response yields a
        :class:`ServeError` *instance* in the result list instead of
        raising.
        """
        tagged: list[dict] = []
        for request in requests:
            request = dict(request)
            request["id"] = self._next_id
            self._next_id += 1
            tagged.append(request)
        payload = "".join(json.dumps(req) + "\n" for req in tagged)
        self._sock.sendall(payload.encode())
        by_id: dict[object, dict] = {}
        for _ in tagged:
            line = self._file.readline()
            if not line:
                raise ServeError("server closed the connection mid-batch")
            response = json.loads(line)
            by_id[response.get("id")] = response
        results: list[Any] = []
        for request in tagged:
            response = by_id.get(request["id"])
            if response is None:
                raise ServeError(
                    f"server never answered request id {request['id']}")
            if response.get("ok"):
                results.append(response["result"])
            else:
                error = ServeError(response.get("error", "unknown error"))
                if raise_on_error:
                    raise error
                results.append(error)
        return results

    def call(self, op: str, **params: Any) -> Any:
        """One request, one answer."""
        request: dict[str, Any] = {"op": op}
        request.update(params)
        return self.call_many([request])[0]

    # ------------------------------------------------------------------
    # the routes
    # ------------------------------------------------------------------
    def ping(self) -> str:
        return self.call("ping")

    def stats(self) -> dict:
        return self.call("stats")

    def indexes(self) -> dict:
        return self.call("indexes")

    def max_nucleus(self, cell: int, index: str | None = None) -> list[int]:
        return self.call("max_nucleus", cell=cell,
                         **({"index": index} if index else {}))

    def nucleus_at(self, cell: int, k: int,
                   index: str | None = None) -> list[int]:
        return self.call("nucleus_at", cell=cell, k=k,
                         **({"index": index} if index else {}))

    def communities_of_vertex(self, vertex: int, k: int,
                              index: str | None = None) -> list[list[int]]:
        return self.call("communities_of_vertex", vertex=vertex, k=k,
                         **({"index": index} if index else {}))

    def profile(self, vertex: int,
                index: str | None = None) -> list[dict]:
        return self.call("profile", vertex=vertex,
                         **({"index": index} if index else {}))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
