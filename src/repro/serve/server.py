"""The asyncio serving front end: NDJSON-over-TCP plus minimal HTTP/1.1.

One :class:`NucleusServer` owns a listening socket and an
:class:`~repro.serve.registry.IndexRegistry`.  Connections speak either
protocol — the first bytes decide:

* **NDJSON** (the native protocol): one JSON request per line, one JSON
  envelope per line back, carrying the request's ``id``.  A connection
  pipelines freely; its lines are answered **in order**, each through
  one call of the index's ``*_batch`` kernel, and each reply is written
  and drained before the next line is read, so a client that reads
  nothing holds up only its own connection.
* **HTTP/1.1** (for curl / browsers / load-balancer checks): ``GET
  /stats``, ``GET /healthz``, ``GET /indexes``, ``GET /query/<op>?…``
  and ``POST /query`` with a JSON object or array body.  Keep-alive is
  honoured; the implementation is stdlib-only and deliberately minimal.

Scale-out is process-based: ``run_server`` binds one socket, loads the
registry **once**, then forks ``workers - 1`` children that inherit both
— every worker accepts on the shared socket and reads the same
memory-mapped index pages, so N workers cost one page-cache copy per
index (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import InvalidParameterError, ReproError
from repro.serve import protocol
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import IndexRegistry

__all__ = ["NucleusServer", "ServerConfig", "ServerThread", "run_server"]

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
                 b"OPTIONS ")

#: ops with a ``/stats`` route of their own (the rest share "invalid")
_ROUTES = frozenset((*protocol.QUERY_OPS, "ping", "stats", "indexes"))

#: seconds ``aclose`` lets closed connections flush their replies before
#: it aborts the ones whose peers read nothing
_CLOSE_GRACE_S = 5.0

#: the longest line a connection may send (asyncio's default stream
#: limit, passed explicitly so the error messages quote it), and the
#: longest ``POST /query`` body
_LINE_LIMIT = 2**16

#: each query op's JSON encoder for its kernel's answer
_ENCODERS = {
    "max_nucleus": protocol.cells_json,
    "nucleus_at": protocol.cells_json,
    "communities_of_vertex": protocol.communities_json,
    "profile": protocol.profile_json,
}


class _BadRequest(ReproError):
    """A per-request problem: reported to the client, never fatal."""


@dataclass
class ServerConfig:
    """Knobs of one serving process (see ``repro-nucleus serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: accept-loop processes sharing the listening socket and the mmap'd
    #: index pages (1 = serve from the calling process only)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}")


class NucleusServer:
    """Asyncio server answering hierarchy queries from a registry."""

    def __init__(self, registry: IndexRegistry,
                 config: ServerConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self._server: asyncio.AbstractServer | None = None
        #: the handler task of every open connection, and its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock: socket.socket | None = None) -> None:
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock, limit=_LINE_LIMIT)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port,
                limit=_LINE_LIMIT)

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, close every open connection and wait for its
        handler to return.  A handler still awaiting ``readline`` when the
        event loop shuts down is cancelled instead, and asyncio reports
        that as an error in the stream's connection callback."""
        if self._server is None:
            return
        self._server.close()
        for writer in self._connections.values():
            writer.close()  # the handler's reader sees EOF
        if self._connections:
            _, stuck = await asyncio.wait(list(self._connections),
                                          timeout=_CLOSE_GRACE_S)
            for task in stuck:  # a full send buffer holds close() back
                self._connections[task].transport.abort()
            if stuck:
                await asyncio.wait(stuck)
        await self._server.wait_closed()

    def stats(self) -> dict:
        """The ``/stats`` payload of this worker process."""
        snapshot = self.metrics.snapshot()
        snapshot["indexes"] = self.registry.describe()
        snapshot["config"] = {"workers": self.config.workers}
        return snapshot

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET,
                                                socket.AF_INET6):
            # asyncio turns Nagle off only on sockets whose proto is
            # IPPROTO_TCP; run_server's socket.create_server leaves it 0,
            # and a client that delays its ACKs would then wait one
            # delayed-ACK interval per reply
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        task = asyncio.current_task()
        assert task is not None  # asyncio runs every handler as a task
        self._connections[task] = writer
        self.metrics.connections_total += 1
        self.metrics.connections_open += 1
        try:
            # a first line over the limit is lost with the method that
            # would mark it HTTP, so it is answered as NDJSON
            first = await _read_line(reader)
            if first is not None and first.startswith(_HTTP_METHODS):
                await self._serve_http(reader, writer, first)
            elif first != b"":
                await self._serve_ndjson(reader, writer, first)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            del self._connections[task]
            self.metrics.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # NDJSON protocol
    # ------------------------------------------------------------------
    async def _serve_ndjson(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            first: bytes | None) -> None:
        """Answer request lines in order, one reply per line.

        Each reply is written and drained before the next line is read:
        a client that sends and never reads stalls this loop once the
        transport's write buffer passes its high-water mark, so the
        server holds a bounded amount of replies for it.  A write to a
        peer that went away raises out to :meth:`_on_connection`.  A line
        over :data:`_LINE_LIMIT` (``None``) gets an error reply.
        """
        line = first
        while line != b"":
            if line is None:
                writer.write(protocol.error_envelope(
                    None, f"request line longer than {_LINE_LIMIT} bytes"))
                await writer.drain()
            elif stripped := line.strip():
                writer.write(self._respond_line(stripped))
                await writer.drain()
            line = await _read_line(reader)

    def _respond_line(self, line: bytes) -> bytes:
        try:
            request = json.loads(line)
        except ValueError:
            return protocol.error_envelope(
                None, f"malformed JSON request: {line[:120]!r}")
        if not isinstance(request, dict):
            return protocol.error_envelope(
                None, "request must be a JSON object")
        return self._answer(request)

    # ------------------------------------------------------------------
    # request dispatch (shared by both protocols)
    # ------------------------------------------------------------------
    def _answer(self, request: dict) -> bytes:
        """One request dict → one NDJSON envelope line."""
        request_id = request.get("id")
        op = request.get("op")
        # one "invalid" route for every unknown op: each route keeps a
        # latency window, so client-chosen names must not make new ones
        route = op if isinstance(op, str) and op in _ROUTES else "invalid"
        start = time.perf_counter()
        error = False
        try:
            if op == "ping":
                response = protocol.envelope(request_id, '"pong"')
            elif op == "stats":
                response = protocol.envelope(
                    request_id, json.dumps(self.stats()))
            elif op == "indexes":
                response = protocol.envelope(
                    request_id, json.dumps(self.registry.describe()))
            elif op in protocol.QUERY_OPS:
                response = protocol.envelope(
                    request_id, self._run_query(op, request))
            else:
                raise _BadRequest(
                    f"unknown op {op!r} (expected one of "
                    f"{', '.join(protocol.QUERY_OPS)}, stats, indexes, "
                    f"ping)")
        except (_BadRequest, InvalidParameterError) as exc:
            error = True
            response = protocol.error_envelope(request_id, str(exc))
        except Exception as exc:  # a server fault: answer it, keep serving
            error = True
            response = protocol.error_envelope(
                request_id,
                f"internal error: {type(exc).__name__}: {exc}")
            traceback.print_exc()
        self.metrics.record_request(route, time.perf_counter() - start,
                                    error=error)
        return response

    def _request_int(self, request: dict, key: str) -> int:
        value = request.get(key)
        if isinstance(value, str):  # HTTP query params arrive as strings
            try:
                value = int(value)
            except ValueError:
                value = None
        if not isinstance(value, int) or isinstance(value, bool):
            raise _BadRequest(
                f"op {request.get('op')!r} needs an integer {key!r} "
                f"parameter")
        return value

    def _run_query(self, op: str, request: dict) -> str:
        """Validate, then answer with one batch-kernel call and encode."""
        name = request.get("index")
        if name is not None and not isinstance(name, str):
            raise _BadRequest("index must be a string name")
        index = self.registry.get(name)
        # cell-addressed ops validate against num_cells, vertex-addressed
        # ops against n; ``value`` is whichever id the op looks up
        if op in ("max_nucleus", "nucleus_at"):
            value = self._request_int(request, "cell")
            if not 0 <= value < index.num_cells:
                raise _BadRequest(
                    f"cell {value} out of range (index has "
                    f"{index.num_cells} cells)")
        else:
            value = self._request_int(request, "vertex")
            if not 0 <= value < index.n:
                raise _BadRequest(
                    f"vertex {value} out of range (index has "
                    f"{index.n} vertices)")
        k = (self._request_int(request, "k")
             if op in ("nucleus_at", "communities_of_vertex") else 0)
        if op == "nucleus_at" and k > int(index.lam[value]):
            raise _BadRequest(
                f"cell {value} has lambda {int(index.lam[value])} < k={k}")
        start = time.perf_counter()
        if op == "max_nucleus":
            answer = index.max_nucleus_batch([value])[0]
        elif op == "nucleus_at":
            answer = index.nucleus_at_batch([value], k)[0]
        elif op == "communities_of_vertex":
            answer = index.communities_of_vertex_batch([value], k)[0]
        else:
            answer = index.profile_batch([value])[0]
        middle = time.perf_counter()
        fragment = _ENCODERS[op](answer)
        self.metrics.record_flush(op, middle - start,
                                  time.perf_counter() - middle)
        return fragment

    # ------------------------------------------------------------------
    # HTTP protocol
    # ------------------------------------------------------------------
    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          request_line: bytes) -> None:
        line: bytes | None = request_line
        while line:
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                await self._http_error(writer, "malformed request line")
                return
            method, target, version = parts
            headers: dict[str, str] = {}
            while True:
                header = await _read_line(reader)
                if header is None:
                    await self._http_error(
                        writer,
                        f"header line longer than {_LINE_LIMIT} bytes")
                    return
                if header in (b"\r\n", b"\n", b""):
                    break
                key, _, value = header.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            length = headers.get("content-length", "0")
            # (int() raises past 4,300 digits; no body is 10**18 bytes)
            if not (length.isascii() and length.isdigit()
                    and len(length) <= 18):
                # the body's end is unknown, and so is the next request's
                await self._http_error(
                    writer, f"Content-Length must be a decimal integer "
                            f"below 10**18, got {length[:32]!r}")
                return
            if int(length) > _LINE_LIMIT:
                # refused unread, so the next request's start is unknown
                await self._http_reply(writer, 413, protocol.error_envelope(
                    None, f"request body longer than {_LINE_LIMIT} bytes"),
                    close=True)
                return
            body = await reader.readexactly(int(length))
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "").lower()
                          != "close")
            status, payload = self._http_response(method, target, body)
            await self._http_reply(writer, status, payload,
                                   close=not keep_alive,
                                   head_only=method == "HEAD")
            if not keep_alive:
                return
            line = await _read_line(reader)
        if line is None:
            await self._http_error(
                writer, f"request line longer than {_LINE_LIMIT} bytes")

    def _http_response(self, method: str, target: str,
                       body: bytes) -> tuple[int, bytes]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if method in ("GET", "HEAD"):
            if path == "/stats":
                return 200, (json.dumps(self.stats()) + "\n").encode()
            if path in ("/healthz", "/"):
                return 200, b'{"ok":true}\n'
            if path == "/indexes":
                return 200, (json.dumps(self.registry.describe())
                             + "\n").encode()
            if path.startswith("/query/"):
                request = {key: values[-1] for key, values
                           in parse_qs(split.query).items()}
                request["op"] = path[len("/query/"):]
                return 200, self._answer(request)
            return 404, protocol.error_envelope(
                None, f"no route {path!r} (try /stats, /indexes, "
                      f"/healthz, /query/<op>?..., POST /query)")
        if method == "POST" and path == "/query":
            try:
                parsed = json.loads(body or b"null")
            except ValueError:
                return 400, protocol.error_envelope(
                    None, "POST /query body must be JSON")
            if isinstance(parsed, dict):
                return 200, self._answer(parsed)
            if isinstance(parsed, list) and all(
                    isinstance(item, dict) for item in parsed):
                lines = [self._answer(item) for item in parsed]
                return 200, (b"[" + b",".join(
                    line.rstrip(b"\n") for line in lines) + b"]\n")
            return 400, protocol.error_envelope(
                None, "POST /query body must be a JSON object or an "
                      "array of objects")
        return 405, protocol.error_envelope(
            None, f"method {method} not supported on {path!r}")

    @classmethod
    async def _http_error(cls, writer: asyncio.StreamWriter,
                          message: str) -> None:
        """A 400 for a request whose framing is broken; the caller then
        closes the connection."""
        await cls._http_reply(writer, 400, protocol.error_envelope(
            None, message), close=True)

    @staticmethod
    async def _http_reply(writer: asyncio.StreamWriter, status: int,
                          payload: bytes, close: bool,
                          head_only: bool = False) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  413: "Content Too Large"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                f"\r\n").encode("latin-1")
        try:
            writer.write(head if head_only else head + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line, ``b""`` at EOF, or ``None`` for a line over the
    stream limit, which is read through its newline and dropped."""
    too_long = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:  # EOF
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            # the buffer holds ``exc.consumed`` bytes of the line: all of
            # it up to its newline, if that has arrived
            await reader.readexactly(exc.consumed)
            too_long = True
            continue
        return None if too_long else line


# ---------------------------------------------------------------------------
# process entry points
# ---------------------------------------------------------------------------
def _serve_on_socket(sock: socket.socket, registry: IndexRegistry,
                     config: ServerConfig) -> None:
    """Run one worker's accept loop until interrupted."""
    async def _amain() -> None:
        server = NucleusServer(registry, config)
        await server.start(sock=sock)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            # a plain signal handler raising SystemExit can fire inside a
            # protocol callback mid-write; the loop-level handler runs
            # between callbacks, so in-flight replies finish first
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # no loop signal support off POSIX
            await server.serve_forever()
            return
        try:
            await stop.wait()
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            await server.aclose()

    asyncio.run(_amain())


def run_server(specs: list[str], config: ServerConfig | None = None, *,
               mmap: bool = True) -> int:
    """Bind, load the registry once, fork workers, serve until signalled.

    ``specs`` are ``name=path`` or bare-path index specs (see
    :meth:`IndexRegistry.from_specs`).  The listening socket and the
    loaded registry are created **before** forking, so all workers accept
    on one socket and read the same mapped pages.  Prints one
    ``serving ...`` line once the socket is bound (``port 0`` picks a
    free port; the line is how callers learn it).
    """
    config = config or ServerConfig()
    registry = IndexRegistry.from_specs(specs, mmap=mmap)
    if config.workers > 1 and \
            "fork" not in multiprocessing.get_all_start_methods():
        raise InvalidParameterError(
            "multi-worker serving needs the fork start method (this "
            "platform has none); run with --workers 1")
    sock = socket.create_server((config.host, config.port), backlog=1024)
    host, port = sock.getsockname()[:2]
    print(f"serving {','.join(registry.names())} on {host}:{port} "
          f"(workers={config.workers}{', mmap' if mmap else ''})",
          flush=True)
    children: list = []
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        if config.workers > 1:
            context = multiprocessing.get_context("fork")
            for _ in range(config.workers - 1):
                child = context.Process(
                    target=_serve_on_socket,
                    args=(sock, registry, config), daemon=True)
                child.start()
                children.append(child)
        _serve_on_socket(sock, registry, config)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        for child in children:
            child.terminate()
        for child in children:
            child.join(timeout=5)
        sock.close()
    return 0


class ServerThread:
    """A :class:`NucleusServer` on a background thread, for embedding.

    The constructor blocks until the socket is bound (``port`` defaults
    to 0 = any free port), so ``server.port`` is immediately valid::

        with ServerThread(registry) as server:
            client = ServeClient(port=server.port)

    Used by the tests and the docs snippets; production serving should
    prefer ``repro-nucleus serve``
    (real worker processes, no GIL sharing with the application).
    """

    def __init__(self, registry: IndexRegistry,
                 **config_kwargs: Any) -> None:
        config_kwargs.setdefault("port", 0)
        self.config = ServerConfig(**config_kwargs)
        self.registry = registry
        self.server: NucleusServer | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface bind errors in __init__
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()
            else:
                raise

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = NucleusServer(self.registry, self.config)
        await server.start()
        self.server = server
        self.port = server.port
        self._started.set()
        await self._stop.wait()
        await server.aclose()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
