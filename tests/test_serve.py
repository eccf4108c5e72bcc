"""The serving tier: mmap loads, the registry, in-order answers and their
back-pressure, both wire protocols, and the `repro-nucleus serve` process
end to end."""

import asyncio
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.backends import build_query_index, load_query_index
from repro.errors import InvalidParameterError
from repro.flatindex import FlatHierarchyIndex, mmap_npz
from repro.graph import generators
from repro.serve import server as server_module
from repro.serve import (
    IndexRegistry,
    NucleusServer,
    ServeClient,
    ServeError,
    ServerConfig,
    ServerThread,
)


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_cluster(200, 6, 0.5, seed=9)


@pytest.fixture(scope="module")
def flat(graph):
    return build_query_index(graph, 1, 2, backend="csr")


@pytest.fixture(scope="module")
def npz_path(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "kcore.npz"
    flat.save(path)
    return path


@pytest.fixture(scope="module")
def registry(npz_path):
    reg = IndexRegistry()
    reg.open("kcore", npz_path)
    return reg


def _expected_communities(flat, vertex, k):
    return [[int(x) for x in community]
            for community in flat.communities_of_vertex(vertex, k)]


# ---------------------------------------------------------------------------
# mmap'd .npz loads (the registry load path)
# ---------------------------------------------------------------------------
class TestMmapLoad:
    def test_members_are_read_only_memmaps(self, npz_path):
        arrays = mmap_npz(npz_path)
        assert arrays is not None
        member = arrays["lam"]
        assert isinstance(member, np.memmap)
        assert not member.flags.writeable

    def test_arrays_start_on_64_byte_boundaries(self, npz_path):
        """Every member's array data starts at a multiple of
        ``ARRAY_ALIGN`` in the file (read from the zip and ``.npy`` headers
        directly), so every mapped array is aligned: numpy copies a
        misaligned array whole before ``searchsorted`` reads it."""
        with zipfile.ZipFile(npz_path) as archive, \
                open(npz_path, "rb") as raw:
            for info in archive.infolist():
                raw.seek(info.header_offset + 26)
                name_len, extra_len = struct.unpack("<HH", raw.read(4))
                raw.seek(name_len + extra_len, os.SEEK_CUR)
                assert np.lib.format.read_magic(raw) == (1, 0)
                np.lib.format.read_array_header_1_0(raw)
                assert raw.tell() % np.lib.format.ARRAY_ALIGN == 0, \
                    info.filename
        arrays = mmap_npz(npz_path)
        assert len(arrays) == len(archive.infolist())
        assert all(array.flags.aligned for array in arrays.values())

    def test_load_mmap_marks_index(self, npz_path):
        index = FlatHierarchyIndex.load(npz_path, mmap_mode="r")
        assert index.mmapped
        assert isinstance(index.lam.base, np.memmap)
        assert not index.lam.flags.writeable
        assert not index.lam.flags.owndata

    def test_eager_load_does_not(self, npz_path):
        index = FlatHierarchyIndex.load(npz_path)
        assert not index.mmapped
        assert not isinstance(index.lam, np.memmap)

    def test_mmap_answers_match_eager(self, npz_path, flat):
        mapped = FlatHierarchyIndex.load(npz_path, mmap_mode="r")
        for vertex in range(0, flat.n, 7):
            assert mapped.communities_of_vertex(vertex, 2) == \
                flat.communities_of_vertex(vertex, 2)
            assert mapped.profile(vertex) == flat.profile(vertex)
        for cell in range(0, flat.num_cells, 11):
            assert mapped.max_nucleus(cell) == flat.max_nucleus(cell)

    def test_load_query_index_defaults_to_mmap(self, npz_path):
        assert load_query_index(npz_path).mmapped
        assert not load_query_index(npz_path, mmap_mode=None).mmapped

    def test_bad_mmap_mode_rejected(self, npz_path):
        with pytest.raises(InvalidParameterError):
            FlatHierarchyIndex.load(npz_path, mmap_mode="r+")

    def test_cli_query_uses_mmap(self, npz_path, capsys):
        from repro.cli import main

        assert main(["query", str(npz_path), "--vertices", "0,5", "--k",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "(mmap)" in out
        assert "vertex 0:" in out


class TestMmapCompressedFallback:
    def test_compressed_npz_loads_eagerly(self, flat, tmp_path):
        path = tmp_path / "compressed.npz"
        eager_path = tmp_path / "plain.npz"
        flat.save(eager_path)
        with np.load(eager_path) as payload:
            np.savez_compressed(path, **dict(payload.items()))
        assert mmap_npz(path) is None  # not mappable...
        index = FlatHierarchyIndex.load(path, mmap_mode="r")  # ...so fallback
        assert not index.mmapped
        assert index.communities_of_vertex(0, 2) == \
            flat.communities_of_vertex(0, 2)

    def test_unaligned_npz_loads_eagerly_until_resaved(self, flat, tmp_path):
        """An index written by plain ``np.savez``, as every index was before
        ``save`` aligned its arrays, serves eagerly with the same answers;
        loading and saving it once makes it mappable."""
        old = tmp_path / "old.npz"
        flat.save(tmp_path / "new.npz")
        with np.load(tmp_path / "new.npz") as payload:
            np.savez(old, **dict(payload.items()))
        assert mmap_npz(old) is None
        registry = IndexRegistry()
        registry.open("old", old)
        assert registry.describe()["old"]["mmapped"] is False
        index = registry.get("old")
        for vertex in range(0, flat.n, 7):
            assert index.communities_of_vertex(vertex, 2) == \
                flat.communities_of_vertex(vertex, 2)
            assert index.profile(vertex) == flat.profile(vertex)
        FlatHierarchyIndex.load(old).save(tmp_path / "resaved.npz")
        assert FlatHierarchyIndex.load(tmp_path / "resaved.npz",
                                       mmap_mode="r").mmapped


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_from_specs_named_and_bare(self, npz_path):
        reg = IndexRegistry.from_specs(
            [f"web={npz_path}", str(npz_path)])
        assert reg.names() == ["web", "kcore"]
        assert reg.default_name == "web"
        assert "web" in reg and len(reg) == 2
        assert reg.get() is reg.get("web")

    def test_duplicate_name_rejected(self, npz_path):
        reg = IndexRegistry()
        reg.open("a", npz_path)
        with pytest.raises(InvalidParameterError, match="duplicate"):
            reg.open("a", npz_path)

    def test_unknown_name_lists_served(self, registry):
        with pytest.raises(InvalidParameterError, match="kcore"):
            registry.get("nope")

    def test_empty_specs_rejected(self):
        with pytest.raises(InvalidParameterError):
            IndexRegistry.from_specs([])
        with pytest.raises(InvalidParameterError):
            IndexRegistry.from_specs(["=path"])

    def test_empty_registry_has_no_default(self):
        with pytest.raises(InvalidParameterError):
            IndexRegistry().get()

    def test_describe(self, registry, npz_path):
        info = registry.describe()["kcore"]
        assert info["path"] == str(npz_path)
        assert (info["r"], info["s"]) == (1, 2)
        assert info["mmapped"] is True
        assert info["default"] is True


# ---------------------------------------------------------------------------
# server config
# ---------------------------------------------------------------------------
class TestServerConfig:
    def test_defaults(self):
        config = ServerConfig()
        assert (config.host, config.port) == ("127.0.0.1", 8765)
        assert config.workers == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ServerConfig(workers=0)


# ---------------------------------------------------------------------------
# NDJSON protocol over a threaded server
# ---------------------------------------------------------------------------
class TestNdjsonServer:
    @pytest.fixture(scope="class")
    def server(self, registry):
        with ServerThread(registry) as thread:
            yield thread

    @pytest.fixture
    def client(self, server):
        with ServeClient(port=server.port) as client:
            yield client

    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_routes_match_direct_index(self, client, flat):
        for vertex in range(0, flat.n, 13):
            assert client.communities_of_vertex(vertex, 2) == \
                _expected_communities(flat, vertex, 2)
            profile = client.profile(vertex)
            expected = flat.profile(vertex)
            assert [(lv["k"], lv["node_id"]) for lv in profile] == \
                [(lv.k, lv.node_id) for lv in expected]
        for cell in range(0, flat.num_cells, 17):
            assert client.max_nucleus(cell) == \
                [int(x) for x in flat.max_nucleus(cell)]
            lam = int(flat.lam[cell])
            if lam >= 1:
                assert client.nucleus_at(cell, lam) == \
                    [int(x) for x in flat.nucleus_at(cell, lam)]

    def test_named_index_routing(self, client, flat):
        assert client.communities_of_vertex(3, 2, index="kcore") == \
            _expected_communities(flat, 3, 2)
        with pytest.raises(ServeError, match="unknown index"):
            client.communities_of_vertex(3, 2, index="absent")

    def test_stats_and_indexes(self, client):
        stats = client.stats()
        assert stats["config"]["workers"] == 1
        assert "kcore" in stats["indexes"]
        assert stats["routes"]  # at least one route recorded by now
        assert client.indexes()["kcore"]["default"] is True

    def test_request_validation(self, client, flat):
        with pytest.raises(ServeError, match="unknown op"):
            client.call("frobnicate")
        with pytest.raises(ServeError, match="out of range"):
            client.max_nucleus(flat.num_cells + 5)
        with pytest.raises(ServeError, match="integer"):
            client.call("communities_of_vertex", vertex="zero", k=2)
        lam0 = int(flat.lam[0])
        with pytest.raises(ServeError, match="lambda"):
            client.nucleus_at(0, lam0 + 1)

    def test_error_does_not_poison_batch(self, server, flat):
        """A bad request in a pipelined block fails alone."""
        requests = [{"op": "communities_of_vertex", "vertex": 1, "k": 2},
                    {"op": "communities_of_vertex", "vertex": -7, "k": 2},
                    {"op": "communities_of_vertex", "vertex": 2, "k": 2}]
        with ServeClient(port=server.port) as client:
            results = client.call_many(requests, raise_on_error=False)
        assert results[0] == _expected_communities(flat, 1, 2)
        assert isinstance(results[1], ServeError)
        assert results[2] == _expected_communities(flat, 2, 2)

    def test_malformed_lines(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n[1, 2, 3]\n")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        assert not first["ok"] and "malformed" in first["error"]
        assert not second["ok"] and "object" in second["error"]

    def test_unknown_ops_share_one_route(self, registry):
        """Every route keeps a latency window, so ops named by clients
        must not open new ones."""
        requests = ([{"op": f"nope-{i}"} for i in range(50)]
                    + [{"op": ["list"]}, {"op": None}, {}])
        with ServerThread(registry) as thread:
            with ServeClient(port=thread.port) as client:
                results = client.call_many(requests, raise_on_error=False)
                client.ping()
                routes = client.stats()["routes"]
        assert all(isinstance(result, ServeError) for result in results)
        assert set(routes) == {"invalid", "ping"}
        assert routes["invalid"]["requests"] == len(requests)
        assert routes["invalid"]["errors"] == len(requests)

    def test_stats_split_kernel_and_encode(self, registry, flat):
        with ServerThread(registry) as thread:
            with ServeClient(port=thread.port) as client:
                client.call_many(
                    [{"op": "communities_of_vertex", "vertex": v, "k": 2}
                     for v in range(40)])
                client.call_many([{"op": "max_nucleus", "cell": c}
                                  for c in range(40)])
                client.ping()
                stats = client.stats()
        routes = stats["routes"]
        for op in ("communities_of_vertex", "max_nucleus"):
            route = routes[op]
            assert route["requests"] == 40
            assert 0 < route["p50_ms"] <= route["p99_ms"]
            assert 0 < route["kernel_p50_ms"] <= route["kernel_p99_ms"]
            assert 0 < route["encode_p50_ms"] <= route["encode_p99_ms"]
            assert route["kernel_p50_ms"] < route["p99_ms"]
        # a route no kernel served reports zeros
        assert routes["ping"]["kernel_p50_ms"] == 0.0
        assert routes["ping"]["encode_p99_ms"] == 0.0
        # one kernel call per request, timed inside the request's own
        # latency: each split quantile is at most the route's
        assert stats["batching"] == {"batches": 80, "mean_batch": 1.0}
        for op in ("communities_of_vertex", "max_nucleus"):
            for quantile in ("p50_ms", "p99_ms"):
                assert routes[op][f"kernel_{quantile}"] <= routes[op][quantile]
                assert routes[op][f"encode_{quantile}"] <= routes[op][quantile]

    def test_internal_error_gets_an_answer(self, npz_path, capfd):
        """A query that fails inside the index is answered with an error,
        counted on its route and printed once; the connection serves on."""
        index = FlatHierarchyIndex.load(npz_path, mmap_mode="r")

        def broken(cells):
            raise RuntimeError("kernel fault")

        index.max_nucleus_batch = broken
        registry = IndexRegistry()
        registry.add("broken", index)
        with ServerThread(registry) as thread:
            with ServeClient(port=thread.port, timeout=10) as client:
                results = client.call_many(
                    [{"op": "max_nucleus", "cell": 0},
                     {"op": "communities_of_vertex", "vertex": 0, "k": 1}],
                    raise_on_error=False)
                route = client.stats()["routes"]["max_nucleus"]
        assert isinstance(results[0], ServeError)
        assert str(results[0]) == \
            "internal error: RuntimeError: kernel fault"
        assert results[1] == [[int(x) for x in community] for community
                              in index.communities_of_vertex(0, 1)]
        assert (route["requests"], route["errors"]) == (1, 1)
        assert capfd.readouterr().err.count("Traceback") == 1


# ---------------------------------------------------------------------------
# HTTP protocol
# ---------------------------------------------------------------------------
class TestHttpServer:
    @pytest.fixture(scope="class")
    def server(self, registry):
        with ServerThread(registry) as thread:
            yield thread

    @staticmethod
    def _get(server, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}{path}") as response:
            return json.loads(response.read())

    def test_healthz_and_root(self, server):
        assert self._get(server, "/healthz") == {"ok": True}
        assert self._get(server, "/") == {"ok": True}

    def test_stats_and_indexes(self, server):
        stats = self._get(server, "/stats")
        assert stats["config"] == {"workers": 1}
        assert self._get(server, "/indexes")["kcore"]["r"] == 1

    def test_query_route(self, server, flat):
        payload = self._get(server, "/query/communities_of_vertex"
                                    "?vertex=4&k=2")
        assert payload["ok"]
        assert payload["result"] == _expected_communities(flat, 4, 2)

    def test_post_single_and_array(self, server, flat):
        url = f"http://127.0.0.1:{server.port}/query"
        single = json.dumps(
            {"op": "max_nucleus", "cell": 0}).encode()
        with urllib.request.urlopen(
                urllib.request.Request(url, data=single)) as response:
            answer = json.loads(response.read())
        assert answer["result"] == [int(x) for x in flat.max_nucleus(0)]
        batch = json.dumps(
            [{"op": "communities_of_vertex", "vertex": v, "k": 2}
             for v in (1, 2, 3)]).encode()
        with urllib.request.urlopen(
                urllib.request.Request(url, data=batch)) as response:
            answers = json.loads(response.read())
        assert [a["result"] for a in answers] == \
            [_expected_communities(flat, v, 2) for v in (1, 2, 3)]

    def test_bad_routes(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            self._get(server, "/nope")
        caught.value.close()
        assert caught.value.code == 404
        url = f"http://127.0.0.1:{server.port}/stats"
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(
                urllib.request.Request(url, data=b"{}"))
        caught.value.close()
        assert caught.value.code == 405

    def test_http_error_envelope(self, server, flat):
        payload = self._get(
            server, f"/query/max_nucleus?cell={flat.num_cells + 1}")
        assert not payload["ok"]
        assert "out of range" in payload["error"]


class TestFraming:
    """A line over the 64 KiB stream limit, or an HTTP body whose length
    cannot be read, is answered; nothing reaches asyncio's report of an
    exception out of a connection handler."""

    TOO_LONG = "request line longer than 65536 bytes"

    @pytest.fixture
    def exchange(self, registry, capfd, caplog):
        """Send bytes on a fresh connection, close the sending side and
        return everything the server writes back before it closes."""
        with ServerThread(registry) as thread:
            def send(payload: bytes) -> bytes:
                with socket.create_connection(("127.0.0.1", thread.port),
                                              timeout=10) as sock:
                    sock.sendall(payload)
                    sock.shutdown(socket.SHUT_WR)
                    received = b""
                    try:
                        while chunk := sock.recv(1 << 16):
                            received += chunk
                    except ConnectionResetError:
                        pass  # the caller's checks name what is missing
                return received

            yield send
        reported = capfd.readouterr().err + caplog.text
        assert "Unhandled exception" not in reported
        assert "Traceback" not in reported

    @pytest.mark.parametrize("pad", [100_000, 1_000_000])
    def test_overlong_ndjson_line_is_skipped(self, exchange, pad):
        """The line gets an error reply and the requests after it are
        answered, whether the line arrives whole or in pieces."""
        received = exchange(b'{"op": "ping", "id": 1}\n'
                            b'{"op": "ping", "id": 2, "pad": "'
                            + b"x" * pad + b'"}\n{"op": "ping", "id": 3}\n')
        assert [json.loads(line) for line in received.splitlines()] == [
            {"id": 1, "ok": True, "result": "pong"},
            {"id": None, "ok": False, "error": self.TOO_LONG},
            {"id": 3, "ok": True, "result": "pong"}]

    def test_overlong_first_line_is_answered_as_ndjson(self, exchange):
        received = exchange(b"x" * 200_000 + b'\n{"op": "ping", "id": 3}\n')
        assert [json.loads(line) for line in received.splitlines()] == [
            {"id": None, "ok": False, "error": self.TOO_LONG},
            {"id": 3, "ok": True, "result": "pong"}]

    @pytest.mark.parametrize("request_bytes, error", [
        (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
         "Content-Length must be a decimal integer below 10**18, got 'abc'"),
        (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
         "Content-Length must be a decimal integer below 10**18, got '-5'"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 100_000
         + b"\r\n\r\n", "header line longer than 65536 bytes"),
        (b"GET /healthz HTTP/1.1\r\n\r\nGET /" + b"x" * 100_000
         + b" HTTP/1.1\r\n\r\n", TOO_LONG),
    ], ids=["letters", "negative", "long-header", "long-request-line"])
    def test_broken_http_framing_gets_400_and_close(self, exchange,
                                                    request_bytes, error):
        last = exchange(request_bytes).rsplit(b"HTTP/1.1 ", 1)[1]
        head, _, body = last.partition(b"\r\n\r\n")
        assert head.startswith(b"400 Bad Request\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"id": None, "ok": False, "error": error}


    @pytest.mark.parametrize("size, status", [
        (65536, b"200 OK"), (65537, b"413 Content Too Large")])
    def test_body_limit(self, exchange, size, status):
        """A body as long as a line may be is answered; one byte more is
        refused."""
        head = b'{"op": "ping", "id": 7, "pad": "'
        body = head + b"x" * (size - len(head) - 2) + b'"}'
        last = exchange(b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
                        b"Connection: close\r\n\r\n%s" % (size, body))
        reply_head, _, reply = last.partition(b"\r\n\r\n")
        assert reply_head.startswith(b"HTTP/1.1 " + status + b"\r\n")
        assert json.loads(reply) == (
            {"id": 7, "ok": True, "result": "pong"} if size == 65536 else
            {"id": None, "ok": False,
             "error": "request body longer than 65536 bytes"})

    def test_oversized_body_is_refused_unsent(self, registry, capfd,
                                              caplog):
        """A declared 64 MiB body gets its 413 while the client, which
        has sent none of it, keeps its side open; the server closes."""
        with ServerThread(registry) as thread:
            with socket.create_connection(("127.0.0.1", thread.port),
                                          timeout=10) as sock:
                sock.sendall(b"POST /query HTTP/1.1\r\n"
                             b"Content-Length: %d\r\n\r\n" % (64 << 20))
                received = b""
                while chunk := sock.recv(1 << 16):  # EOF: the server closed
                    received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Content Too Large\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {
            "id": None, "ok": False,
            "error": "request body longer than 65536 bytes"}
        reported = capfd.readouterr().err + caplog.text
        assert "Traceback" not in reported


class TestNagleOff:
    def test_accepted_connection_has_nodelay(self, registry):
        """``run_server`` binds with ``socket.create_server``, whose proto
        is 0, so asyncio leaves Nagle on; every accepted TCP connection
        must still get TCP_NODELAY."""
        seen = []

        async def scenario() -> bytes:
            server = NucleusServer(registry, ServerConfig())
            serve_ndjson = server._serve_ndjson

            async def spy(reader, writer, first):
                sock = writer.get_extra_info("socket")
                seen.append(sock.getsockopt(socket.IPPROTO_TCP,
                                            socket.TCP_NODELAY))
                await serve_ndjson(reader, writer, first)

            server._serve_ndjson = spy
            sock = socket.create_server(("127.0.0.1", 0))
            assert sock.proto == 0
            await server.start(sock=sock)
            reader, writer = await asyncio.open_connection(
                *sock.getsockname()[:2])
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            reply = await reader.readline()
            writer.close()
            await writer.wait_closed()
            await server.aclose()
            return reply

        assert b"pong" in asyncio.run(scenario())
        assert len(seen) == 1 and seen[0] != 0


class TestClose:
    def test_aclose_aborts_a_peer_that_reads_nothing(self, registry,
                                                     monkeypatch):
        """A client that sends requests and never reads leaves replies in
        the send buffer, and ``close()`` waits for them to flush: after
        its grace period ``aclose`` aborts such a connection instead of
        waiting forever."""
        monkeypatch.setattr(server_module, "_CLOSE_GRACE_S", 0.2)
        request = b'{"op": "communities_of_vertex", "vertex": 0, "k": 0}\n'

        async def scenario() -> None:
            server = NucleusServer(registry, ServerConfig())
            listener = socket.create_server(("127.0.0.1", 0))
            # accepted sockets inherit the small send buffer
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            await server.start(sock=listener)
            with socket.socket() as client:
                client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                client.setblocking(False)
                loop = asyncio.get_running_loop()
                await loop.sock_connect(client, listener.getsockname()[:2])
                await loop.sock_sendall(client, request * 300)
                for _ in range(200):  # until replies back up
                    await asyncio.sleep(0.01)
                    (writer,) = server._connections.values()
                    if writer.transport.get_write_buffer_size():
                        break
                assert writer.transport.get_write_buffer_size() > 0
                await asyncio.wait_for(server.aclose(), timeout=10)
                assert not server._connections

        asyncio.run(scenario())


class TestBackPressure:
    def test_unread_replies_stall_only_their_connection(self, registry):
        """A client that sends requests and reads nothing gets no more
        answers than the socket buffers and the transport's high-water
        mark hold: the server stops reading its lines instead of holding
        every reply.  Once the client reads, every reply arrives, in
        request order."""
        count = 300
        lines = b"".join(b'{"id": %d, "op": "communities_of_vertex", '
                         b'"vertex": 0, "k": 0}\n' % i for i in range(count))

        async def scenario() -> tuple[int, bytes]:
            server = NucleusServer(registry, ServerConfig())
            listener = socket.create_server(("127.0.0.1", 0))
            # accepted sockets inherit the small send buffer
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            await server.start(sock=listener)
            route = server.metrics.route("communities_of_vertex")
            received = b""
            with socket.socket() as client:
                client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                client.setblocking(False)
                loop = asyncio.get_running_loop()
                await loop.sock_connect(client, listener.getsockname()[:2])
                await loop.sock_sendall(client, lines)
                answered = -1
                while answered != route.requests:  # until answers stop
                    answered = route.requests
                    await asyncio.sleep(0.1)
                while received.count(b"\n") < count:
                    chunk = await loop.sock_recv(client, 1 << 16)
                    assert chunk, "server closed the connection"
                    received += chunk
            await asyncio.wait_for(server.aclose(), timeout=10)
            return answered, received

        answered, received = asyncio.run(scenario())
        assert 0 < answered < count
        replies = [json.loads(line) for line in received.splitlines()]
        assert [reply["id"] for reply in replies] == list(range(count))
        assert all(reply["ok"] for reply in replies)


# ---------------------------------------------------------------------------
# the real process: `repro-nucleus serve` end to end
# ---------------------------------------------------------------------------
class TestServeProcess:
    def _spawn(self, npz_path, *extra):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(npz_path),
             "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        line = proc.stdout.readline()
        if not line.startswith("serving "):
            rest = proc.stdout.read() or ""
            proc.kill()
            proc.wait()
            raise AssertionError(f"server failed to start: {line}{rest}")
        port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return proc, port

    def _shutdown(self, proc):
        proc.terminate()
        try:
            return proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    def test_multi_worker_serve_and_clean_shutdown(self, npz_path, flat):
        proc, port = self._spawn(npz_path, "--workers", "2")
        try:
            with ServeClient(port=port) as client:
                assert client.ping() == "pong"
                vertices = list(range(0, flat.n, 11))
                answers = client.call_many(
                    [{"op": "communities_of_vertex", "vertex": v, "k": 2}
                     for v in vertices])
                assert answers == [_expected_communities(flat, v, 2)
                                   for v in vertices]
                described = client.indexes()
                assert described["kcore"]["mmapped"] is True
        finally:
            returncode = self._shutdown(proc)
        assert returncode == 0  # SIGTERM exits cleanly

    def test_sigterm_with_open_connections_is_clean(self, npz_path):
        """Shut down with an idle NDJSON connection after a reply, a
        half-sent request line and an HTTP keep-alive connection open:
        exit 0, every client reads EOF, and nothing on stderr."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(npz_path),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving "), line
            port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port)) as ndjson, \
                    socket.create_connection(("127.0.0.1", port)) as half, \
                    socket.create_connection(("127.0.0.1", port)) as http:
                clients = (ndjson, half, http)
                for sock in clients:
                    sock.settimeout(10)
                ndjson.sendall(b'{"op": "ping"}\n')
                assert b"pong" in ndjson.makefile("rb").readline()
                half.sendall(b'{"op": "pi')
                http.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = b""
                while not reply.endswith(b'{"ok":true}\n'):
                    reply += http.recv(4096)
                assert b"keep-alive" in reply
                proc.terminate()
                _, stderr = proc.communicate(timeout=10)
                assert [sock.recv(4096) for sock in clients] == [b""] * 3
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in stderr, stderr

    def test_sigint_also_clean(self, npz_path):
        proc, port = self._spawn(npz_path)
        try:
            with ServeClient(port=port) as client:
                assert client.ping() == "pong"
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                returncode = proc.wait(timeout=10)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.stdout.close()
        assert returncode == 0

    def test_missing_index_fails_fast(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             str(tmp_path / "absent.npz"), "--port", "0"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "error" in proc.stderr
