"""The read side: a ``repro-nucleus serve`` process and an open-loop load.

The server is the CLI entry point in its own process (one worker).  The
load generator is this process: one asyncio loop, two pipelined NDJSON
connections, bursts of requests sent on a fixed schedule whether or not
earlier answers have arrived (an open loop, like independent users).  Each
latency is measured from the request's *scheduled* send time, so a stall
delays every request queued behind it, and ``lag`` records how late the
generator itself sent.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.serve.client import ServeClient

CONNECTIONS = 2
#: per request kind, the fixed open-loop rate (requests/s) of its latency
#: phase and the requests sent together at each scheduled instant (many
#: users arriving at once; the coalescer turns a burst into batch-kernel
#: calls).  Both rates keep the one server worker below half busy.
PHASES = {"scalar": dict(rate=2000.0, burst=32),
          "community": dict(rate=250.0, burst=4)}
#: the ``max_qps`` ladder: the mixed stream at ``LADDER_BASE * 2 ** i``
#: requests/s, in bursts of ``LADDER_BURST``, until a rung's p99 exceeds
#: ``LIMIT_MS`` or a request goes unanswered
LADDER_BASE = 250.0
LADDER_BURST = 8
LIMIT_MS = 50.0
#: every this-many-th request keeps its full answer for the parity check
SAMPLE_EVERY = 50
#: seconds a phase waits for stragglers after its last scheduled send
DRAIN_S = 3.0
#: the CPUs this process may use when the benchmark starts
_CPUS = sorted(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else []
#: a busy loop that ends when the process that started it does (so a
#: killed benchmark leaves none behind)
_SPIN = ("import os\nparent = os.getppid()\n"
         "while os.getppid() == parent:\n    pass\n")


class Server:
    """``python -m repro serve INDEX --port 0`` with stderr kept on disk."""

    def __init__(self, index: Path, env: dict, stderr_path: Path,
                 timeout: float = 30.0) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(index),
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env)
        try:
            self.port = self._read_port(timeout)
            pin(self.proc.pid, 1)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving "):
            raise RuntimeError(f"server did not announce a port: {line!r}")
        return int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> int:
        """SIGTERM (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


def tracebacks(stderr_path: Path) -> int:
    """Unhandled tracebacks the servers wrote to their stderr."""
    return stderr_path.read_bytes().count(b"Traceback (most recent call last)")


def pin(pid: int, cpu: int) -> None:
    """Keep a process on one CPU (when the machine has two or more), so
    the server and the load generator neither migrate nor share a core."""
    if len(_CPUS) >= 2:
        os.sched_setaffinity(pid, {_CPUS[cpu % len(_CPUS)]})


class Mix:
    """The seeded request mix over one loaded index.

    * scalar requests (``max_nucleus``, and ``nucleus_at`` at the cell's
      own λ, in turn) go to the cells of nuclei of at most ``SMALL_CELLS``
      cells: each such nucleus is one small answer;
    * community requests (``communities_of_vertex`` at the nucleus' own k)
      go to the vertices of nuclei of at least ``COMMUNITY_CELLS`` cells;
      on the served input, one per community at each of the two lowest k;
    * popularity is Zipf(``ZIPF``) over each kind's nuclei, ranked in a
      seeded order, so a few answers are hot and most are distinct; the
      cell or vertex within a nucleus is uniform.
    """

    ZIPF = 0.9
    SMALL_CELLS = 64
    COMMUNITY_CELLS = 1000

    def __init__(self, index, seed: int) -> None:
        rng = np.random.default_rng([seed, 0x5E7E])
        self.index = index
        self.seed = seed
        tin = np.asarray(index.tin)
        tout = np.asarray(index.tout)
        sorted_tin = np.asarray(index.cell_tin_sorted)
        size = (np.searchsorted(sorted_tin, tout)
                - np.searchsorted(sorted_tin, tin))
        node_k = np.asarray(index.node_k, dtype=np.int64)
        cell_node = np.asarray(index.cell_node, dtype=np.int64)
        own = np.bincount(cell_node, minlength=len(node_k))
        small = np.flatnonzero((node_k > 0) & (own > 0)
                               & (size <= self.SMALL_CELLS))
        large = np.flatnonzero((node_k > 0) & (size >= self.COMMUNITY_CELLS))
        if len(small) == 0 or len(large) == 0:
            raise RuntimeError(f"index has {len(small)} small and "
                               f"{len(large)} large nuclei to query")
        # (k, cells) per small nucleus and (k, vertices) per large one,
        # in the seeded popularity order
        by_node = np.argsort(cell_node, kind="stable")
        first = np.searchsorted(cell_node[by_node], np.arange(len(node_k)))
        self.small = [(int(node_k[node]),
                       by_node[first[node]:first[node] + own[node]])
                      for node in rng.permutation(small).tolist()]
        vert_nodes = np.asarray(index.vert_nodes)
        vert_indptr = np.asarray(index.vert_indptr)
        self.large = []
        for node in rng.permutation(large).tolist():
            inside = np.flatnonzero((tin[vert_nodes] >= tin[node])
                                    & (tin[vert_nodes] < tout[node]))
            owners = np.searchsorted(vert_indptr, inside, side="right") - 1
            self.large.append((int(node_k[node]), np.unique(owners)))

    def _zipf(self, rng, count: int, size: int):
        weights = np.arange(1, size + 1, dtype=np.float64) ** -self.ZIPF
        return rng.choice(size, count, p=weights / weights.sum())

    def requests(self, count: int, stream: int,
                 kind: str = "mix") -> list[dict]:
        """``count`` requests of numbered ``stream`` (the same seed and
        stream give the same requests).  ``kind`` is ``"scalar"``,
        ``"community"`` or ``"mix"`` (the two alternating)."""
        rng = np.random.default_rng([self.seed, 0x5E7E, stream])
        small_picks = self._zipf(rng, count, len(self.small)).tolist()
        large_picks = self._zipf(rng, count, len(self.large)).tolist()
        within = rng.random(count).tolist()
        out = []
        turn = 0
        for i in range(count):
            if kind == "scalar" or (kind == "mix" and i % 2 == 0):
                k, cells = self.small[small_picks[i]]
                cell = int(cells[int(within[i] * len(cells))])
                out.append({"op": "max_nucleus", "cell": cell} if turn % 2 == 0
                           else {"op": "nucleus_at", "cell": cell, "k": k})
                turn += 1
            else:
                k, vertices = self.large[large_picks[i]]
                out.append({"op": "communities_of_vertex", "k": k,
                            "vertex": int(vertices[int(within[i]
                                                       * len(vertices))])})
        return out

    def warmups(self) -> list[dict]:
        """One query per ``k`` of each op in the mix, so the server's lazy
        per-``k`` caches are filled before anything is timed."""
        out = [{"op": "max_nucleus", "cell": int(self.small[0][1][0])}]
        scalar = {k: cells for k, cells in reversed(self.small)}
        out += [{"op": "nucleus_at", "cell": int(cells[0]), "k": k}
                for k, cells in sorted(scalar.items())]
        large = {k: vertices for k, vertices in reversed(self.large)}
        out += [{"op": "communities_of_vertex", "vertex": int(vertices[0]),
                 "k": k} for k, vertices in sorted(large.items())]
        return out

    def profiles(self, count: int) -> list[dict]:
        """``count`` seeded ``profile`` requests over the community
        vertices: checked answers only, never timed."""
        rng = np.random.default_rng([self.seed, 0x9F0F])
        picks = rng.integers(len(self.large), size=count).tolist()
        return [{"op": "profile", "vertex": int(rng.choice(self.large[i][1]))}
                for i in picks]

    def direct(self, request: dict):
        """The answer straight from ``FlatHierarchyIndex``, as the JSON
        value the server sends."""
        op = request["op"]
        if op == "max_nucleus":
            return self.index.max_nucleus(request["cell"])
        if op == "nucleus_at":
            return self.index.nucleus_at(request["cell"], request["k"])
        if op == "profile":
            return [{"k": level.k, "node_id": level.node_id,
                     "num_vertices": level.num_vertices,
                     "num_edges": level.num_edges, "density": level.density}
                    for level in self.index.profile(request["vertex"])]
        return self.index.communities_of_vertex(request["vertex"],
                                                request["k"])

    def distinct_answers(self, requests: list[dict]) -> int:
        """How many different answers ``requests`` ask for."""
        unique = {json.dumps(request, sort_keys=True): request
                  for request in requests}
        return len({json.dumps(self.direct(request))
                    for request in unique.values()})


def start_and_warm(index: Path, env: dict, stderr_path: Path,
                   warmups: list[dict]) -> tuple[Server, float]:
    """Spawn a server, wait for its first ``ping``, run the warm-ups;
    return it with the seconds all that took."""
    start = time.perf_counter()
    server = Server(index, env, stderr_path)
    try:
        with ServeClient(port=server.port) as client:
            client.ping()
            client.call_many(warmups)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


class _Connection(asyncio.Protocol):
    """One pipelined NDJSON connection of the load generator.

    The server's accepted sockets come from ``socket.create_server``, whose
    ``proto`` of 0 makes asyncio skip ``TCP_NODELAY`` on them, so a reply
    can wait for the client's delayed ACK until the next request carries
    it.  Which of the two modes a run lands in is chance; acknowledging
    every read at once (``TCP_QUICKACK``) keeps the measurement in one.
    """

    def __init__(self, phase: "_Phase") -> None:
        self.phase = phase
        self.buffer = bytearray()
        self.socket = None

    def connection_made(self, transport) -> None:
        self.socket = transport.get_extra_info("socket")
        self._quickack()

    def _quickack(self) -> None:
        if hasattr(socket, "TCP_QUICKACK"):
            self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        self._quickack()
        buffer = self.buffer
        buffer += data
        start = 0
        while True:
            end = buffer.find(b"\n", start)
            if end < 0:
                break
            self.phase.answer(bytes(buffer[start:end + 1]), now)
            start = end + 1
        del buffer[:start]

    def connection_lost(self, exc) -> None:
        self.phase.lost()


class _Phase:
    """Book-keeping of one open-loop phase."""

    def __init__(self, count: int) -> None:
        self.done = [0.0] * count
        self.ok = [False] * count
        self.kept: dict[int, bytes] = {}
        self.left = count
        self.finished = asyncio.get_running_loop().create_future()

    def answer(self, line: bytes, now: float) -> None:
        comma = line.index(b",", 6)
        rid = int(line[6:comma])  # envelopes open with {"id":<n>,
        self.done[rid] = now
        self.ok[rid] = line.startswith(b'"ok":true', comma + 1)
        if rid % SAMPLE_EVERY == 0:
            self.kept[rid] = line
        self.left -= 1
        if self.left == 0:
            self.lost()

    def lost(self) -> None:
        if not self.finished.done():
            self.finished.set_result(None)


async def _run(port: int, lines: list[bytes], rate: float,
               burst: int) -> dict:
    loop = asyncio.get_running_loop()
    count = len(lines)
    phase = _Phase(count)
    transports = []
    for _ in range(CONNECTIONS):
        transport, _ = await loop.create_connection(
            lambda: _Connection(phase), "127.0.0.1", port)
        transports.append(transport)
    sent = [0.0] * count
    start = time.perf_counter() + 0.01
    due = [start + (i - i % burst) / rate for i in range(count)]
    i = 0
    while i < count:
        now = time.perf_counter()
        while i < count and due[i] <= now:
            transports[i % CONNECTIONS].write(lines[i])
            sent[i] = now
            i += 1
        if i < count:
            # the loop's timers are millisecond-grained: sleep to just
            # short of the next send, then yield until it is due
            ahead = due[i] - time.perf_counter() - 0.0015
            await asyncio.sleep(ahead if ahead > 0 else 0)
    try:
        await asyncio.wait_for(asyncio.shield(phase.finished),
                               max(0.1, due[-1] + DRAIN_S
                                   - time.perf_counter()))
    except asyncio.TimeoutError:
        pass  # unanswered requests count as failures
    for transport in transports:
        transport.close()
    await asyncio.sleep(0)
    latency = [(d - t) * 1000.0 if d else float("inf")
               for d, t in zip(phase.done, due)]
    lag = [(s - t) * 1000.0 for s, t in zip(sent, due)]
    return {"latency_ms": latency, "ok": phase.ok, "kept": phase.kept,
            "lag_ms": lag}


@contextmanager
def busy_cpus():
    """While the block runs, keep the server's and the load generator's
    CPUs busy with a ``SCHED_IDLE`` loop each, which any other task
    preempts at once.  On a VM a CPU with nothing to run halts, and waking
    it when the next burst arrives waited on the host's scheduler: the
    served latency then tracked the host's load (scalar p50 over
    alternating 0.5-s phases in the same minutes: 4.3-6.5 ms with idle
    CPUs, 3.1-4.4 ms with busy ones)."""
    procs = []
    try:
        for cpu in _CPUS[:2]:
            proc = subprocess.Popen([sys.executable, "-c", _SPIN])
            procs.append(proc)
            os.sched_setscheduler(proc.pid, os.SCHED_IDLE,
                                  os.sched_param(0))
            os.sched_setaffinity(proc.pid, {cpu})
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def run_phase(port: int, requests: list[dict], rate: float,
              burst: int) -> dict:
    """Send ``requests`` open-loop at ``rate`` per second in bursts of
    ``burst``, with the CPUs kept busy; per request: latency (inf when
    unanswered), success flag, and kept answers."""
    lines = [(json.dumps(dict(request, id=i)) + "\n").encode()
             for i, request in enumerate(requests)]
    gc.collect()
    gc.disable()
    pin(0, 0)
    try:
        with busy_cpus():
            return asyncio.run(_run(port, lines, rate, burst))
    except OSError as exc:  # refused or reset: every request failed
        print(f"load phase failed: {exc}", file=sys.stderr)
        return {"latency_ms": [float("inf")] * len(requests),
                "ok": [False] * len(requests), "kept": {}, "lag_ms": [0.0]}
    finally:
        gc.enable()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def max_qps(port: int, mix: Mix, probe_s: float,
            budget_s: float) -> tuple[float, list[tuple[dict, list[dict]]]]:
    """Highest rung of the ladder at which the mixed stream is answered in
    full with a p99 within ``LIMIT_MS`` (a growing backlog shows as a
    growing p99).  Rungs double from ``LADDER_BASE``; the first failing
    rung, or the end of ``budget_s``, ends the climb.  Returns the best
    passing rate (0 when none passed) and every probe with its requests."""
    deadline = time.perf_counter() + budget_s
    probes: list[tuple[dict, list[dict]]] = []
    best = 0.0
    rate = LADDER_BASE
    while time.perf_counter() + probe_s < deadline:
        requests = mix.requests(max(4 * LADDER_BURST, int(rate * probe_s)),
                                int(rate))
        result = run_phase(port, requests, rate, LADDER_BURST)
        probes.append((result, requests))
        if not all(result["ok"]) or \
                percentile(result["latency_ms"], 99) > LIMIT_MS:
            break
        best = rate
        rate *= 2
    return best, probes


def server_stats(port: int) -> dict:
    with ServeClient(port=port) as client:
        return client.stats()


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` on the path, and one hash seed, so set and dict layouts (and
    with them timings) do not differ from process to process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env
