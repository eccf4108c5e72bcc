"""The repository benchmark: edge file → servable index, and served queries.

Run from the root of a checkout::

    python3 perfbench/run.py --workload truss --seed 1 --seconds 40 --trace 0

Workloads (``workloads.WORKLOADS``; why each exists is in
``perfbench/LEDGER.md``): ``core-1m`` and ``truss`` build flat indexes
from a seeded edge file, each build in a fresh process, and every run
serves the ``truss`` input's index to open-loop NDJSON traffic through
``repro-nucleus serve``, because every run reports every metric.  The
measured window (``--seconds``) is a series of cycles, each one build of
the workload's input followed by one slot of traffic.  The shared host's
speed moves by up to 1.9× in stretches of seconds to minutes, so every
metric takes its samples across the whole window, never from one stretch
of it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
split, from spans this benchmark records around the public calls it makes
into ``repro`` (traced build children, probe children for the layers the
fused decomposition has no call for, the query kernels and the encoder
called directly, and the server's ``/stats``).  ``--quick`` runs the same
workloads at the smoke sizes.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if __name__ == "__main__" and not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import serving  # noqa: E402
import workloads  # noqa: E402
from repro import load_query_index  # noqa: E402
from repro.serve import protocol  # noqa: E402

#: fresh interpreters timed for ``setup_s``
IMPORT_REPEATS = 5
#: builds (and, traced, probes) a run makes at least: metrics are medians
MIN_BUILDS = 3
#: seconds of the slot of traffic after each build (scalar, then
#: community requests, half each)
SLOT_S = 1.0
#: seconds of untimed traffic before the window
WARM_S = 0.5
#: seconds per ``max_qps`` ladder rung, and for the whole ladder
PROBE_S = 1.0
LADDER_S = 6.0
#: ``profile`` requests whose served answers are checked
PROFILES = 50
#: requests whose kernel and encode cost the traced run times directly
KERNEL_SAMPLE = 1000
CHILD_TIMEOUT_S = 150
#: a run that takes longer is stopped (its processes with it) and fails
RUN_LIMIT_S = 170
KINDS = ("scalar", "community")


class Run:
    """One workload run: set-up, the measured window, the checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.scale = "quick" if args.quick else "full"
        self.env = serving.child_env(ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        #: the window's index sizes (MiB), per request kind the latencies
        #: of each slot and the requests sent, and the generator's lag
        self.sizes: list[float] = []
        self.slots: dict[str, list[list[float]]] = {kind: []
                                                   for kind in KINDS}
        self.asked: dict[str, list[dict]] = {kind: [] for kind in KINDS}
        self.lag: list[float] = []

    def child(self, *argv: str) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv], env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"child {argv[0]} failed:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def problem(self, text: str, count: int = 1) -> None:
        """Record ``count`` failed operations."""
        self.failed += count
        self.problems.append(text)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        args = self.args
        self.child("prepare", args.workload, self.scale, str(args.seed))
        paths = workloads.input_paths(args.workload, self.scale, args.seed)
        served = workloads.input_paths(workloads.SERVED, self.scale,
                                       args.seed)
        self.reference = dict(np.load(paths["reference"]))
        self.workdir = Path(tempfile.mkdtemp(dir=paths["edges"].parent))
        self.stderr_path = self.workdir / "server.err"
        self.stderr_path.touch()
        try:
            self.attempted += 1
            with np.load(served["index"]) as saved:
                mismatch = workloads.check_index(
                    saved, dict(np.load(served["reference"])))
            if mismatch:
                self.problem(f"served index: {mismatch}")
            self.mix = serving.Mix(load_query_index(served["index"]),
                                   args.seed)
            self.import_setup()
            self.serve(served["index"], paths["edges"], args.seconds)
            if args.trace:
                self.direct_layers(served["index"])
        finally:
            self.put("serve.tracebacks",
                     serving.tracebacks(self.stderr_path), "count")
            for leftover in self.workdir.iterdir():
                leftover.unlink()
            self.workdir.rmdir()
        return self.result()

    # ------------------------------------------------------------------
    def import_setup(self) -> None:
        """``setup_s``: a fresh interpreter importing the library until it
        can take its first call."""
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            # no timeout: with one, the wait polls in steps of up to 50 ms
            # (a hang still ends at RUN_LIMIT_S)
            subprocess.run([sys.executable, "-c",
                            "import repro, repro.backends, repro.flatindex"],
                           env=self.env, check=True)
            times.append(time.perf_counter() - start)
        self.put("setup_s", median(times), "s")

    # ------------------------------------------------------------------
    def serve(self, index: Path, edges: Path, budget: float) -> None:
        """A fresh server for the run: untimed warm traffic, the measured
        window, a check of sampled ``profile`` answers, the server's own
        ``/stats`` and, in the traced run, the ``max_qps`` ladder."""
        server, spawn = serving.start_and_warm(
            index, self.env, self.stderr_path, self.mix.warmups())
        self.put("serve.spawn_s", spawn, "s")
        try:
            port = server.port
            warm = self.mix.requests(int(serving.LADDER_BASE * WARM_S), 3)
            self.account(serving.run_phase(port, warm, serving.LADDER_BASE,
                                           serving.LADDER_BURST), warm)
            self.window(edges, port, budget)
            self.check_profiles(port)
            self.server_layers(serving.server_stats(port))
            if self.args.trace:
                best, probes = serving.max_qps(port, self.mix, PROBE_S,
                                               LADDER_S)
                for result, probe_requests in probes:
                    self.account(result, probe_requests)
                self.put("serve.max_qps", best, "1/s")
        finally:
            server.stop()

    def window(self, edges: Path, port: int, budget: float) -> None:
        """The measured window: cycles of one fresh-process build of the
        workload's input and one slot of traffic, until ``budget``
        seconds are spent (the window ends as near to them as whole cycles
        allow) and at least ``MIN_BUILDS`` builds of each kind are done.
        The traced run cycles untraced build, traced build and one probe
        per layer the fused decomposition has no call for (the clique
        listing, which (1,2) does not have, and the peel), so it measures
        the tracing overhead too and each layer comes from processes that
        did nothing else."""
        r, _ = self.spec["rs"]
        kinds: tuple[str, ...] = ("plain",)
        if self.args.trace:
            kinds += ("traced", "clique", "peel") if r > 1 \
                else ("traced", "peel")
        samples: dict[str, list[dict]] = {kind: [] for kind in kinds}
        started = time.perf_counter()
        cycle = failures = 0
        while True:
            start = time.perf_counter()
            kind = kinds[cycle % len(kinds)]
            self.attempted += 1
            try:
                samples[kind].append(self.build(edges, kind, cycle))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                self.problem(f"{kind} build {cycle}: {exc}")
                failures += 1
            self.slot(port)
            cycle += 1
            last = time.perf_counter() - start
            enough = all(len(done) >= MIN_BUILDS
                         for done in samples.values())
            if failures >= 3 or enough and \
                    time.perf_counter() - started + last / 2 > budget:
                break
        if not all(samples.values()):
            raise RuntimeError("builds failed: " + "; ".join(self.problems))
        plain = samples["plain"]
        for name in ("decompose_s", "build_s"):
            self.put(name, median([build[name] for build in plain]), "s")
        self.put("peak_rss_mb", median([b["peak_rss_mb"] for b in plain]),
                 "MiB")
        self.put("index_mb", median(self.sizes), "MiB")
        for kind in KINDS:
            slots = self.slots[kind]
            self.put(f"{kind}_p50_ms", median(
                serving.percentile(latency, 50) for latency in slots), "ms")
            self.put(f"serve.{kind}_p99_ms", serving.percentile(
                [value for latency in slots for value in latency], 99), "ms")
            if self.args.trace:
                self.put(f"mix.{kind}_answers",
                         self.mix.distinct_answers(self.asked[kind]),
                         "count")
        self.put("loadgen.lag_ms", serving.percentile(self.lag, 99), "ms")
        if self.args.trace:
            self.trace_layers(samples)

    def build(self, edges: Path, kind: str, number: int) -> dict:
        """One build (or probe) child; a built index is checked against
        the reference and its size kept."""
        r, s = self.spec["rs"]
        if kind in ("clique", "peel"):
            return self.child("probe", str(edges), str(r), kind)
        out = self.workdir / f"build-{number}.npz"
        result = self.child("build", str(edges), str(r), str(s), str(out),
                            "1" if kind == "traced" else "0")
        with np.load(out) as saved:
            mismatch = workloads.check_index(saved, self.reference)
        self.sizes.append(out.stat().st_size / 2**20)
        out.unlink()
        if mismatch:
            raise RuntimeError(mismatch)
        return result

    def slot(self, port: int) -> None:
        """One slot of traffic: scalar requests, then community requests
        (so kernel-bound and encode-bound answers never queue behind each
        other), at the fixed rates of ``serving.PHASES``, half the slot
        each."""
        for kind in KINDS:
            phase = serving.PHASES[kind]
            stream = 10 + 2 * len(self.slots[kind]) + KINDS.index(kind)
            requests = self.mix.requests(int(phase["rate"] * SLOT_S / 2),
                                         stream, kind)
            result = serving.run_phase(port, requests, phase["rate"],
                                       phase["burst"])
            self.account(result, requests)
            self.asked[kind] += requests
            self.lag += result["lag_ms"]
            self.slots[kind].append(result["latency_ms"])

    def trace_layers(self, samples: dict[str, list[dict]]) -> None:
        """Per-layer medians across the traced builds and the probes.
        The fused decomposition has no call per layer, so clique listing
        and the peel come from probe processes, and construction is the
        traced ``decompose`` less the whole peel."""
        traced = samples["traced"]

        def spans(name):
            return median([sample["spans"][name] for sample in traced])

        def probed(layer):
            return median([sample["seconds"] for sample in samples[layer]]) \
                if layer in samples else 0.0

        for name in ("io.load_s", "csr.build_s", "index.lower_s",
                     "index.stats_s", "index.save_s"):
            self.put(name, spans(name), "s")
        clique = probed("clique")
        peel = probed("peel")
        self.put("clique.list_s", clique, "s")
        self.put("peel.self_s", peel - clique, "s")
        self.put("construct.self_s", spans("decompose_s") - peel, "s")
        self.put("clique.count", 0, "count")  # (1,2) lists none
        for done in samples.values():
            for name in done[0].get("counts", ()):
                self.put(name, median([sample["counts"][name]
                                       for sample in done]), "count")
        total = median([sample["total_s"] for sample in traced])
        self.put("trace.total_s", total, "s")
        # per traced build: its total less its own spans
        self.put("trace.gap_s", median([
            sample["total_s"] - sum(sample["spans"].values())
            for sample in traced]), "s")
        self.put("trace.overhead_s", total - self.metrics["build_s"][0], "s")

    def check_profiles(self, port: int) -> None:
        """Served ``profile`` answers (the saved node statistics) against
        direct ``FlatHierarchyIndex.profile`` calls."""
        requests = self.mix.profiles(PROFILES)
        self.attempted += len(requests)
        with serving.ServeClient(port=port) as client:
            answers = client.call_many(requests, raise_on_error=False)
        for request, answer in zip(requests, answers):
            if answer != self.mix.direct(request):
                self.problem(f"served profile differs for {request}")

    def server_layers(self, stats: dict) -> None:
        """Server-side p50s from ``/stats``; transport wait is what the
        client saw beyond them."""
        routes = stats["routes"]
        scalar_routes = [routes[op] for op in ("max_nucleus", "nucleus_at")
                         if op in routes]
        weight = sum(route["requests"] for route in scalar_routes)
        scalar = sum(route["p50_ms"] * route["requests"]
                     for route in scalar_routes) / max(1, weight)
        community = routes.get("communities_of_vertex", {}).get("p50_ms", 0.0)
        self.put("server.scalar_p50_ms", scalar, "ms")
        self.put("server.community_p50_ms", community, "ms")
        self.put("serve.batch_mean", stats["batching"]["mean_batch"], "count")
        self.put("transport.wait_ms", self.metrics["scalar_p50_ms"][0]
                 - self.metrics["server.scalar_p50_ms"][0], "ms")

    def account(self, result: dict, requests: list[dict]) -> None:
        """Count the requests, and check every kept answer against a
        direct ``FlatHierarchyIndex`` call."""
        self.attempted += len(requests)
        missed = result["ok"].count(False)
        if missed:
            self.problem(f"{missed} of {len(requests)} requests got an "
                         f"error or no answer", missed)
        for rid, line in result["kept"].items():
            if result["ok"][rid] and \
                    json.loads(line)["result"] != self.mix.direct(
                        requests[rid]):
                self.problem(f"served answer differs for {requests[rid]}")

    # ------------------------------------------------------------------
    def direct_layers(self, index_path: Path) -> None:
        """Per-layer costs measured by calling the library directly: the
        mmap load, the batch kernels and the encoder on the same answers."""
        loads = []
        for _ in range(5):
            start = time.perf_counter()
            index = load_query_index(index_path)
            loads.append(time.perf_counter() - start)
        self.put("index.load_s", median(loads), "s")
        for request in self.mix.warmups():  # fill the per-k caches
            _kernel(index, request)
        kernel: dict[bool, list[float]] = {True: [], False: []}
        encode: dict[bool, list[float]] = {True: [], False: []}
        cells = []
        sizes = []
        for rid, request in enumerate(self.mix.requests(KERNEL_SAMPLE, 2)):
            scalar = request["op"] != "communities_of_vertex"
            start = time.perf_counter()
            answer = _kernel(index, request)
            middle = time.perf_counter()
            line = protocol.envelope(rid, protocol.cells_json(answer)
                                     if scalar else
                                     protocol.communities_json(answer))
            end = time.perf_counter()
            kernel[scalar].append(middle - start)
            encode[scalar].append(end - middle)
            cells.append(len(answer) if scalar
                         else sum(len(part) for part in answer))
            sizes.append(len(line))
        for kind, scalar in (("scalar", True), ("community", False)):
            self.put(f"kernel.{kind}_us",
                     1e6 * mean(kernel[scalar]), "us")
            self.put(f"encode.{kind}_us",
                     1e6 * mean(encode[scalar]), "us")
        self.put("kernel.cells_per_answer", mean(cells), "count")
        self.put("encode.bytes_per_answer", mean(sizes), "count")

    # ------------------------------------------------------------------
    def result(self) -> dict:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [metric["name"] for metric in
                 spec["per_layer" if self.args.trace else "end_to_end"]]
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }


def _kernel(index, request: dict):
    """One request through the batch kernel the server's coalescer uses."""
    op = request["op"]
    if op == "max_nucleus":
        return index.max_nucleus_batch([request["cell"]])[0]
    if op == "nucleus_at":
        return index.nucleus_at_batch([request["cell"]], request["k"])[0]
    return index.communities_of_vertex_batch([request["vertex"]],
                                             request["k"])[0]


def _out_of_time(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="the smoke sizes of bench_backends.py --quick")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.alarm(RUN_LIMIT_S)
    run = Run(args)
    result = run.execute()
    signal.alarm(0)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
