"""Child processes of the benchmark: input preparation, builds and probes.

Each build and each probe runs in a fresh interpreter, so its peak RSS is
its own and no state carries over from one to the next::

    python3 perfbench/child.py prepare WORKLOAD SCALE SEED
    python3 perfbench/child.py build EDGES R S OUT.npz TRACE(0|1)
    python3 perfbench/child.py probe EDGES R clique|peel

All print one JSON object on stdout.  ``repro`` is treated as a black
box: only public functions are called, and the spans are recorded here,
around those calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads

from repro import backends
from repro.core.csr_peel import truss_incidence
from repro.flatindex import FlatHierarchyIndex
from repro.graph.io import load_edge_list

_PEELS = {1: backends.core_peel, 2: backends.truss_peel}


class Spans:
    """Flat span log: name → seconds."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start


def build(edges: str, r: int, s: int, out: str, traced: bool) -> dict:
    """Edge file → CSR → FND decomposition → flat index with profile
    stats → ``.npz``: the path a user pays for a servable index.  The
    traced build makes the same calls, with a span around each."""
    if not traced:
        start = time.perf_counter()
        graph = load_edge_list(edges)
        csr = backends.as_csr(graph)
        result = backends.decompose(csr, r, s, backend="csr")
        decomposed = time.perf_counter()
        FlatHierarchyIndex(result).save(out, stats=True)
        end = time.perf_counter()
        return {"decompose_s": decomposed - start, "build_s": end - start,
                "peak_rss_mb": _peak_rss_mb()}

    trace = Spans()
    start = time.perf_counter()
    with trace.span("io.load_s"):
        graph = load_edge_list(edges)
    with trace.span("csr.build_s"):
        csr = backends.as_csr(graph)
    with trace.span("decompose_s"):
        result = backends.decompose(csr, r, s, backend="csr")
    with trace.span("index.lower_s"):
        index = FlatHierarchyIndex(result)
    with trace.span("index.stats_s"):
        index.precompute_stats()
    with trace.span("index.save_s"):
        index.save(out, stats=True)
    total = time.perf_counter() - start
    stats = result.fnd_stats
    counts = {
        "io.edges": graph.m,
        "fnd.subnuclei": stats.num_subnuclei if stats else 0,
        "fnd.adj_pairs": stats.num_downward_connections if stats else 0,
        "tree.nodes": index.num_nodes,
        "index.bytes": Path(out).stat().st_size,
    }
    return {"spans": trace.seconds, "counts": counts, "total_s": total}


def probe(edges: str, r: int, layer: str) -> dict:
    """One layer the fused ``decompose`` exposes no call for, timed in a
    fresh process that first loads the graph and builds its CSR, as a
    build does: ``clique``, the triangle listing the (2,3) peel consumes,
    or ``peel``, the plain peel (which lists the cliques itself)."""
    csr = backends.as_csr(load_edge_list(edges))
    start = time.perf_counter()
    if layer == "clique":
        cliques = sum(truss_incidence(csr)[0]) // 3
        return {"seconds": time.perf_counter() - start,
                "counts": {"clique.count": cliques}}
    peeling = _PEELS[r](csr, backend="csr")
    return {"seconds": time.perf_counter() - start,
            "counts": {"peel.cells": len(peeling.lam),
                       "peel.max_lambda": max(peeling.lam, default=0)}}


def prepare(workload: str, scale: str, seed: int) -> dict:
    """Make (or reuse) the cached edge file and reference of one workload
    at one scale and seed, and the index every run serves (built from the
    ``workloads.SERVED`` input of the same scale and seed)."""
    made = {}
    for name in dict.fromkeys((workload, workloads.SERVED)):
        made.update(_prepare_input(name, scale, seed))
    paths = workloads.input_paths(workloads.SERVED, scale, seed)
    if not paths["index"].exists():
        r, s = workloads.WORKLOADS[workloads.SERVED]["rs"]
        tmp = paths["index"].with_suffix(".tmp.npz")
        build(str(paths["edges"]), r, s, str(tmp), False)
        tmp.replace(paths["index"])
        made["index"] = paths["index"].stat().st_size
    return {"made": made}


def _prepare_input(workload: str, scale: str, seed: int) -> dict:
    spec = workloads.WORKLOADS[workload]
    paths = workloads.input_paths(workload, scale, seed)
    r, s = spec["rs"]
    made = {}
    if not paths["edges"].exists():
        params = workloads.GRAPHS[spec["graph"]][scale]
        made["edges"] = workloads.write_edge_file(paths["edges"], params, seed)
    if not paths["reference"].exists():
        graph = load_edge_list(paths["edges"])
        # the object engine is the test oracle every engine is held to
        reference = backends.decompose(graph, r, s, backend="object")
        tree = reference.hierarchy.condense()
        node_k = [node.k for node in tree.nodes]
        parent = [-1 if node.parent is None else node.parent
                  for node in tree.nodes]
        cell_node = tree.cell_nodes()
        keep, subtree = workloads.canonical_nodes(node_k, parent, cell_node,
                                                  tree.root)
        view = reference.view
        cell_verts = np.asarray(
            [view.cell_vertices(cell) for cell in range(len(cell_node))],
            dtype=np.int64).reshape(-1, r)
        index = graph.edge_index
        nv, ne = workloads.nucleus_stats(
            graph.n, len(node_k), keep, subtree, cell_verts,
            np.asarray(index.source, dtype=np.int64),
            np.asarray(index.target, dtype=np.int64))
        digest = workloads.canonical_digest(node_k, parent, cell_node,
                                            tree.root, nv, ne)
        tmp = paths["reference"].with_suffix(".tmp.npz")
        np.savez(tmp, lam=np.asarray(reference.lam, dtype=np.int64),
                 digest=digest)
        tmp.replace(paths["reference"])
        made[f"{workload} reference"] = len(digest)
    return made


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    if argv[:1] == ["prepare"] and len(argv) == 4:
        result = prepare(argv[1], argv[2], int(argv[3]))
    elif argv[:1] == ["build"] and len(argv) == 6:
        result = build(argv[1], int(argv[2]), int(argv[3]), argv[4],
                       argv[5] == "1")
    elif argv[:1] == ["probe"] and len(argv) == 4 \
            and argv[3] in ("clique", "peel"):
        result = probe(argv[1], int(argv[2]), argv[3])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
