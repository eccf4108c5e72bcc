"""Workload definitions, seeded inputs and the answer checks of the benchmark.

Everything here belongs to the benchmark, not to ``repro``: the graph
generator is the benchmark's own copy of the Holme–Kim model, so a change
to ``repro.graph.generators`` can never change what is measured.
Generated inputs are cached under ``.perfbench_cache/`` in the checkout,
keyed by workload family, scale, seed and generator parameters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

#: Holme–Kim (n, m, p), the share of edges dropped afterwards, and for the
#: ``truss`` family the number of ``blocks``: that many independent
#: Holme–Kim communities of ``n / blocks`` vertices, joined by ``cross``
#: random edges per vertex (a facebook-like graph of communities, so the
#: index has many distinct nuclei of thousands of cells to serve).  The
#: quick scale reuses the smoke sizes of ``benchmarks/bench_backends.py``.
GRAPHS = {
    "core": {"full": dict(n=130_000, m=10, p=0.7, drop=0.25),
             "quick": dict(n=6_000, m=40, p=0.2, drop=0.25)},
    "truss": {"full": dict(n=19_500, m=10, p=0.7, drop=0.25,
                           blocks=30, cross=1),
              "quick": dict(n=5_000, m=10, p=0.6, drop=0.25,
                            blocks=8, cross=1)},
}

#: ``graph``: input family; ``rs``: the (r, s) decomposition built.  Every
#: run also serves the ``SERVED`` workload's index, because every run
#: reports every metric; see ``run.py``.
WORKLOADS = {
    "core-1m": dict(graph="core", rs=(1, 2)),
    "truss": dict(graph="truss", rs=(2, 3)),
}

#: the workload whose input's index every run serves
SERVED = "truss"

#: part of the cache key of references and served indexes: bump it when
#: what ``child.prepare`` stores in them changes
REFERENCE_FORMAT = 2


def holme_kim(n: int, m: int, p: float, rng: np.random.Generator):
    """Edge arrays of a Holme–Kim graph: preferential attachment where,
    after each attachment, the next target is with probability ``p`` a
    neighbour of the previous one (triad closure)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    repeated = list(range(m))  # endpoint multiset: degree-proportional picks
    src: list[int] = []
    dst: list[int] = []
    block = 1 << 18
    coins: list[float] = []
    picks: list[float] = []
    at = block
    for v in range(m, n):
        chosen: set[int] = set()
        last = -1
        for _ in range(50 * m):
            if len(chosen) == m:
                break
            if at == block:
                coins = rng.random(block).tolist()
                picks = rng.random(block).tolist()
                at = 0
            coin, pick_at = coins[at], picks[at]
            at += 1
            if last >= 0 and coin < p:
                pool = adj[last]
            else:
                pool = repeated
            pick = pool[int(pick_at * len(pool))]
            if pick == v or pick in chosen:
                continue
            chosen.add(pick)
            adj[pick].append(v)
            adj[v].append(pick)
            repeated.append(pick)
            repeated.append(v)
            src.append(v)
            dst.append(pick)
            last = pick
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _key(*parts: object) -> str:
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_paths(workload: str, scale: str, seed: int) -> dict[str, Path]:
    """Cache paths of one workload's edge file and reference at one scale
    and seed, keyed by graph family, scale, seed, generator parameters
    and (r, s)."""
    spec = WORKLOADS[workload]
    params = GRAPHS[spec["graph"]][scale]
    graph_key = _key(spec["graph"], scale, seed, params)
    ref_key = _key(graph_key, spec["rs"], REFERENCE_FORMAT)
    stem = f"{spec['graph']}-{scale}-s{seed}"
    return {
        "edges": CACHE / f"{stem}-{graph_key}.txt",
        "reference": CACHE / f"{stem}-ref-{ref_key}.npz",
        "index": CACHE / f"{stem}-index-{ref_key}.npz",
    }


def write_edge_file(path: Path, params: dict, seed: int) -> int:
    """Generate the seeded graph and write it as a ``u v`` edge list."""
    rng = np.random.default_rng([seed, 0x5EED])
    blocks = params.get("blocks", 1)
    size = params["n"] // blocks
    srcs, dsts = [], []
    for block in range(blocks):
        src, dst = holme_kim(size, params["m"], params["p"], rng)
        keep = rng.random(len(src)) >= params["drop"]
        srcs.append(src[keep] + block * size)
        dsts.append(dst[keep] + block * size)
    if blocks > 1:
        n = blocks * size
        src = rng.integers(0, n, params["cross"] * n)
        dst = rng.integers(0, n, params["cross"] * n)
        between = src // size != dst // size
        srcs.append(src[between])
        dsts.append(dst[between])
    src = np.concatenate(srcs).tolist()
    dst = np.concatenate(dsts).tolist()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        handle.write(f"# holme-kim {json.dumps(params)} seed={seed}\n")
        handle.write("".join(f"{u} {v}\n" for u, v in zip(src, dst)))
    tmp.replace(path)
    return len(src)


# ---------------------------------------------------------------------------
# canonical hierarchy digest
# ---------------------------------------------------------------------------
def _cell_weights(count: int):
    """A fixed pseudo-random 64-bit weight per cell (splitmix64 of its id)."""
    z = np.arange(count, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def canonical_nodes(node_k, node_parent, cell_node, root: int):
    """The canonical nuclei of a condensed tree.

    Returns ``(keep, subtree)``: the nodes that are nuclei of
    ``NucleusTree.canonical_nuclei`` (not the root, not a chain node with
    no own cells and one child), and per node the cells of its whole
    subtree as one array of cell ids, ordered like ``keep``."""
    parent = np.asarray(node_parent, dtype=np.int64)
    cell_node = np.asarray(cell_node, dtype=np.int64)
    count = len(node_k)
    own = np.bincount(cell_node, minlength=count)
    children = np.bincount(parent[parent >= 0], minlength=count)
    # Euler tour: a node's subtree is the range [tin, tout) of the order
    kids: list[list[int]] = [[] for _ in range(count)]
    for node, up in enumerate(parent.tolist()):
        if up >= 0:
            kids[up].append(node)
    tin = np.zeros(count, dtype=np.int64)
    tout = np.zeros(count, dtype=np.int64)
    clock = 0
    for top in np.flatnonzero(parent < 0).tolist():
        stack = [(top, False)]
        while stack:
            node, leaving = stack.pop()
            if leaving:
                tout[node] = clock
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids[node])
    order = np.argsort(tin[cell_node], kind="stable")
    cell_tin = tin[cell_node][order]
    keep = [node for node in range(count)
            if node != root and not (own[node] == 0 and children[node] == 1)]
    subtree = [order[np.searchsorted(cell_tin, tin[node]):
                     np.searchsorted(cell_tin, tout[node])]
               for node in keep]
    return keep, subtree


def canonical_digest(node_k, node_parent, cell_node, root: int,
                     nv, ne):
    """The canonical nucleus family of a condensed tree, as sorted rows.

    Row ``(k, size, hash, nv, ne)`` per canonical nucleus: the cell count
    and the wrapping sum of fixed per-cell weights over the nucleus' whole
    subtree, and its profile statistics (vertices, induced edges) taken
    from ``nv`` and ``ne``, indexed by node.  Two trees hold the same
    nucleus family with the same statistics exactly when their rows are
    equal (up to a 64-bit hash collision)."""
    keep, subtree = canonical_nodes(node_k, node_parent, cell_node, root)
    weights = _cell_weights(len(cell_node))
    rows = sorted((int(node_k[node]), len(cells),
                   int(weights[cells].sum(dtype=np.uint64)),
                   int(nv[node]), int(ne[node]))
                  for node, cells in zip(keep, subtree))
    return np.asarray(rows, dtype=np.uint64).reshape(-1, 5)


def nucleus_stats(n: int, node_count: int, keep, subtree, cell_verts,
                  src, dst):
    """Per-node (nv, ne) of the subgraph induced by the vertices of each
    kept nucleus' cells, computed here from the edge list (so the saved
    ``node_nv``/``node_ne`` are checked against an independent count).
    ``cell_verts`` is a (cells, r) vertex array; ``src``/``dst`` the edge
    endpoints of an ``n``-vertex graph.  Each nucleus costs the degrees of
    its vertices."""
    ends = np.concatenate([src, dst])
    nbrs = np.concatenate([dst, src])
    order = np.argsort(ends, kind="stable")
    nbrs = nbrs[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    nv = np.zeros(node_count, dtype=np.int64)
    ne = np.zeros(node_count, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    for node, cells in zip(keep, subtree):
        verts = np.unique(cell_verts[cells])
        mask[verts] = True
        starts, stops = indptr[verts], indptr[verts + 1]
        total = int((stops - starts).sum())
        gather = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(stops - starts)[:-1])), stops - starts) \
            + np.arange(total)
        nv[node] = len(verts)
        ne[node] = int(np.count_nonzero(mask[nbrs[gather]])) // 2
        mask[verts] = False
    return nv, ne


def check_index(arrays, reference) -> str | None:
    """Compare a saved index's λ, canonical hierarchy and profile
    statistics with the reference; ``None`` when they agree, else what
    differs."""
    lam = np.asarray(arrays["lam"], dtype=np.int64)
    if not np.array_equal(lam, reference["lam"]):
        return f"lambda differs ({len(lam)} vs {len(reference['lam'])} cells)"
    if "node_nv" not in arrays or "node_ne" not in arrays:
        return "index saved without profile statistics"
    digest = canonical_digest(arrays["node_k"], arrays["node_parent"],
                              arrays["cell_node"], int(arrays["root"]),
                              arrays["node_nv"], arrays["node_ne"])
    expected = reference["digest"]
    if digest.shape != expected.shape:
        return (f"canonical hierarchy differs ({len(digest)} vs "
                f"{len(expected)} nuclei)")
    if not np.array_equal(digest[:, :3], expected[:, :3]):
        return "canonical hierarchy differs (nucleus cells)"
    if not np.array_equal(digest, expected):
        return "profile statistics (node_nv, node_ne) differ"
    return None
