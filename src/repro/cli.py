"""Command-line interface: decompose a graph file and inspect the hierarchy.

Examples::

    repro-nucleus stats graph.txt
    repro-nucleus decompose graph.txt --r 2 --s 3 --algorithm fnd --tree
    repro-nucleus dataset stanford3 --size small --r 1 --s 2
    repro-nucleus densest graph.txt --r 2 --s 3 --top 5
    repro-nucleus query graph.txt --r 2 --s 3 --save-index graph.npz
    repro-nucleus build-index graph.txt graph.npz --r 2 --s 3
    repro-nucleus query graph.npz --vertices 0,5,9 --k 2
    repro-nucleus serve graph.npz --port 8765 --workers 4
    repro-nucleus serve web=web.npz social=social.npz

Every subcommand is documented in ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.density import densest_nuclei
from repro.analysis.stats import hierarchy_stats
from repro.backends import BACKENDS, decompose, resolve_backend
from repro.core.decomposition import ALGORITHMS
from repro.errors import ReproError
from repro.graph.adjacency import Graph
from repro.graph.cliques import triangle_count
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.io import load_graph

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nucleus",
        description="k-(r,s) nucleus decomposition with full hierarchy "
                    "(Sariyuce & Pinar, VLDB 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="basic statistics of a graph file")
    stats.add_argument("path")

    def add_decomposition_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--s", type=int, default=2)
        p.add_argument("--algorithm", choices=ALGORITHMS, default="fnd")
        p.add_argument("--backend", choices=BACKENDS, default=None,
                       help="graph engine: 'object' (set/list adjacency), "
                            "'csr' (numpy frontier-round peels and level-"
                            "wise hierarchy construction, its triangle/K4 "
                            "listing on --workers threads) or "
                            "'disk' (out-of-core: memmap'd CSR files, "
                            "spooled incidence, memory bounded by the "
                            "block cache); "
                            "default: follow the input representation (auto)")
        p.add_argument("--workers", type=int, default=None,
                       help="threads for the csr engine's triangle/K4 "
                            "listing, capped at the CPUs this process may "
                            "use (default: $REPRO_WORKERS, else 1)")
        p.add_argument("--tree", action="store_true",
                       help="print the condensed nucleus tree")
        p.add_argument("--max-nodes", type=int, default=60)

    decompose = sub.add_parser("decompose", help="decompose a graph file")
    decompose.add_argument("path")
    add_decomposition_arguments(decompose)
    decompose.add_argument(
        "--variant", default="plain",
        choices=["plain", "weighted", "directed", "uncertain", "temporal",
                 "temporal-profile"],
        help="scenario variant: 'weighted'/'uncertain' read per-edge "
             "values from --edge-values; 'directed' treats each file "
             "line as an arc; 'temporal'/'temporal-profile' treat each "
             "line as a timestamped interaction 'u v [t]' "
             "(default: the plain (r,s) nucleus decomposition)")
    decompose.add_argument(
        "--edge-values", metavar="PATH", default=None,
        help="file with one weight/probability per line, in "
             "lexicographic edge-id order (variants weighted/uncertain)")
    decompose.add_argument(
        "--eta", type=float, default=0.5,
        help="tail-probability threshold for --variant uncertain "
             "(default 0.5)")
    decompose.add_argument(
        "--h", type=int, default=1, dest="h",
        help="interaction threshold for --variant temporal (default 1)")

    dataset = sub.add_parser("dataset", help="decompose a built-in stand-in dataset")
    dataset.add_argument("name", choices=dataset_names())
    dataset.add_argument("--size", default="small",
                         choices=["tiny", "small", "medium"])
    add_decomposition_arguments(dataset)

    densest = sub.add_parser("densest", help="report the densest nuclei")
    densest.add_argument("path")
    densest.add_argument("--r", type=int, default=2)
    densest.add_argument("--s", type=int, default=3)
    densest.add_argument("--top", type=int, default=10)
    densest.add_argument("--min-vertices", type=int, default=4)
    densest.add_argument("--backend", choices=BACKENDS, default=None)
    densest.add_argument("--workers", type=int, default=None)

    query = sub.add_parser(
        "query", help="build (or load) a flat query index and answer "
                      "community queries")
    query.add_argument("path",
                       help="a graph file to decompose and index, or a "
                            "persisted .npz index to serve from")
    query.add_argument("--r", type=int, default=1)
    query.add_argument("--s", type=int, default=2)
    query.add_argument("--backend", choices=BACKENDS, default=None)
    query.add_argument("--workers", type=int, default=None)
    query.add_argument("--save-index", metavar="PATH",
                       help="persist the index as .npz (build once, then "
                            "serve it with `query PATH`)")
    query.add_argument("--vertices", metavar="V,V,...",
                       help="comma-separated vertex ids to query")
    query.add_argument("--k", type=int, default=1,
                       help="community strength for --vertices (default 1)")
    query.add_argument("--profile", action="store_true",
                       help="print each vertex's nested community profile "
                            "instead of its k-level communities")
    query.add_argument("--cells", action="store_true",
                       help="also print the cell ids of each community")

    build_index = sub.add_parser(
        "build-index",
        help="out-of-core build: stream an edge file into .diskcsr CSR "
             "files, decompose on the disk backend, and persist the flat "
             ".npz query index — without ever holding the graph in RAM")
    build_index.add_argument("path", help="edge-list file (one 'u v' per line)")
    build_index.add_argument("output", help="destination .npz index path")
    build_index.add_argument("--r", type=int, default=1)
    build_index.add_argument("--s", type=int, default=2)
    build_index.add_argument("--chunk-edges", type=int, default=None,
                             metavar="N",
                             help="edges sorted per in-memory chunk during "
                                  "the external-sort build (default 2**20); "
                                  "the peak build memory knob")
    build_index.add_argument("--csr-dir", metavar="DIR", default=None,
                             help="keep the built .diskcsr files in DIR for "
                                  "later backend='disk' runs (default: a "
                                  "temporary directory, removed after the "
                                  "index is saved)")
    build_index.add_argument("--no-stats", action="store_true",
                             help="skip precomputing per-node profile "
                                  "statistics in the saved index")

    serve = sub.add_parser(
        "serve", help="serve one or many persisted .npz indexes over TCP "
                      "(NDJSON + HTTP) from a long-lived async process")
    serve.add_argument("indexes", nargs="+", metavar="INDEX",
                       help="persisted .npz index paths, each optionally "
                            "as name=path (default name: the file stem; "
                            "the first index is the default route)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free one; the printed "
                            "'serving ...' line reports it)")
    serve.add_argument("--workers", type=int, default=1,
                       help="accept-loop processes sharing the listening "
                            "socket and the mmap'd index pages (default 1)")
    serve.add_argument("--no-mmap", action="store_true",
                       help="copy the index arrays into each process "
                            "instead of memory-mapping them")

    export = sub.add_parser(
        "export", help="decompose and export the hierarchy (json/dot)")
    export.add_argument("path")
    export.add_argument("output")
    export.add_argument("--r", type=int, default=1)
    export.add_argument("--s", type=int, default=2)
    export.add_argument("--backend", choices=BACKENDS, default=None)
    export.add_argument("--workers", type=int, default=None)
    export.add_argument("--format", choices=["json", "dot", "skeleton-dot"],
                        default="json")
    return parser


def _print_decomposition(graph: Graph, r: int, s: int, algorithm: str,
                         show_tree: bool, max_nodes: int,
                         backend: str | None = None,
                         workers: int | None = None) -> None:
    result = decompose(graph, r, s, algorithm=algorithm, backend=backend,
                       workers=workers)
    shown = resolve_backend(graph, backend)
    if backend is None:
        shown += " (auto)"
    if workers is not None:
        shown += f" ({workers} workers)"
    print(f"graph      : {graph!r}")
    print(f"parameters : ({r},{s}) nucleus, algorithm={algorithm}, "
          f"backend={shown}")
    print(f"max lambda : {result.max_lambda}")
    print(f"peel       : {result.peel_seconds:.4f}s")
    print(f"postprocess: {result.post_seconds:.4f}s")
    if result.hierarchy is not None:
        summary = hierarchy_stats(result)
        print(f"subnuclei  : {summary.num_subnuclei}")
        print(f"nuclei     : {summary.num_nuclei}")
        print(f"tree depth : {summary.depth}, leaves: {summary.num_leaves}")
        if show_tree:
            print(result.hierarchy.condense().format(max_nodes=max_nodes))
    else:
        print("hierarchy  : (hypo baseline builds none)")


def _read_floats(path: str) -> list[float]:
    with open(path) as handle:
        return [float(line) for line in handle if line.strip()]


def _read_int_rows(path: str) -> list[list[int]]:
    rows = []
    with open(path) as handle:
        for line in handle:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                rows.append([int(tok) for tok in fields])
    return rows


def _run_variant(args: argparse.Namespace) -> int:
    from repro.api import decompose as unified_decompose

    variant = args.variant
    shown = args.backend or "auto"
    if variant in ("weighted", "uncertain"):
        if not args.edge_values:
            raise ReproError(
                f"--variant {variant} needs --edge-values FILE "
                "(one value per line, edge-id order)")
        graph = load_graph(args.path)
        values = _read_floats(args.edge_values)
        params = ({"weights": values} if variant == "weighted"
                  else {"probabilities": values, "eta": args.eta})
        lam = unified_decompose(graph, 1, 2, variant=variant,
                                backend=args.backend, workers=args.workers,
                                **params)
        print(f"graph      : {graph!r}")
        print(f"variant    : {variant} (backend {shown})")
        if variant == "uncertain":
            print(f"eta        : {args.eta}")
        print(f"max lambda : {max(lam, default=0)}")
        return 0
    if variant == "directed":
        rows = _read_int_rows(args.path)
        arcs = [(u, v) for u, v, *_rest in rows]
        n = max((max(u, v) for u, v in arcs), default=-1) + 1
        from repro.graph.directed import DirectedGraph

        graph = DirectedGraph(n, arcs)
        in_core, out_core = unified_decompose(
            graph, 1, 2, variant="directed",
            backend=args.backend, workers=args.workers)
        print(f"graph      : {graph!r}")
        print(f"variant    : directed (backend {shown})")
        print(f"max in-core : {max(in_core, default=0)}")
        print(f"max out-core: {max(out_core, default=0)}")
        return 0
    # temporal / temporal-profile: lines are 'u v [t]' interaction events
    rows = _read_int_rows(args.path)
    events = [(row[0], row[1], row[2] if len(row) > 2 else i)
              for i, row in enumerate(rows)]
    n = max((max(u, v) for u, v, _t in events), default=-1) + 1
    from repro.graph.temporal import TemporalGraph

    graph = TemporalGraph(n, events)
    print(f"graph      : {graph!r}")
    print(f"variant    : {variant} (backend {shown})")
    if variant == "temporal":
        lam = unified_decompose(graph, 1, 2, variant="temporal", h=args.h,
                                backend=args.backend, workers=args.workers)
        print(f"h          : {args.h}")
        print(f"max lambda : {max(lam, default=0)}")
        return 0
    profile = unified_decompose(graph, 1, 2, variant="temporal-profile",
                                backend=args.backend, workers=args.workers)
    for h in sorted(profile):
        print(f"h={h}: max lambda {max(profile[h], default=0)}")
    return 0


def _run_query(args: argparse.Namespace) -> int:
    from repro.backends import build_query_index, load_query_index

    if args.path.endswith(".npz"):
        # registry-style mmap load: read-only page-cache views, no copy
        index = load_query_index(args.path, mmap_mode="r")
        print(f"loaded : {index!r} "
              f"({'mmap' if index.mmapped else 'eager'})")
    else:
        index = build_query_index(load_graph(args.path), args.r, args.s,
                                  backend=args.backend, workers=args.workers)
        print(f"built  : {index!r}")
    if args.save_index:
        index.save(args.save_index)
        print(f"saved  : {args.save_index}")
    if not args.vertices:
        return 0
    try:
        vertices = [int(tok) for tok in args.vertices.split(",") if tok]
    except ValueError as exc:
        raise ReproError(f"bad --vertices list: {exc}") from None
    if args.profile:
        for vertex, levels in zip(vertices,
                                      index.profile_batch(vertices),
                                      strict=True):
            print(f"vertex {vertex}:")
            for level in levels:
                print(f"  {level}")
            if not levels:
                print("  (no communities)")
        return 0
    answers = index.communities_of_vertex_batch(vertices, args.k)
    for vertex, communities in zip(vertices, answers, strict=True):
        sizes = ", ".join(str(len(c)) for c in communities) or "none"
        print(f"vertex {vertex}: {len(communities)} communities at k={args.k} "
              f"(cells: {sizes})")
        if args.cells:
            for cells in communities:
                print(f"  {cells.tolist()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "stats":
        graph = load_graph(args.path)
        print(f"graph    : {graph!r}")
        print(f"vertices : {graph.n}")
        print(f"edges    : {graph.m}")
        print(f"triangles: {triangle_count(graph)}")
        return 0
    if args.command == "decompose":
        if args.variant != "plain":
            return _run_variant(args)
        _print_decomposition(load_graph(args.path), args.r, args.s,
                             args.algorithm, args.tree, args.max_nodes,
                             backend=args.backend, workers=args.workers)
        return 0
    if args.command == "dataset":
        graph = load_dataset(args.name, args.size)
        _print_decomposition(graph, args.r, args.s, args.algorithm,
                             args.tree, args.max_nodes, backend=args.backend,
                             workers=args.workers)
        return 0
    if args.command == "densest":
        graph = load_graph(args.path)
        result = decompose(graph, args.r, args.s, algorithm="fnd",
                           backend=args.backend, workers=args.workers)
        for report in densest_nuclei(result, min_vertices=args.min_vertices,
                                     limit=args.top):
            print(report)
        return 0
    if args.command == "query":
        return _run_query(args)
    if args.command == "build-index":
        from repro.backends import build_query_index
        from repro.external.build import build_diskcsr

        disk = build_diskcsr(args.path, directory=args.csr_dir,
                             chunk_edges=args.chunk_edges)
        try:
            print(f"built  : {disk!r}")
            index = build_query_index(disk, args.r, args.s, backend="disk")
            index.save(args.output, stats=not args.no_stats)
        finally:
            disk.close()
        print(f"saved  : {args.output}")
        return 0
    if args.command == "serve":
        from repro.serve.server import ServerConfig, run_server

        config = ServerConfig(host=args.host, port=args.port,
                              workers=args.workers)
        return run_server(args.indexes, config, mmap=not args.no_mmap)
    if args.command == "export":
        from repro.export import save_hierarchy, skeleton_to_dot, tree_to_dot

        graph = load_graph(args.path)
        result = decompose(graph, args.r, args.s, algorithm="fnd",
                           backend=args.backend, workers=args.workers)
        hierarchy = result.hierarchy
        assert hierarchy is not None
        if args.format == "json":
            save_hierarchy(hierarchy, args.output)
        else:
            text = (tree_to_dot(hierarchy.condense()) if args.format == "dot"
                    else skeleton_to_dot(hierarchy))
            with open(args.output, "w") as handle:
                handle.write(text)
        print(f"wrote {args.format} hierarchy to {args.output}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
