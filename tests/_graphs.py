"""Graph strategies and converters shared by the test modules.

Lives in a plain module (not ``conftest.py``) so test files can import it
explicitly: importing strategies *from* a conftest relies on which conftest
happens to own the ``conftest`` module name, which breaks as soon as another
directory (``benchmarks/``) also carries one.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.adjacency import Graph

#: small named graphs covering the structural corner cases (empty,
#: isolated vertices, disconnected edges, a clique, trees) and generated
#: families with real hierarchies
GENERATOR_SUITE = [
    Graph.empty(0, name="empty"),
    Graph.empty(7, name="isolated"),
    Graph(6, [(0, 1), (2, 3)], name="disconnected-edges"),
    generators.complete_graph(6, name="k6"),
    generators.path_graph(9, name="path"),
    generators.star(8, name="star"),
    generators.ring_of_cliques(4, 5, name="ring-of-cliques"),
    generators.planted_cliques(3, 6, bridge_edges=2, name="planted"),
    generators.erdos_renyi(60, 0.15, seed=3, name="er"),
    generators.barabasi_albert(120, 4, seed=5, name="ba"),
    generators.powerlaw_cluster(150, 5, 0.6, seed=9, name="plc"),
]


@st.composite
def small_graphs(draw, min_n: int = 2, max_n: int = 12, max_m: int = 36):
    """Random simple graphs small enough for brute-force oracles."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), max_size=max_m,
                              unique=True))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def dense_small_graphs(draw, min_n: int = 4, max_n: int = 10):
    """Small graphs biased dense, so (2,3)/(3,4) structure actually appears."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(possible),
                         max_size=len(possible)))
    edges = [e for e, flag in zip(possible, keep) if flag]
    return Graph(n, edges)


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to networkx (all vertices preserved, including isolated)."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from(graph.edges())
    return nxg


def reference_csr_arrays(graph: Graph) -> dict[str, list[int]]:
    """The five CSR arrays of ``graph``, read off its object adjacency and
    :class:`~repro.graph.adjacency.EdgeIndex`: the oracle every CSR build
    path must reproduce."""
    index = graph.edge_index
    indptr = [0]
    indices: list[int] = []
    eids: list[int] = []
    for v in graph.vertices():
        for w in graph.neighbors(v):
            indices.append(w)
            eids.append(index.id_of(v, w))
        indptr.append(len(indices))
    return {"indptr": indptr, "indices": indices, "eids": eids,
            "esrc": list(index.source), "etgt": list(index.target)}
