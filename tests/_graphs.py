"""Graph strategies and converters shared by the test modules.

Lives in a plain module (not ``conftest.py``) so test files can import it
explicitly: importing strategies *from* a conftest relies on which conftest
happens to own the ``conftest`` module name, which breaks as soon as another
directory (``benchmarks/``) also carries one.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from repro.core.disjoint_set import DisjointSetForest
from repro.core.hierarchy import Hierarchy, NucleusNode, NucleusTree
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


def assert_same_bytes(got, want) -> None:
    """Equal nested tuples of arrays: same dtype, shape and bytes."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
        return
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def grid_graph(rows: int, cols: int, name: str = "") -> Graph:
    """The ``rows × cols`` grid: interior degree 4, border 3, corners 2."""
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges, name=name)


#: graphs whose degrees, supports and clique counts tie everywhere: the
#: inputs on which a sort that breaks ties by anything but the id or the
#: position shows in the arrays
TIE_GRAPHS = [
    Graph.empty(0, name="empty"),
    Graph.empty(9, name="isolated"),
    generators.cycle_graph(40, name="cycle"),
    generators.complete_graph(12, name="k12"),
    generators.star(40, name="star"),
    grid_graph(6, 7, name="grid"),
    Graph(30, [(u, v) for u in range(10, 20) for v in range(u + 1, 20)]
          + [(0, 29), (5, 25)], name="k10-with-isolated"),
    generators.ring_of_cliques(6, 6, name="ring-of-k6"),
]


def reference_forward_structure(csr) -> tuple:
    """``(fptr, fdst, feid, fkeys)`` by two ``np.lexsort`` calls, one for
    the (degree, id) rank and one for the (source, target) edge order: the
    forward structure the packed-key sorts replaced, kept as their
    oracle."""
    n, m = csr.n, csr.m
    deg = np.diff(csr.indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ru, rv = rank[csr.esrc], rank[csr.etgt]
    fsrc = np.minimum(ru, rv)
    fdst = np.maximum(ru, rv)
    order = np.lexsort((fdst, fsrc))
    fsrc_s, fdst_s = fsrc[order], fdst[order]
    feid = np.arange(m, dtype=np.int64)[order]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fsrc_s, minlength=n), out=fptr[1:])
    return fptr, fdst_s, feid, fsrc_s * n + fdst_s


def reference_fill_incidence(occ_columns, comp_rows, size: int) -> tuple:
    """``(sup, ptr, comps)`` by a stable ``np.argsort`` of the
    clique-major occurrences: the incidence fill the packed-key sort
    replaced, kept as its oracle."""
    occ = np.stack(occ_columns, axis=1).ravel()
    sup = np.bincount(occ, minlength=size).astype(np.int64)
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(sup, out=ptr[1:])
    order = np.argsort(occ, kind="stable")
    comps = tuple(
        np.stack(columns, axis=1).ravel()[order]
        for columns in zip(*comp_rows, strict=True))
    return sup, ptr, comps


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


def reference_condense(hierarchy: Hierarchy) -> NucleusTree:
    """The condensed tree by one disjoint-set pass over the skeleton's
    lists and one ``find`` per cell: the lowering the array condense
    replaced, kept as its oracle.  Groups are numbered by their smallest
    node; children and own cells come out ascending."""
    node_lambda, parent = hierarchy.node_lambda, hierarchy.parent
    n_nodes = len(node_lambda)
    dsu = DisjointSetForest(n_nodes)
    for node in range(n_nodes):
        par = parent[node]
        if par is not None and node_lambda[node] == node_lambda[par]:
            dsu.union(node, par)
    group_id: dict[int, int] = {}
    for node in range(n_nodes):
        rep = dsu.find(node)
        if rep not in group_id:
            group_id[rep] = len(group_id)
    nodes = [NucleusNode(id=i, k=-1, parent=None)
             for i in range(len(group_id))]
    for node in range(n_nodes):
        gid = group_id[dsu.find(node)]
        nodes[gid].k = node_lambda[node]
        par = parent[node]
        if par is not None and node_lambda[par] != node_lambda[node]:
            nodes[gid].parent = group_id[dsu.find(par)]
    cell_nodes = []
    for cell, node_id in enumerate(hierarchy.comp):
        gid = group_id[dsu.find(node_id)]
        nodes[gid].own_cells.append(cell)
        cell_nodes.append(gid)
    for node in nodes:
        if node.parent is not None:
            nodes[node.parent].children.append(node.id)
    return NucleusTree(nodes, group_id[dsu.find(hierarchy.root)],
                       cell_nodes)


def reference_tour(tree: NucleusTree) -> tuple[list[int], list[int]]:
    """Preorder interval labels ``(tin, tout)`` by a stack walk that pushes
    each node's children in ascending id, so it visits them in descending
    id: the oracle of the flat index's array passes."""
    tin = [0] * len(tree)
    tout = [0] * len(tree)
    timer = 0
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            tout[node] = timer
            continue
        tin[node] = timer
        timer += 1
        stack.append((node, True))
        for child in tree[node].children:
            stack.append((child, False))
    return tin, tout


def assert_lowered_like_reference(hierarchy: Hierarchy, index=None) -> None:
    """``hierarchy.condense()`` equals :func:`reference_condense` node for
    node (k, parent, own cells, children order, root); with a
    :class:`~repro.flatindex.FlatHierarchyIndex` of it, its tree arrays,
    tour labels and tour-sorted cells equal the reference lowering's."""
    expected = reference_condense(hierarchy)
    tree = hierarchy.condense()
    assert tree.root == expected.root
    assert [(node.id, node.k, node.parent, node.children, node.own_cells)
            for node in tree.nodes] == \
        [(node.id, node.k, node.parent, node.children, node.own_cells)
         for node in expected.nodes]
    assert tree.cell_nodes() == expected.cell_nodes()
    if index is None:
        return
    tin, tout = reference_tour(expected)
    cell_node = expected.cell_nodes()
    cells_in_tour = sorted(range(len(cell_node)),
                           key=lambda cell: tin[cell_node[cell]])
    assert index.root == expected.root
    assert index.node_k.tolist() == [node.k for node in expected.nodes]
    assert index.node_parent.tolist() == \
        [-1 if node.parent is None else node.parent
         for node in expected.nodes]
    assert index.tin.tolist() == tin
    assert index.tout.tolist() == tout
    assert index.cell_node.tolist() == cell_node
    assert index.cells_in_tour.tolist() == cells_in_tour
    assert index.cell_tin_sorted.tolist() == \
        [tin[cell_node[cell]] for cell in cells_in_tour]
    assert index.lam.tolist() == hierarchy.lam
