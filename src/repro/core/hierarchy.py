"""Hierarchy-skeleton and condensed nucleus tree — the common output type.

Every hierarchy algorithm (Naive, DFT, FND, LCPS) produces a
:class:`Hierarchy`:

* a list of *skeleton nodes* (the paper's ``subnucleus`` structs), each with
  a λ value and a permanent ``parent`` pointer;
* ``comp`` — for every cell (r-clique), the skeleton node it belongs to;
* a distinguished *root* node with λ = 0 representing the whole graph.

For DFT the skeleton nodes are exactly the sub-(r,s) nuclei T_{r,s}; for FND
they are the non-maximal T*_{r,s}; for LCPS and Naive they are already whole
nuclei.  Whatever the granularity, *condensing* the skeleton — contracting
parent edges that join nodes of equal λ — yields the tree of k-(r,s) nuclei,
and further dropping member-less single-child chain nodes yields a canonical
form that is identical across all four algorithms (the basis of the
equivalence tests).

Condensing is a few array passes (:attr:`Hierarchy.condensed_arrays`):
every node points at its parent across an equal-λ edge, pointer jumping
takes each node to the top of its group, the groups are numbered by their
smallest node, and one gather maps the cells.  :meth:`Hierarchy.condense`
builds the :class:`NucleusTree` objects from those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, NamedTuple

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CondensedArrays", "Hierarchy", "NucleusNode", "NucleusTree",
           "check_skeleton"]


@dataclass
class NucleusNode:
    """One k-(r,s) nucleus in the condensed tree."""

    id: int
    k: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    own_cells: list[int] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.parent is None


class NucleusTree:
    """Condensed hierarchy: one node per nucleus, root = whole graph."""

    def __init__(self, nodes: list[NucleusNode], root: int,
                 cell_nodes: list[int]):
        self.nodes = nodes
        self.root = root
        self._cell_nodes = cell_nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def cell_nodes(self) -> list[int]:
        """``cell → node id`` for every cell.

        Cells are dense ``0 .. C-1`` (every cell is some node's own cell),
        so the map is a flat list.
        """
        return self._cell_nodes

    def __getitem__(self, node_id: int) -> NucleusNode:
        return self.nodes[node_id]

    def subtree_cells(self, node_id: int) -> list[int]:
        """All cells of the nucleus: own cells plus every descendant's."""
        out: list[int] = []
        stack = [node_id]
        while stack:
            node = self.nodes[stack.pop()]
            out.extend(node.own_cells)
            stack.extend(node.children)
        return out

    def nuclei(self, min_k: int = 1) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(k, cells)`` for every nucleus with k >= min_k.

        Member lists include descendants; the root (k=0, whole graph) is
        yielded only when ``min_k == 0``.
        """
        for node in self.nodes:
            if node.k >= min_k and (node.id != self.root or min_k == 0):
                yield node.k, self.subtree_cells(node.id)

    def canonical_nuclei(self) -> set[tuple[int, frozenset[int]]]:
        """Canonical nucleus family used for cross-algorithm equivalence.

        Chain nodes with no own cells and a single child describe the same
        cell set as their child at a smaller k; some algorithms materialise
        them (LCPS builds one node per level) and some do not, so they are
        dropped here.
        """
        out: set[tuple[int, frozenset[int]]] = set()
        for node in self.nodes:
            if node.id == self.root:
                continue
            if not node.own_cells and len(node.children) == 1:
                continue
            out.add((node.k, frozenset(self.subtree_cells(node.id))))
        return out

    def leaves(self) -> list[NucleusNode]:
        """Nuclei with no denser nucleus inside them."""
        return [n for n in self.nodes if not n.children]

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (root alone = 0)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node_id, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in self.nodes[node_id].children)
        return best

    def format(self, max_nodes: int = 200, label=None) -> str:
        """ASCII rendering of the tree (breadth-limited for big graphs)."""
        lines: list[str] = []
        emitted = 0

        def walk(node_id: int, indent: str) -> None:
            nonlocal emitted
            if emitted >= max_nodes:
                return
            node = self.nodes[node_id]
            extra = f" {label(node)}" if label else ""
            size = len(self.subtree_cells(node_id))
            lines.append(f"{indent}k={node.k} cells={size}{extra}")
            emitted += 1
            for child in sorted(node.children, key=lambda c: self.nodes[c].k):
                walk(child, indent + "  ")

        walk(self.root, "")
        if emitted >= max_nodes:
            lines.append("... (truncated)")
        return "\n".join(lines)


class CondensedArrays(NamedTuple):
    """The condensed tree as arrays: each node's level ``k`` and parent
    (-1 at the root), each cell's node, and the root's id.  Node ids are
    :meth:`Hierarchy.condense`'s."""

    node_k: Any
    node_parent: Any
    cell_node: Any
    root: int


def _grouped(keys: Any, count: int) -> list[list[int]]:
    """For every ``g`` in ``range(count)``, the positions ``i`` with
    ``keys[i] == g``, ascending (negative keys belong to no group)."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(count + 1)).tolist()
    flat = order.tolist()
    return [flat[bounds[g]:bounds[g + 1]] for g in range(count)]


def check_skeleton(source: str, lam: Any, node_lambda: Any, parent: Any,
                   comp: Any, root: int) -> None:
    """Raise :class:`GraphFormatError`, naming the array, unless the arrays
    are one hierarchy-skeleton: 1-d integer arrays, ``comp`` one entry per
    cell of ``lam`` and in range, ``parent`` one entry per node of
    ``node_lambda``, exactly one root (``parent`` -1, λ 0), every other
    parent in range with a λ no larger than its child's, and no cycle."""
    arrays = {"lam": lam, "node_lambda": node_lambda, "parent": parent,
              "comp": comp}
    for key, array in arrays.items():
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise GraphFormatError(
                f"{source}: {key} must be a 1-d integer array, got shape "
                f"{array.shape} and dtype {array.dtype}")
    num_nodes = len(node_lambda)
    for key, base in (("comp", "lam"), ("parent", "node_lambda")):
        if len(arrays[key]) != len(arrays[base]):
            raise GraphFormatError(
                f"{source}: {key} has {len(arrays[key])} entries, {base} "
                f"{len(arrays[base])}; they must match")
    if not 0 <= root < num_nodes:
        raise GraphFormatError(
            f"{source}: root {root} is not a node of [0, {num_nodes})")
    if len(comp) and (int(comp.min()) < 0 or int(comp.max()) >= num_nodes):
        raise GraphFormatError(
            f"{source}: comp maps a cell outside the nodes [0, {num_nodes})")
    parent = parent.astype(np.int64)
    if len(parent) and (int(parent.min()) < -1
                        or int(parent.max()) >= num_nodes):
        raise GraphFormatError(
            f"{source}: parent holds a parent outside [0, {num_nodes})")
    roots = np.flatnonzero(parent == -1)
    if roots.tolist() != [root]:
        raise GraphFormatError(
            f"{source}: parent must mark exactly one node, the root {root}, "
            f"with -1; it marks {roots[:8].tolist()}")
    if node_lambda[root] != 0:
        raise GraphFormatError(
            f"{source}: node_lambda of the root {root} must be 0, got "
            f"{int(node_lambda[root])}")
    child = np.flatnonzero(parent >= 0)
    above = np.flatnonzero(node_lambda[parent[child]] > node_lambda[child])
    if len(above):
        node = int(child[above[0]])
        raise GraphFormatError(
            f"{source}: node_lambda of node {node}'s parent "
            f"{int(parent[node])} exceeds the node's own")
    # a tree is shallower than its node count: after that many doublings
    # every node has reached the root, unless it sits on a cycle
    up = np.where(parent >= 0, parent, root)
    for _ in range(num_nodes.bit_length()):
        if (up == root).all():
            break
        up = up[up]
    stuck = np.flatnonzero(up != root)
    if len(stuck):
        raise GraphFormatError(
            f"{source}: parent has a cycle; node {int(stuck[0])} never "
            f"reaches the root")


def _condense(node_lambda: Any, parent: Any, comp: Any,
              root: int) -> CondensedArrays:
    """Contract the equal-λ parent edges of a skeleton (see
    :attr:`Hierarchy.condensed_arrays`)."""
    num_nodes = len(node_lambda)
    ids = np.arange(num_nodes, dtype=np.int64)
    linked = parent >= 0
    safe = np.where(linked, parent, ids)
    up = np.where(linked & (node_lambda[safe] == node_lambda), parent, ids)
    # a chain of equal-λ edges is shorter than the node count, so the
    # doubling stops within its bit length (even on a cyclic skeleton)
    for _ in range(num_nodes.bit_length()):
        jumped = up[up]
        if np.array_equal(jumped, up):
            break
        up = jumped
    # number the groups by their smallest node
    smallest = np.full(num_nodes, num_nodes, dtype=np.int64)
    np.minimum.at(smallest, up, ids)
    first = smallest[up] == ids
    group = (np.cumsum(first) - 1)[smallest[up]]
    top_parent = parent[up[first]]
    node_parent = np.where(top_parent >= 0,
                           group[np.maximum(top_parent, 0)], -1)
    return CondensedArrays(node_lambda[first], node_parent, group[comp],
                           int(group[root]))


class Hierarchy:
    """Hierarchy-skeleton produced by a decomposition algorithm.

    Parameters mirror the paper's data layout: ``node_lambda[i]`` is the λ of
    skeleton node ``i``; ``parent[i]`` its permanent parent pointer (``None``
    or -1 only for the root); ``comp[c]`` maps cell ``c`` to its skeleton node
    (cells with λ = 0 map to the root).  Lists and arrays are both accepted.

    The skeleton is stored as int64 arrays — ``lam_array``,
    ``node_lambda_array``, ``parent_array`` (-1 at the root) and
    ``comp_array`` — which condensing, the flat index and the exports read.
    The list attributes ``lam``, ``node_lambda``, ``parent`` (``None`` at the
    root) and ``comp`` are lists of Python ints built from the arrays on
    first read; editing them does not change the arrays.
    """

    def __init__(self, r: int, s: int, lam: Any, node_lambda: Any,
                 parent: Any, comp: Any, root: int, algorithm: str = ""):
        self.r = r
        self.s = s
        self.lam_array = np.asarray(lam, dtype=np.int64)
        self.node_lambda_array = np.asarray(node_lambda, dtype=np.int64)
        if not isinstance(parent, np.ndarray):
            parent = [-1 if p is None else p for p in parent]
        self.parent_array = np.asarray(parent, dtype=np.int64)
        self.comp_array = np.asarray(comp, dtype=np.int64)
        self.root = int(root)
        self.algorithm = algorithm
        self._members: list[list[int]] | None = None
        self._condensed: NucleusTree | None = None

    # ------------------------------------------------------------------
    @cached_property
    def lam(self) -> list[int]:
        return self.lam_array.tolist()

    @cached_property
    def node_lambda(self) -> list[int]:
        return self.node_lambda_array.tolist()

    @cached_property
    def parent(self) -> list[int | None]:
        return [None if p < 0 else p for p in self.parent_array.tolist()]

    @cached_property
    def comp(self) -> list[int]:
        return self.comp_array.tolist()

    @property
    def num_cells(self) -> int:
        return len(self.lam_array)

    @property
    def num_nodes(self) -> int:
        """Number of skeleton nodes, root included."""
        return len(self.node_lambda_array)

    @property
    def num_subnuclei(self) -> int:
        """Skeleton nodes excluding the root: |T| for DFT, |T*| for FND."""
        return self.num_nodes - 1

    @property
    def max_lambda(self) -> int:
        return int(self.lam_array.max()) if self.num_cells else 0

    def members(self, node: int) -> list[int]:
        """Cells directly assigned to a skeleton node."""
        if self._members is None:
            self._members = _grouped(self.comp_array, self.num_nodes)
        return self._members[node]

    def children_lists(self) -> list[list[int]]:
        """Skeleton children per node."""
        return _grouped(self.parent_array, self.num_nodes)

    # ------------------------------------------------------------------
    @cached_property
    def condensed_arrays(self) -> CondensedArrays:
        """The condensed tree as arrays, node-for-node :meth:`condense`'s.

        Every node points at its parent when the two share a λ, and at
        itself otherwise; pointer jumping, capped at the node count's bit
        length, takes each node to the top of its equal-λ group.  The groups
        are numbered by their smallest node, a group's parent is the group
        of its top's parent, and one gather maps every cell to its group.
        """
        return _condense(self.node_lambda_array, self.parent_array,
                         self.comp_array, self.root)

    def condense(self) -> NucleusTree:
        """Contract equal-λ parent edges → the tree of k-(r,s) nuclei."""
        if self._condensed is None:
            node_k, node_parent, cell_node, root = self.condensed_arrays
            count = len(node_k)
            own = _grouped(cell_node, count)
            children = _grouped(node_parent, count)
            nodes = [NucleusNode(id=i, k=k, parent=None if up < 0 else up,
                                 children=children[i], own_cells=own[i])
                     for i, (k, up) in enumerate(zip(
                         node_k.tolist(), node_parent.tolist(), strict=True))]
            self._condensed = NucleusTree(nodes, root, cell_node.tolist())
        return self._condensed

    def canonical_nuclei(self) -> set[tuple[int, frozenset[int]]]:
        """Canonical nucleus family; equal across all algorithms."""
        return self.condense().canonical_nuclei()

    def nucleus_of_cell(self, cell: int, k: int | None = None) -> list[int]:
        """Cells of the maximum k-(r,s) nucleus of ``cell``.

        With ``k=None`` uses k = λ(cell) (the *maximum* nucleus of the cell,
        Definition 3).  Otherwise returns the k-nucleus containing the cell,
        for any 1 <= k <= λ(cell).
        """
        lam = int(self.lam_array[cell])
        target = lam if k is None else k
        if target > lam:
            raise ValueError(
                f"cell {cell} has lambda {lam} < requested k {target}")
        tree = self.condense()
        # locate the condensed node of the cell, then climb until k <= target
        node_id = tree.cell_nodes()[cell]
        while True:
            node = tree[node_id]
            par = node.parent
            if node.k <= target or par is None:
                break
            if tree[par].k < target:
                break
            node_id = par
        return tree.subtree_cells(node_id)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal-consistency checks; raises AssertionError on violation.

        Reads the list attributes, so it also sees edits made through them:
        :func:`check_skeleton`'s conditions, and every cell at the λ of its
        node (the root's cells at 0).
        """
        lam = np.asarray(self.lam, dtype=np.int64)
        node_lambda = np.asarray(self.node_lambda, dtype=np.int64)
        parent = np.asarray([-1 if p is None else p for p in self.parent],
                            dtype=np.int64)
        comp = np.asarray(self.comp, dtype=np.int64)
        try:
            check_skeleton("hierarchy", lam, node_lambda, parent, comp,
                           self.root)
        except GraphFormatError as exc:
            raise AssertionError(str(exc)) from None
        expected = np.where(comp == self.root, 0, node_lambda[comp])
        wrong = np.flatnonzero(expected != lam)
        assert not len(wrong), (
            f"cell {int(wrong[0])} (lambda {int(lam[wrong[0]])}) assigned to "
            f"node {int(comp[wrong[0]])} of lambda {int(expected[wrong[0]])}")

    def __repr__(self) -> str:
        return (f"<Hierarchy ({self.r},{self.s}) algorithm={self.algorithm!r} "
                f"cells={self.num_cells} subnuclei={self.num_subnuclei} "
                f"max_lambda={self.max_lambda}>")
