"""Disjoint-set forests: the classic structure (paper Alg. 4) and the rooted
variant used for hierarchy-skeleton construction (paper Alg. 7).

The rooted variant is the paper's key data-structure insight.  Each
hierarchy-skeleton node carries two pointers:

* ``parent`` — the permanent tree edge of the hierarchy-skeleton.  Written
  once, never rewritten by finds.
* ``root`` — a shortcut to the node's greatest ancestor, maintained with path
  compression.  ``Find-r`` walks and compresses **only** ``root`` pointers,
  so the hierarchy tree the ``parent`` pointers spell out is preserved while
  union-find stays near O(α).

Both structures use union by rank.
"""

from __future__ import annotations

__all__ = ["ArrayRootedForest", "DisjointSetForest", "RootedForest"]


class DisjointSetForest:
    """Union-find with union by rank and full path compression (Alg. 4)."""

    __slots__ = ("_parent", "_rank", "_count")

    def __init__(self, size: int = 0):
        self._parent = list(range(size))
        self._rank = [0] * size
        self._count = size

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def set_count(self) -> int:
        """Number of disjoint sets currently represented."""
        return self._count

    def make_set(self) -> int:
        """Create a fresh singleton set and return its element id."""
        idx = len(self._parent)
        self._parent.append(idx)
        self._rank.append(0)
        self._count += 1
        return idx

    def find(self, x: int) -> int:
        """Representative of the set containing ``x`` (with path compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> int:
        """Merge the sets of ``x`` and ``y``; return the surviving root."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return rx
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self._count -= 1
        return rx

    def connected(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)


class RootedForest:
    """The paper's modified disjoint-set forest (Alg. 7).

    Nodes are created with :meth:`make_node` (returning dense ids).  The
    structure maintains, per node:

    * ``parent`` — permanent hierarchy-skeleton edge (``None`` until linked);
    * ``root``  — union-find shortcut, compressed by :meth:`find`;
    * ``rank``  — union-by-rank rank.

    Two mutation paths exist, mirroring the paper:

    * :meth:`union` (Union-r) — merge two same-λ subnuclei: links one root
      under the other, setting **both** ``parent`` and ``root``;
    * :meth:`attach` — make a (found) root a child of a lower-λ subnucleus:
      sets ``parent`` and ``root`` to the given node (Alg. 6 line 21 /
      Alg. 9 line 10).
    """

    __slots__ = ("parent", "root", "rank")

    def __init__(self):
        self.parent: list[int | None] = []
        self.root: list[int | None] = []
        self.rank: list[int] = []

    def __len__(self) -> int:
        return len(self.parent)

    def make_node(self) -> int:
        """Create a new isolated node and return its id."""
        idx = len(self.parent)
        self.parent.append(None)
        self.root.append(None)
        self.rank.append(0)
        return idx

    def find(self, x: int, compress: bool = True) -> int:
        """Greatest ancestor of ``x`` via ``root`` pointers (Find-r).

        Compresses ``root`` pointers only; ``parent`` is untouched.
        ``compress=False`` disables path compression — an ablation knob
        used to measure how much the paper's heuristic actually buys.
        """
        root = self.root
        top = x
        while root[top] is not None:
            top = root[top]  # type: ignore[assignment]
        if compress:
            while x != top:
                nxt = root[x]
                root[x] = top
                x = nxt  # type: ignore[assignment]
        return top

    def link(self, x: int, y: int) -> int:
        """Link-r on two roots; returns the surviving root."""
        if x == y:
            return x
        if self.rank[x] > self.rank[y]:
            x, y = y, x
        # x goes under y
        self.parent[x] = y
        self.root[x] = y
        if self.rank[x] == self.rank[y]:
            self.rank[y] += 1
        return y

    def union(self, x: int, y: int) -> int:
        """Union-r: merge the trees containing ``x`` and ``y``."""
        return self.link(self.find(x), self.find(y))

    def attach(self, child_root: int, new_parent: int) -> None:
        """Make ``child_root`` (a current root) a child of ``new_parent``.

        Used when a higher-λ structure is discovered to live inside a
        lower-λ subnucleus.
        """
        self.parent[child_root] = new_parent
        self.root[child_root] = new_parent


class ArrayRootedForest:
    """:class:`RootedForest` on homogeneous flat ``int`` arrays.

    Same Find-r / Union-r / attach discipline, but ``parent`` and ``root``
    are plain ``int`` lists with ``-1`` as the "no link" sentinel instead of
    ``None``-holed lists.  This is the layout FND (:mod:`repro.core.fnd`)
    and the traversal algorithms share: every
    pointer is an int, so the whole skeleton state is three flat arrays that
    can be pre-sized, copied cheaply, and (later) handed to shared-memory
    workers.  :meth:`parents_or_none` converts to the ``None``-sentinel
    convention :class:`~repro.core.hierarchy.Hierarchy` stores.
    """

    __slots__ = ("parent", "root", "rank")

    def __init__(self, size: int = 0):
        self.parent: list[int] = [-1] * size
        self.root: list[int] = [-1] * size
        self.rank: list[int] = [0] * size

    def __len__(self) -> int:
        return len(self.parent)

    def make_node(self) -> int:
        """Create a new isolated node and return its id."""
        idx = len(self.parent)
        self.parent.append(-1)
        self.root.append(-1)
        self.rank.append(0)
        return idx

    def find(self, x: int, compress: bool = True) -> int:
        """Greatest ancestor of ``x`` via ``root`` pointers (Find-r)."""
        root = self.root
        top = x
        while root[top] >= 0:
            top = root[top]
        if compress:
            while x != top:
                nxt = root[x]
                root[x] = top
                x = nxt
        return top

    def link(self, x: int, y: int) -> int:
        """Link-r on two roots; returns the surviving root."""
        if x == y:
            return x
        if self.rank[x] > self.rank[y]:
            x, y = y, x
        # x goes under y
        self.parent[x] = y
        self.root[x] = y
        if self.rank[x] == self.rank[y]:
            self.rank[y] += 1
        return y

    def union(self, x: int, y: int) -> int:
        """Union-r: merge the trees containing ``x`` and ``y``."""
        return self.link(self.find(x), self.find(y))

    def attach(self, child_root: int, new_parent: int) -> None:
        """Make ``child_root`` (a current root) a child of ``new_parent``."""
        self.parent[child_root] = new_parent
        self.root[child_root] = new_parent

    def parents_or_none(self) -> list[int | None]:
        """The parent array with ``-1`` mapped back to ``None``."""
        return [p if p >= 0 else None for p in self.parent]
