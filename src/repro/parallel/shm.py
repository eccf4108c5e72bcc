"""Zero-copy shared-memory transport for the flat peeling state.

The whole point of the CSR layout (and of the flat-int
:class:`~repro.core.disjoint_set.ArrayRootedForest`) is that every piece
of peeling state is a homogeneous typed array.  This module moves those
arrays across process boundaries without serialising them:

* :class:`SharedArrayBundle` exports a dict of numpy arrays into one
  ``multiprocessing.shared_memory`` segment per array; its picklable
  :attr:`SharedArrayBundle.spec` lets a worker :meth:`attach
  <SharedArrayBundle.attach>` numpy views over the *same* pages — no
  copy, no pickle of the payload, writes visible to every process.
* :class:`SharedRootedForest` is the rooted-forest (Find-r / Link-r)
  discipline over shared int64 arrays, so hierarchy-skeleton state built
  by one process can be read — or extended — by another.

Owners must call :meth:`SharedArrayBundle.unlink` (workers only
:meth:`SharedArrayBundle.close`); :class:`SharedArrayBundle` is a context
manager that does the right one.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import KeysView

import numpy as np

from repro.core.disjoint_set import ArrayRootedForest

__all__ = ["SharedArrayBundle", "SharedRootedForest", "share_forest"]


def _attach_segment(name: str, untrack: bool) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility.

    CPython (< 3.13) registers attached segments with the resource
    tracker as if this process had created them (bpo-39959).  In a
    *spawn*-started worker that tracker is private, so at worker exit it
    would "clean up" — unlink — arrays the owner is still using; such
    workers pass ``untrack=True`` to undo the registration.  Fork-started
    workers share the owner's tracker, where the duplicate registration
    is harmless (and unregistering would drop the owner's own entry).
    """
    seg = shared_memory.SharedMemory(name=name)
    if untrack:
        try:
            resource_tracker.unregister(
                seg._name, "shared_memory")  # type: ignore[attr-defined]
        # the tracker API is private and varies across CPython versions;
        # failing to unregister only re-creates the bpo-39959 noise the
        # call is trying to avoid, so any error here is safe to drop
        except Exception:  # pragma: no cover  # repro-lint: disable=no-swallowed-worker-errors
            pass
    return seg


class SharedArrayBundle:
    """A named set of numpy arrays backed by shared-memory segments.

    Created by the owner with :meth:`create` (contents are copied into the
    segments once); any process holding the picklable :attr:`spec` can
    :meth:`attach` zero-copy views.  Indexing by key returns the live
    ``np.ndarray`` view.
    """

    def __init__(self, segments: dict[str, shared_memory.SharedMemory],
                 arrays: dict[str, np.ndarray],
                 spec: tuple, owner: bool) -> None:
        self._segments = segments
        self._arrays = arrays
        self.spec = spec
        self._owner = owner

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Export ``arrays`` into fresh shared-memory segments (one copy)."""
        segments: dict[str, shared_memory.SharedMemory] = {}
        views: dict[str, np.ndarray] = {}
        spec: list[tuple[str, str, str, tuple[int, ...]]] = []
        try:
            for key, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                seg = shared_memory.SharedMemory(
                    create=True, size=max(arr.nbytes, 1))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                segments[key] = seg
                views[key] = view
                spec.append((key, seg.name, arr.dtype.str, arr.shape))
        except Exception:
            for seg in segments.values():
                seg.close()
                seg.unlink()
            raise
        return cls(segments, views, tuple(spec), owner=True)

    @classmethod
    def attach(cls, spec: tuple, untrack: bool = False) -> "SharedArrayBundle":
        """Zero-copy views over the segments another process created.

        ``untrack=True`` is for spawn-started workers whose private
        resource tracker must not adopt the segments (see
        :func:`_attach_segment`).
        """
        segments: dict[str, shared_memory.SharedMemory] = {}
        views: dict[str, np.ndarray] = {}
        try:
            for key, name, dtype, shape in spec:
                seg = _attach_segment(name, untrack)
                segments[key] = seg
                views[key] = np.ndarray(shape, dtype=np.dtype(dtype),
                                        buffer=seg.buf)
        except Exception:
            for seg in segments.values():
                seg.close()
            raise
        return cls(segments, views, tuple(spec), owner=False)

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def keys(self) -> KeysView[str]:
        return self._arrays.keys()

    def close(self) -> None:
        """Drop this process's mapping (the segments live on)."""
        self._arrays = {}
        for seg in self._segments.values():
            seg.close()
        self._segments = {}

    def unlink(self) -> None:
        """Free the segments (owner only); implies :meth:`close`."""
        segments = list(self._segments.values())
        self.close()
        for seg in segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


class SharedRootedForest:
    """Find-r / Link-r over shared int64 arrays (fixed capacity).

    The shared-memory counterpart of
    :class:`~repro.core.disjoint_set.ArrayRootedForest`: same ``parent`` /
    ``root`` / ``rank`` discipline and ``-1`` sentinels, but the three
    arrays live in a :class:`SharedArrayBundle` so several processes can
    inspect (or grow, one writer at a time) the same skeleton.  ``size``
    tracks how many of the pre-sized slots are live nodes.
    """

    __slots__ = ("bundle", "parent", "root", "rank", "size")

    def __init__(self, bundle: SharedArrayBundle, size: int) -> None:
        self.bundle = bundle
        self.parent = bundle["parent"]
        self.root = bundle["root"]
        self.rank = bundle["rank"]
        self.size = size

    @classmethod
    def attach(cls, spec: tuple, size: int,
               untrack: bool = False) -> "SharedRootedForest":
        return cls(SharedArrayBundle.attach(spec, untrack), size)

    def __len__(self) -> int:
        return self.size

    @property
    def capacity(self) -> int:
        return len(self.parent)

    def make_node(self) -> int:
        """Claim the next pre-sized slot as a fresh isolated node."""
        idx = self.size
        if idx >= self.capacity:
            raise IndexError("shared forest capacity exhausted")
        self.parent[idx] = -1
        self.root[idx] = -1
        self.rank[idx] = 0
        self.size = idx + 1
        return idx

    def make_nodes(self, count: int) -> int:
        """Claim ``count`` contiguous slots as fresh nodes; first id back.

        The batch counterpart of :meth:`make_node` — one vectorised write
        per array instead of ``count`` scalar stores.
        """
        first = self.size
        end = first + count
        if end > self.capacity:
            raise IndexError("shared forest capacity exhausted")
        self.parent[first:end] = -1
        self.root[first:end] = -1
        self.rank[first:end] = 0
        self.size = end
        return first

    def adopt_roots(self, new_root: int) -> None:
        """Parent every live parentless node except ``new_root`` to it.

        Vectorised final step of an FND-style construction: the
        surviving tree roots become children of the λ = 0 whole-graph
        node.  Only ``parent`` is written; ``root`` shortcuts are left
        as compressed.
        """
        live = self.parent[:self.size]
        orphans = live < 0
        orphans[new_root] = False
        live[orphans] = new_root

    def find(self, x: int, compress: bool = True) -> int:
        """Greatest ancestor of ``x`` via ``root`` pointers (Find-r)."""
        root = self.root
        top = x
        while root[top] >= 0:
            top = int(root[top])
        if compress:
            while x != top:
                nxt = int(root[x])
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

    def attach_node(self, child_root: int, new_parent: int) -> None:
        """Make ``child_root`` (a current root) a child of ``new_parent``."""
        self.parent[child_root] = new_parent
        self.root[child_root] = new_parent

    def to_array_forest(self) -> ArrayRootedForest:
        """Copy the live slots back into a process-local forest."""
        forest = ArrayRootedForest()
        forest.parent = self.parent[:self.size].tolist()
        forest.root = self.root[:self.size].tolist()
        forest.rank = self.rank[:self.size].tolist()
        return forest


def share_forest(forest: ArrayRootedForest,
                 capacity: int | None = None) -> SharedRootedForest:
    """Export an :class:`ArrayRootedForest` into shared memory.

    ``capacity`` pre-sizes the arrays (default: the current node count) so
    the shared copy can still :meth:`~SharedRootedForest.make_node`.
    """
    size = len(forest)
    capacity = size if capacity is None else max(capacity, size)
    parent = np.full(capacity, -1, dtype=np.int64)
    root = np.full(capacity, -1, dtype=np.int64)
    rank = np.zeros(capacity, dtype=np.int64)
    parent[:size] = forest.parent
    root[:size] = forest.root
    rank[:size] = forest.rank
    bundle = SharedArrayBundle.create(
        {"parent": parent, "root": root, "rank": rank})
    return SharedRootedForest(bundle, size)
