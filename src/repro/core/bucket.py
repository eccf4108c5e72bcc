"""Bucket priority queues.

Peeling repeatedly extracts the unprocessed cell of minimum degree while
degrees only move toward the current minimum; the LCPS traversal repeatedly
extracts the discovered vertex of maximum λ.  Both are served by bucket
queues with lazy invalidation: every priority change pushes a fresh entry and
stale entries are skipped on pop.  Priorities are small non-negative ints
(bounded by the max clique degree), so buckets are plain lists.

This is the structure Matula & Beck said was hard to maintain ("an
implementation may not always be possible owing to the difficulty of
maintaining an appropriate priority queue") and that the paper resolves with
bucket sort — same resolution here.
"""

from __future__ import annotations

__all__ = ["MinBucketQueue", "MaxBucketQueue", "FlatBucketQueue",
           "bucket_order"]


def bucket_order(priorities: list[int]) -> tuple[list[int], list[int],
                                                 list[int]]:
    """Counting-sort state of the Batagelj–Zaversnik peel: ``(bins, vert,
    pos)``.

    ``vert`` holds the items ordered by priority, ``pos`` inverts it, and
    ``bins[p]`` is the first slot of the priority-``p`` block (sized
    ``top + 2`` so ``bins[p + 1]`` is always in range).  The per-cell
    peel loops mutate all three in place with the O(1) block-swap
    decrement.
    """
    n = len(priorities)
    top = max(priorities, default=0)
    bins = [0] * (top + 2)
    for p in priorities:
        bins[p + 1] += 1
    for p in range(top + 1):
        bins[p + 1] += bins[p]
    vert = [0] * n
    pos = [0] * n
    cursor = bins[:top + 1]
    for item in range(n):
        slot = cursor[priorities[item]]
        vert[slot] = item
        pos[item] = slot
        cursor[priorities[item]] = slot + 1
    return bins, vert, pos


class MinBucketQueue:
    """Monotone min-priority bucket queue over items ``0..n-1``.

    Built once from the initial priority array; :meth:`update` re-registers an
    item after its priority drops.  Pops skip entries whose recorded priority
    no longer matches the item's current priority.
    """

    __slots__ = ("_buckets", "_current", "_cursor")

    def __init__(self, priorities: list[int]):
        top = max(priorities, default=0)
        self._buckets: list[list[int]] = [[] for _ in range(top + 1)]
        self._current = list(priorities)
        for item, priority in enumerate(priorities):
            self._buckets[priority].append(item)
        self._cursor = 0

    def update(self, item: int, priority: int) -> None:
        """Record that ``item`` now has the given (lower) priority."""
        self._current[item] = priority
        if priority < self._cursor:
            self._cursor = priority
        self._buckets[priority].append(item)

    def pop(self) -> tuple[int, int] | None:
        """Remove and return ``(item, priority)`` with minimum priority.

        Returns ``None`` when the queue is exhausted.  Each item is returned
        at most once (later stale entries are skipped).
        """
        buckets = self._buckets
        current = self._current
        cursor = self._cursor
        while cursor < len(buckets):
            bucket = buckets[cursor]
            while bucket:
                item = bucket.pop()
                if current[item] == cursor:
                    current[item] = -1  # mark extracted
                    self._cursor = cursor
                    return item, cursor
            cursor += 1
        self._cursor = cursor
        return None


class MaxBucketQueue:
    """Max-priority bucket queue for LCPS frontier management.

    Items may be pushed at any time with a fixed priority (a vertex's λ never
    changes during traversal), so no invalidation is needed — only duplicate
    suppression, which the caller does with its ``discovered`` flags.
    """

    __slots__ = ("_buckets", "_cursor", "_size")

    def __init__(self, max_priority: int):
        self._buckets: list[list[int]] = [[] for _ in range(max_priority + 1)]
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, item: int, priority: int) -> None:
        """Add ``item`` with the given priority."""
        self._buckets[priority].append(item)
        if priority > self._cursor:
            self._cursor = priority
        self._size += 1

    def pop(self) -> tuple[int, int] | None:
        """Remove and return ``(item, priority)`` with maximum priority."""
        if self._size == 0:
            return None
        cursor = self._cursor
        buckets = self._buckets
        while cursor >= 0 and not buckets[cursor]:
            cursor -= 1
        self._cursor = cursor
        item = buckets[cursor].pop()
        self._size -= 1
        return item, cursor


class FlatBucketQueue:
    """Monotone min-priority queue in four flat arrays (Batagelj–Zaversnik).

    A counting sort places the items into ``_vert`` ordered by priority;
    ``_pos`` inverts it and ``_bins[p]`` points at the first slot of the
    priority-``p`` block.  A unit decrement swaps the item with the first
    slot of its block and shifts the block boundary — O(1), with **no**
    allocation and no stale entries to skip, unlike the lazy
    :class:`MinBucketQueue`.  Pops walk ``_vert`` left to right, which is
    exactly non-decreasing current priority.

    Peeling only ever lowers priorities one unit at a time and never below
    the priority of the last pop, which is precisely the regime where the
    block-swap invariant holds; :meth:`update` enforces it.
    """

    __slots__ = ("_deg", "_vert", "_pos", "_bins", "_ptr")

    def __init__(self, priorities: list[int]):
        self._deg = list(priorities)
        self._bins, self._vert, self._pos = bucket_order(self._deg)
        self._ptr = 0

    def __len__(self) -> int:
        return len(self._vert) - self._ptr

    def priority(self, item: int) -> int:
        """Current priority of ``item``."""
        return self._deg[item]

    # live read-only views of the queue state, for loops that peel on
    # the queue's own arrays instead of keeping copies beside it
    @property
    def priorities(self) -> list[int]:
        """Current priority of every item.  A popped item's entry is the
        priority it was popped at and never changes again."""
        return self._deg

    @property
    def order(self) -> list[int]:
        """Items by slot: the popped prefix is the pop order, the rest
        is ordered by current priority."""
        return self._vert

    @property
    def slots(self) -> list[int]:
        """Slot of every item in :attr:`order`: an item whose slot is
        below the last pop's was popped before it."""
        return self._pos

    def decrement(self, item: int) -> int:
        """Lower ``item``'s priority by one; returns the new priority.

        Only valid while ``item`` is unpopped and its priority exceeds the
        last popped priority (the peeling guard ``degrees[v] > k``).
        """
        deg = self._deg
        vert = self._vert
        pos = self._pos
        bins = self._bins
        d = deg[item]
        slot = pos[item]
        first = bins[d]
        other = vert[first]
        if other != item:
            vert[first] = item
            vert[slot] = other
            pos[item] = first
            pos[other] = slot
        bins[d] = first + 1
        deg[item] = d - 1
        return d - 1

    def update(self, item: int, priority: int) -> None:
        """Drop-in for :meth:`MinBucketQueue.update` (unit decrements only)."""
        if priority != self._deg[item] - 1:
            raise ValueError(
                f"FlatBucketQueue supports unit decrements only: item {item} "
                f"has priority {self._deg[item]}, got {priority}")
        self.decrement(item)

    def pop(self) -> tuple[int, int] | None:
        """Remove and return ``(item, priority)`` with minimum priority."""
        ptr = self._ptr
        vert = self._vert
        if ptr >= len(vert):
            return None
        item = vert[ptr]
        self._ptr = ptr + 1
        return item, self._deg[item]
