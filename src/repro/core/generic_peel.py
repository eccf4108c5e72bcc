"""One peel kernel, every decomposition: the generic flat-array peel.

The paper's central observation is that k-core, k-truss, every (r, s)
nucleus — and the survey's weighted/directed/uncertain/temporal
adaptations — are the *same* peel-and-link skeleton with different cell
and degree definitions.  :func:`generic_peel` is that skeleton over flat
arrays, parameterised by

* the **initial cell values** (degrees ω of whatever the cells are),
* the **decrement rule** — either a *unit rule* (each spent s-clique
  lowers a neighbour cell by exactly one, the Batagelj–Zaversnik regime)
  or a *revalue rule* (the cell's value is recomputed outright, as
  weighted degrees and η-degrees require), and
* the **bucket kind** — the allocation-free flat block-swap layout for
  unit decrements, or lazy-invalidation queues (a float-capable heap, or
  the int :class:`~repro.core.bucket.MinBucketQueue`) for revalues.

The plain peels run on the CSR engine's frontier rounds
(:mod:`repro.parallel.bulk`); this kernel hosts the scenario variants in
:mod:`repro.kcore`, whose decrement rules are per cell, so every future
scenario is fast by construction.
"""

from __future__ import annotations

import heapq
import operator
from typing import Callable, Iterable, Union

from repro.core.bucket import MinBucketQueue, bucket_order
from repro.core.peeling import PeelingResult
from repro.errors import InvalidParameterError

__all__ = ["BUCKET_KINDS", "generic_peel"]

#: ``"flat"`` — Batagelj–Zaversnik block-swap arrays (unit rules only);
#: ``"heap"`` — lazy-invalidation binary heap, int or float values;
#: ``"bucket"`` — lazy-invalidation :class:`MinBucketQueue`, int values;
#: ``"auto"`` — ``"flat"`` for unit rules, ``"heap"`` for revalue rules.
BUCKET_KINDS = ("auto", "flat", "heap", "bucket")

#: ``unit_rule(cell, peeled)`` yields the cells sharing a live s-clique
#: with ``cell``; the kernel applies the clamped unit decrement to each.
UnitRule = Callable[[int, bytearray], Iterable[int]]

#: ``revalue_rule(cell, k, peeled, current)`` yields ``(other, value)``
#: pairs re-deriving the degree of each affected live cell from scratch;
#: ``peeled[cell]`` is already set when the rule runs.
RevalueRule = Callable[
    [int, Union[int, float], bytearray, list],
    Iterable[tuple[int, Union[int, float]]],
]


def generic_peel(values: Iterable[Union[int, float]], *,
                 unit_rule: UnitRule | None = None,
                 revalue_rule: RevalueRule | None = None,
                 bucket: str = "auto") -> PeelingResult:
    """Run the parameterised peel and return λ of every cell.

    Exactly one of ``unit_rule`` / ``revalue_rule`` selects the decrement
    regime.  λ is the Matula–Beck running maximum of the minimum value at
    removal time, which for unit rules coincides with the settled
    clamped values — both conventions produce the unique core function,
    so parity with any reference engine is elementwise.
    """
    if (unit_rule is None) == (revalue_rule is None):
        raise InvalidParameterError(
            "generic_peel needs exactly one of unit_rule= / revalue_rule=")
    if bucket not in BUCKET_KINDS:
        raise InvalidParameterError(
            f"unknown bucket kind {bucket!r}; choose from {BUCKET_KINDS}")
    if unit_rule is not None:
        if bucket not in ("auto", "flat"):
            raise InvalidParameterError(
                "unit decrement rules run on the flat bucket layout; "
                f"bucket {bucket!r} applies to revalue rules")
        return _peel_flat(values, unit_rule)
    assert revalue_rule is not None  # the XOR guard above ensures it
    if bucket == "flat":
        raise InvalidParameterError(
            "revalue rules need a lazy queue (bucket 'heap' or 'bucket'); "
            "the flat layout supports unit decrements only")
    if bucket == "bucket":
        return _peel_lazy_bucket(values, revalue_rule)
    return _peel_heap(values, revalue_rule)


def _int_values(values: Iterable[Union[int, float]]) -> list[int]:
    """Cell values coerced to non-negative python ints (bucket indices)."""
    try:
        # floats intentionally reach index() and raise the TypeError below
        vals = [operator.index(v) for v in values]  # type: ignore[arg-type]
    except TypeError:
        raise InvalidParameterError(
            "integer cell values required for this bucket kind; use "
            "bucket='heap' for real-valued degrees") from None
    if vals and min(vals) < 0:
        raise InvalidParameterError("cell values must be non-negative")
    return vals


def _peel_flat(values: Iterable[Union[int, float]],
               rule: UnitRule) -> PeelingResult:
    """Unit-decrement peel on the Batagelj–Zaversnik block-swap arrays.

    The clamp ``value > k`` both spends each s-clique at most once per
    surviving cell and keeps pop values non-decreasing, so the array of
    settled values *is* λ (exactly as in the disk engine's peels).
    """
    vals = _int_values(values)
    n = len(vals)
    bins, vert, pos = bucket_order(vals)
    peeled = bytearray(n)
    max_lambda = 0
    for i in range(n):
        cell = vert[i]
        k = vals[cell]
        if k > max_lambda:
            max_lambda = k
        for other in rule(cell, peeled):
            d = vals[other]
            if d > k:
                first = bins[d]
                head = vert[first]
                if head != other:
                    slot = pos[other]
                    vert[first] = other
                    vert[slot] = head
                    pos[other] = first
                    pos[head] = slot
                bins[d] = first + 1
                vals[other] = d - 1
        peeled[cell] = 1
    return PeelingResult(lam=vals, max_lambda=max_lambda, order=vert)


def _peel_heap(values: Iterable[Union[int, float]],
               rule: RevalueRule) -> PeelingResult:
    """Revalue peel on a lazy-invalidation heap (int or float values)."""
    current = list(values)
    n = len(current)
    zero = 0.0 if any(isinstance(v, float) for v in current) else 0
    lam: list = [zero] * n
    running = zero
    order: list[int] = []
    peeled = bytearray(n)
    heap = [(current[cell], cell) for cell in range(n)]
    heapq.heapify(heap)
    while heap:
        d, cell = heapq.heappop(heap)
        if peeled[cell] or d != current[cell]:
            continue
        peeled[cell] = 1
        order.append(cell)
        if d > running:
            running = d
        lam[cell] = running
        for other, value in rule(cell, d, peeled, current):
            if peeled[other] or value == current[other]:
                continue
            current[other] = value
            heapq.heappush(heap, (value, other))
    # revalue rules may settle float λ; PeelingResult declares the int case
    return PeelingResult(lam=lam, max_lambda=running,  # type: ignore[arg-type]
                         order=order)


def _peel_lazy_bucket(values: Iterable[Union[int, float]],
                      rule: RevalueRule) -> PeelingResult:
    """Revalue peel on the lazy int :class:`MinBucketQueue`."""
    current = _int_values(values)
    n = len(current)
    queue = MinBucketQueue(list(current))
    lam = [0] * n
    running = 0
    order: list[int] = []
    peeled = bytearray(n)
    while (popped := queue.pop()) is not None:
        cell, d = popped
        peeled[cell] = 1
        order.append(cell)
        if d > running:
            running = d
        lam[cell] = running
        for other, value in rule(cell, d, peeled, current):
            if peeled[other] or value == current[other]:
                continue
            current[other] = value
            queue.update(other, value)
    return PeelingResult(lam=lam, max_lambda=running, order=order)
