"""FastNucleusDecomposition: hierarchy without traversal (Alg. 8/9).

The peeling loop already visits every s-clique around the cell being
processed; FND additionally inspects the *processed* cells it finds there.
Since λ values are assigned in non-decreasing order, a processed neighbour
``w`` satisfies λ(w) <= λ(u):

* λ(w) = λ(u): ``u`` and ``w`` are strongly connected at this level — assign
  ``u`` to ``w``'s (non-maximal) sub-nucleus or merge the two with Union-r;
* λ(w) < λ(u): ``u``'s structure is contained in the nucleus that will form
  around ``w`` — record the pair in ``ADJ`` for deferred processing.

Only the minimum-λ processed cell of each s-clique matters: relations among
the other processed cells were recorded when *they* were peeled, and the
s-clique connects structures precisely at its minimum λ.

``BuildHierarchy`` then bins the ADJ pairs by the λ of the lower endpoint and
replays them bottom-up (decreasing λ), using the same attach/merge discipline
as DF-traversal.  The skeleton nodes here are *non-maximal* sub-nuclei
T*_{r,s}; condensation yields exactly the same nuclei (paper Table 3 reports
|T*| only ~24% above |T| on real graphs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.bucket import FlatBucketQueue, MinBucketQueue
from repro.core.disjoint_set import ArrayRootedForest
from repro.core.hierarchy import Hierarchy
from repro.core.peeling import PeelingResult
from repro.core.views import CellView
from repro.errors import InvalidParameterError

__all__ = ["fnd_decomposition", "FndInstrumentation"]

#: the queue structures the extended peel accepts
QUEUE_KINDS = ("flat", "bucket")


@dataclass
class FndInstrumentation:
    """Counters exposed for Table 3: |T*_{r,s}| and |c↓(T*_{r,s})|.

    The two counts mean different things on the two engine families:

    * The object engine's extended peel (:func:`fnd_decomposition`)
      counts the paper's quantities: ``num_subnuclei`` is |T*|, the
      sub-nuclei it forms, and ``num_downward_connections`` is the ADJ
      pairs BuildHierarchy (Alg. 9) takes as input.
    * The CSR engine's level-wise construction
      (:func:`repro.parallel.construct.hierarchy_from_lambda`) counts its
      skeleton: one node per component of a λ level, and the distinct
      higher tops those components absorb.

    On a (1,2) Holme–Kim input of 975k edges, the object engine counts
    32,499 sub-nuclei and 276,830 ADJ pairs, the CSR engine 8 nodes and 7
    tops.  ``build_seconds`` records the BuildHierarchy (post-processing)
    share of the run, which is what Figure 6 plots for FND.
    """

    num_subnuclei: int = 0
    num_downward_connections: int = 0
    build_seconds: float = 0.0


def fnd_decomposition(
    view: CellView,
    instrumentation: FndInstrumentation | None = None,
    queue_kind: str = "flat",
) -> tuple[PeelingResult, Hierarchy]:
    """Run FND end-to-end: extended peeling, then BuildHierarchy.

    Returns the peeling result (λ values) and the hierarchy, computed in one
    pass without any traversal phase.  ``queue_kind`` is ``"flat"`` (the
    allocation-free array queue) or ``"bucket"`` (lazy bucket lists).
    """
    if queue_kind not in QUEUE_KINDS:
        raise InvalidParameterError(
            f"queue_kind must be one of {QUEUE_KINDS}, got {queue_kind!r}")
    n_cells = view.num_cells
    degrees = view.initial_degrees()
    lam = [0] * n_cells
    processed = [False] * n_cells
    order: list[int] = []
    comp = [-1] * n_cells
    forest = ArrayRootedForest()
    node_lambda: list[int] = []
    adj: list[tuple[int, int]] = []  # (higher-lambda node, lower-lambda node)
    queue = (FlatBucketQueue(degrees) if queue_kind == "flat"
             else MinBucketQueue(degrees))
    max_lambda = 0

    while True:
        popped = queue.pop()
        if popped is None:
            break
        u, k = popped
        lam[u] = k
        if k > max_lambda:
            max_lambda = k
        order.append(u)
        pending_lower: list[int] = []  # lower-lambda nodes seen before comp(u) exists
        for others in view.cofaces(u):
            w = -1  # processed cell of minimum lambda in this s-clique
            for v in others:
                if processed[v] and (w == -1 or lam[v] < lam[w]):
                    w = v
            if w == -1:
                for v in others:  # fresh s-clique: standard peeling decrement
                    if degrees[v] > k:
                        degrees[v] -= 1
                        queue.update(v, degrees[v])
            elif lam[w] == k:
                if comp[u] == -1:
                    comp[u] = comp[w]
                elif comp[u] != comp[w]:
                    forest.union(comp[u], comp[w])
            else:  # 1 <= lam[w] < k: defer the containment relation
                pending_lower.append(comp[w])
        if comp[u] == -1 and k >= 1:
            comp[u] = forest.make_node()
            node_lambda.append(k)
        for lower in pending_lower:
            adj.append((comp[u], lower))
        processed[u] = True

    build_start = time.perf_counter()
    _build_hierarchy(adj, forest, node_lambda, max_lambda)
    build_seconds = time.perf_counter() - build_start

    if instrumentation is not None:
        instrumentation.num_subnuclei = len(node_lambda)
        instrumentation.num_downward_connections = len(adj)
        instrumentation.build_seconds = build_seconds

    root = forest.make_node()
    node_lambda.append(0)
    for node in range(root):
        if forest.parent[node] < 0:
            forest.parent[node] = root
    for cell in range(n_cells):
        if comp[cell] == -1:
            comp[cell] = root
    hierarchy = Hierarchy(view.r, view.s, lam, node_lambda,
                          forest.parents_or_none(), comp, root,
                          algorithm="fnd")
    peeling = PeelingResult(lam=lam, max_lambda=max_lambda, order=order)
    return peeling, hierarchy


def _build_hierarchy(adj: list[tuple[int, int]], forest: ArrayRootedForest,
                     node_lambda: list[int], max_lambda: int) -> None:
    """BuildHierarchy (Alg. 9): replay ADJ pairs bottom-up, binned by λ."""
    bins: list[list[tuple[int, int]]] = [[] for _ in range(max_lambda + 1)]
    for s, t in adj:
        bins[node_lambda[t]].append((s, t))
    for level in range(max_lambda, 0, -1):
        merge: list[tuple[int, int]] = []
        for s, t in bins[level]:
            top_s = forest.find(s)
            top_t = forest.find(t)
            if top_s == top_t:
                continue
            if node_lambda[top_s] > node_lambda[top_t]:
                forest.attach(top_s, top_t)
            else:
                merge.append((top_s, top_t))
        for a, b in merge:
            forest.union(a, b)
