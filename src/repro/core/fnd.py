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

from repro.core.bucket import FlatBucketQueue
from repro.core.disjoint_set import ArrayRootedForest
from repro.core.hierarchy import Hierarchy
from repro.core.peeling import PeelingResult
from repro.core.views import CellView

__all__ = ["fnd_decomposition", "FndInstrumentation"]


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
) -> tuple[PeelingResult, Hierarchy]:
    """Run FND end-to-end: extended peeling, then BuildHierarchy.

    Returns the peeling result (λ values) and the hierarchy, computed in one
    pass without any traversal phase.  The peel keeps no state beside the
    :class:`~repro.core.bucket.FlatBucketQueue`: a popped cell's priority
    is its λ, the popped prefix of the slot order is the processing order,
    and a cell whose slot lies before the current pop's is processed.
    """
    queue = FlatBucketQueue(view.initial_degrees())
    lam = queue.priorities
    slots = queue.slots
    decrement = queue.decrement
    comp = [-1] * len(lam)
    forest = ArrayRootedForest()
    node_lambda: list[int] = []
    adj: list[tuple[int, int]] = []  # (higher-lambda node, lower-lambda node)
    max_lambda = 0

    while (popped := queue.pop()) is not None:
        u, k = popped
        max_lambda = k  # pops come in non-decreasing priority
        i = slots[u]
        comp_u = -1
        pending_lower: list[int] = []  # lower-lambda nodes seen before comp(u) exists
        for others in view.cofaces(u):
            # the first processed cell of minimum λ in this s-clique: a
            # value below k is a settled λ, one above k an unprocessed
            # degree, and the slot order settles a value equal to k
            w = -1
            wl = k
            for v in others:
                vl = lam[v]
                if vl < wl:
                    w = v
                    wl = vl
                elif w == -1 and vl == k and slots[v] < i:
                    w = v
            if w == -1:
                for v in others:  # fresh s-clique: standard peeling decrement
                    if lam[v] > k:
                        decrement(v)
            elif wl == k:
                if comp_u == -1:
                    comp_u = comp[w]
                elif comp_u != comp[w]:
                    forest.union(comp_u, comp[w])
            else:  # 1 <= lam[w] < k: defer the containment relation
                pending_lower.append(comp[w])
        if comp_u == -1 and k >= 1:
            comp_u = forest.make_node()
            node_lambda.append(k)
        comp[u] = comp_u
        for lower in pending_lower:
            adj.append((comp_u, lower))

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
    for cell, node in enumerate(comp):
        if node == -1:
            comp[cell] = root
    hierarchy = Hierarchy(view.r, view.s, lam, node_lambda,
                          forest.parents_or_none(), comp, root,
                          algorithm="fnd")
    peeling = PeelingResult(lam=lam, max_lambda=max_lambda,
                            order=queue.order)
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
