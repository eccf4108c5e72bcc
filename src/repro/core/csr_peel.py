"""Clique incidences over the CSR layout: what the CSR engine walks.

A peel of vertices, edges or triangles is a walk over the cell→s-clique
incidence: slots ``ptr[c] .. ptr[c+1]`` of aligned companion arrays
hold the other cells of every s-clique through cell ``c``.
:func:`incidence_arrays` returns it for each (r, s) of the CSR engine,
with the view of its cells:

* (1,2) — the adjacency already is the vertex→edge incidence, with one
  companion column: ``ptr = indptr``, ``comps = (indices,)``, and
  nothing is listed or copied;
* (2,3) — edge→triangle, by lexicographic edge id
  (:func:`truss_incidence_arrays`);
* (3,4) — triangle→K₄, by lexicographic triangle id
  (:func:`nucleus34_incidence_arrays`).

The (2,3) and (3,4) builders run the vectorised listing of
:mod:`repro.graph.csr` (on up to ``workers`` threads) and one stable
fill (:func:`~repro.graph.csr.fill_incidence`), and return int64 numpy
arrays.  Everything after this module — the frontier rounds
(:mod:`repro.parallel.bulk`) and the level-wise construction
(:mod:`repro.parallel.construct`) — runs one code path for every
(r, s).  :func:`truss_incidence` and :func:`nucleus34_incidence` are
the list views of the (2,3) and (3,4) builders.
"""

from __future__ import annotations

import numpy as np

from repro.core.views import (
    CellView,
    CSREdgeView,
    CSRTriangleView,
    VertexView,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import (
    CSRGraph,
    csr_k4_arrays,
    csr_triangle_edge_ids,
    fill_incidence,
    lex_triangle_vertices,
    triangle_tuples,
)

__all__ = ["INCIDENCE_RS", "incidence_arrays", "nucleus34_fill",
           "nucleus34_incidence", "nucleus34_incidence_arrays",
           "truss_fill", "truss_incidence", "truss_incidence_arrays"]

#: the (r, s) pairs with an incidence here (the paper's evaluated cases)
INCIDENCE_RS = ((1, 2), (2, 3), (3, 4))


def truss_fill(m: int, e1, e2, e3):
    """Edge→triangle incidence from the triangle edge-id rows:
    ``(sup, ptr, (comp1, comp2))``."""
    return fill_incidence([e1, e2, e3], [(e2, e3), (e1, e3), (e1, e2)], m)


def truss_incidence_arrays(csr: CSRGraph, workers: int = 1):
    """Materialised edge→triangle incidence: ``(sup, ptr, (comp1, comp2))``.

    ``sup[e]`` is the triangle count of edge ``e`` (initial ω₃); incidence
    slots ``ptr[e] .. ptr[e+1]`` hold, in the two aligned companion arrays,
    the other two edge ids of each triangle through ``e``.  The whole
    structure falls out of one vectorised triangle listing
    (:func:`~repro.graph.csr.csr_triangle_edge_ids`, on up to ``workers``
    threads) plus an argsort.
    """
    return truss_fill(csr.m, *csr_triangle_edge_ids(csr, workers))


def truss_incidence(csr: CSRGraph,
                    ) -> tuple[list[int], list[int], list[int], list[int]]:
    """:func:`truss_incidence_arrays` as lists: ``(sup, ptr, comp1,
    comp2)``."""
    sup, ptr, (comp1, comp2) = truss_incidence_arrays(csr)
    return sup.tolist(), ptr.tolist(), comp1.tolist(), comp2.tolist()


def nucleus34_fill(csr: CSRGraph, tri_keys, quads):
    """Triangle→K₄ incidence from the lex triangle keys and the K₄ rows:
    ``(triangles, sup, ptr, (c1, c2, c3))``.

    The quad-major stable fill lays each triangle's slots out in K₄
    order; ``triangles`` is the ``(t, 3)`` int64 array of lex vertex
    triples (row = triangle id).
    """
    q1, q2, q3, q4 = quads
    sup, ptr, comps = fill_incidence(
        [q1, q2, q3, q4],
        [(q2, q3, q4), (q1, q3, q4), (q1, q2, q4), (q1, q2, q3)],
        len(tri_keys))
    return lex_triangle_vertices(csr, tri_keys), sup, ptr, comps


def nucleus34_incidence_arrays(csr: CSRGraph, workers: int = 1):
    """Materialised triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``.

    ``triangles`` holds the lex-ordered vertex triples as a ``(t, 3)``
    array (row = triangle id, the ids both backends' (3,4) views use);
    ``sup[t]`` the K₄ count of triangle ``t`` (initial ω₄); slots
    ``ptr[t] .. ptr[t+1]`` of the three aligned companion arrays hold the
    other three triangle ids of each K₄ through ``t``.  All are int64
    numpy arrays; the listing runs on up to ``workers`` threads.
    """
    return nucleus34_fill(csr, *csr_k4_arrays(csr, workers))


def nucleus34_incidence(
        csr: CSRGraph,
) -> tuple[list[tuple[int, int, int]], list[int], list[int],
           tuple[list[int], list[int], list[int]]]:
    """:func:`nucleus34_incidence_arrays` as lists (the triangles as
    vertex-triple tuples)."""
    triangles, sup, ptr, comps = nucleus34_incidence_arrays(csr)
    return (triangle_tuples(triangles), sup.tolist(), ptr.tolist(),
            tuple(c.tolist() for c in comps))


def incidence_arrays(csr: CSRGraph, r: int, s: int, workers: int = 1,
                     ) -> tuple[CellView, np.ndarray, np.ndarray, tuple]:
    """The cell→s-clique incidence of ``(r, s)`` in :data:`INCIDENCE_RS`
    with the view of its cells: ``(view, sup, ptr, comps)``.

    ``sup[c]`` is the s-clique count of cell ``c`` (its initial degree,
    which the frontier rounds settle into λ in place), and slots
    ``ptr[c] .. ptr[c+1]`` of the ``s - r`` aligned arrays of ``comps``
    hold the other cells of each s-clique through ``c``.  The view
    numbers the cells as the object engine does.  ``workers`` threads
    the (2,3)/(3,4) clique listing; (1,2) lists no cliques.
    """
    if (r, s) == (1, 2):
        indptr = csr.indptr
        return VertexView(csr), np.diff(indptr), indptr, (csr.indices,)
    if (r, s) == (2, 3):
        return (CSREdgeView(csr), *truss_incidence_arrays(csr, workers))
    if (r, s) == (3, 4):
        triangles, sup, ptr, comps = nucleus34_incidence_arrays(csr, workers)
        # the view copies the initial ω₄ degrees before the rounds settle
        # sup into λ
        view = CSRTriangleView(csr, _enumeration=(triangles, sup))
        return view, sup, ptr, comps
    raise InvalidParameterError(
        f"no CSR incidence for (r, s) = ({r}, {s}); "
        f"supported: {INCIDENCE_RS}")
