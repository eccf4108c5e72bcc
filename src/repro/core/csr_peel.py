"""Clique incidences over the CSR layout: what the (2,3)/(3,4) peels walk.

A peel of edges or triangles is a walk over the cell→s-clique incidence:
slots ``ptr[c] .. ptr[c+1]`` of aligned companion arrays hold the other
cells of every s-clique through cell ``c``.  The builders here
materialise it from a :class:`~repro.graph.csr.CSRGraph`:

* :func:`truss_incidence_arrays` — edge→triangle, by lexicographic edge
  id;
* :func:`nucleus34_incidence_arrays` — triangle→K₄, by lexicographic
  triangle id.

Both run the vectorised listing of :mod:`repro.graph.csr` (on up to
``workers`` threads) and one stable fill
(:func:`~repro.graph.csr.fill_incidence`), and return int64 numpy arrays
— the input of the CSR engine's frontier peel (:mod:`repro.parallel.bulk`)
and level-wise construction (:mod:`repro.parallel.construct`).
:func:`truss_incidence` and :func:`nucleus34_incidence` are their list
views.
"""

from __future__ import annotations

from repro.graph.csr import (
    CSRGraph,
    csr_k4_arrays,
    csr_triangle_edge_ids,
    fill_incidence,
    lex_triangle_vertices,
    triangle_tuples,
)

__all__ = ["nucleus34_fill", "nucleus34_incidence",
           "nucleus34_incidence_arrays", "truss_fill", "truss_incidence",
           "truss_incidence_arrays"]


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
