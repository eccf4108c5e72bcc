"""Clique incidences over the CSR layout: what the (2,3)/(3,4) peels walk.

A peel of edges or triangles is a walk over the cell→s-clique incidence:
slots ``ptr[c] .. ptr[c+1]`` of aligned companion arrays hold the other
cells of every s-clique through cell ``c``.  The builders here
materialise it from a :class:`~repro.graph.csr.CSRGraph`:

* :func:`truss_incidence` — edge→triangle, by lexicographic edge id;
* :func:`nucleus34_incidence` — triangle→K₄, by lexicographic triangle id.

With numpy both listings and the fill run vectorised; the pure-python
fallback is the reference layout slot for slot.  The ``*_arrays`` forms
return int64 numpy arrays — the input of the CSR engine's frontier peel
(:mod:`repro.parallel.bulk`) and level-wise construction
(:mod:`repro.parallel.construct`).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.graph.csr import (
    _MAX_KEYED_N,
    _NUMPY_MIN_TRIANGLE_EDGES,
    CSRGraph,
    HAVE_NUMPY,
    csr_k4_triangle_ids,
    csr_triangle_edge_ids,
)

__all__ = ["nucleus34_incidence", "nucleus34_incidence_arrays",
           "truss_incidence", "truss_incidence_arrays"]


def truss_incidence(csr: CSRGraph,
                    use_numpy: bool | None = None,
                    ) -> tuple[list[int], list[int], list[int], list[int]]:
    """Materialised edge→triangle incidence: ``(sup, ptr, comp1, comp2)``.

    ``sup[e]`` is the triangle count of edge ``e`` (initial ω₃); incidence
    slots ``ptr[e] .. ptr[e+1]`` hold, in the two aligned companion arrays,
    the other two edge ids of each triangle through ``e``.  With numpy the
    whole structure falls out of one vectorised triangle listing
    (:func:`~repro.graph.csr.csr_triangle_edge_ids`) plus an argsort; the
    fallback enumerates triangles with merge scans and counting-sorts them
    into the same layout.
    """
    m = csr.m
    if use_numpy is None:
        use_numpy = (HAVE_NUMPY and m >= _NUMPY_MIN_TRIANGLE_EDGES
                     and isinstance(csr, CSRGraph))
    if use_numpy:
        sup, ptr, (comp1, comp2) = _truss_incidence_numpy(csr)
        return sup.tolist(), ptr.tolist(), comp1.tolist(), comp2.tolist()

    indptr, indices, eids = csr.hot_arrays()
    bisect = bisect_left
    triples: list[tuple[int, int, int]] = []
    sup = [0] * m
    for u in range(csr.n):
        u_end = indptr[u + 1]
        pu = bisect(indices, u, indptr[u], u_end)
        while pu < u_end:
            v = indices[pu]
            e_uv = eids[pu]
            i = pu + 1
            j = bisect(indices, v, indptr[v], indptr[v + 1])
            j_end = indptr[v + 1]
            while i < u_end and j < j_end:
                a = indices[i]
                b = indices[j]
                if a < b:
                    i += 1
                elif b < a:
                    j += 1
                else:
                    ea = eids[i]
                    eb = eids[j]
                    triples.append((e_uv, ea, eb))
                    sup[e_uv] += 1
                    sup[ea] += 1
                    sup[eb] += 1
                    i += 1
                    j += 1
            pu += 1
    ptr = [0] * (m + 1)
    for e in range(m):
        ptr[e + 1] = ptr[e] + sup[e]
    total = ptr[m]
    comp1 = [0] * total
    comp2 = [0] * total
    cursor = ptr[:m]
    for ea, eb, ec in triples:
        slot = cursor[ea]
        comp1[slot] = eb
        comp2[slot] = ec
        cursor[ea] = slot + 1
        slot = cursor[eb]
        comp1[slot] = ea
        comp2[slot] = ec
        cursor[eb] = slot + 1
        slot = cursor[ec]
        comp1[slot] = ea
        comp2[slot] = eb
        cursor[ec] = slot + 1
    return sup, ptr, comp1, comp2


def _truss_incidence_numpy(csr: CSRGraph):
    """Vectorised edge→triangle incidence as numpy arrays:
    ``(sup, ptr, (comp1, comp2))``."""
    from repro.graph.csr import fill_incidence

    e1, e2, e3 = csr_triangle_edge_ids(csr)
    return fill_incidence([e1, e2, e3], [(e2, e3), (e1, e3), (e1, e2)],
                          csr.m)


def truss_incidence_arrays(csr: CSRGraph):
    """:func:`truss_incidence` as int64 numpy arrays: ``(sup, ptr,
    (comp1, comp2))`` — what the bulk peel consumes, without the list
    round-trip (requires numpy)."""
    import numpy as np

    if csr.m >= _NUMPY_MIN_TRIANGLE_EDGES:
        return _truss_incidence_numpy(csr)
    sup, ptr, comp1, comp2 = truss_incidence(csr, use_numpy=False)
    return (np.asarray(sup, dtype=np.int64),
            np.asarray(ptr, dtype=np.int64),
            (np.asarray(comp1, dtype=np.int64),
             np.asarray(comp2, dtype=np.int64)))


def _nucleus34_incidence_numpy(csr: CSRGraph):
    """Vectorised triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``
    with numpy arrays (callers guard ``n < _MAX_KEYED_N``)."""
    from repro.graph.csr import _k4_numpy, fill_incidence

    tu, tv, tw, q1, q2, q3, q4 = _k4_numpy(csr)
    triangles = list(zip(tu.tolist(), tv.tolist(), tw.tolist(), strict=True))
    # quad-major occurrence order + stable argsort lays each triangle's
    # slots out exactly as the python cursor fill does
    sup, ptr, comps = fill_incidence(
        [q1, q2, q3, q4],
        [(q2, q3, q4), (q1, q3, q4), (q1, q2, q4), (q1, q2, q3)],
        len(triangles))
    return triangles, sup, ptr, comps


def nucleus34_incidence_arrays(csr: CSRGraph):
    """:func:`nucleus34_incidence` as int64 numpy arrays (requires
    numpy): ``(triangles, sup, ptr, (c1, c2, c3))``."""
    import numpy as np

    if csr.m >= _NUMPY_MIN_TRIANGLE_EDGES and csr.n < _MAX_KEYED_N:
        return _nucleus34_incidence_numpy(csr)
    triangles, sup, ptr, comps = nucleus34_incidence(csr, use_numpy=False)
    return (triangles, np.asarray(sup, dtype=np.int64),
            np.asarray(ptr, dtype=np.int64),
            tuple(np.asarray(c, dtype=np.int64) for c in comps))


def nucleus34_incidence(
        csr: CSRGraph, use_numpy: bool | None = None,
) -> tuple[list[tuple[int, int, int]], list[int], list[int],
           tuple[list[int], list[int], list[int]]]:
    """Materialised triangle→K₄ incidence: ``(triangles, sup, ptr, comps)``.

    ``triangles`` is the lex-ordered triple list (index = triangle id, the
    ids both backends' (3,4) views use); ``sup[t]`` the K₄ count of triangle
    ``t`` (initial ω₄); slots ``ptr[t] .. ptr[t+1]`` of the three aligned
    companion arrays hold the other three triangle ids of each K₄ through
    ``t``.

    With numpy available both the K₄ listing and the incidence fill run
    vectorised (quad-major stable sort reproduces the cursor fill slot for
    slot); the python fallback below is the reference layout.
    """
    if use_numpy is None:
        use_numpy = (HAVE_NUMPY and csr.m >= _NUMPY_MIN_TRIANGLE_EDGES
                     and csr.n < _MAX_KEYED_N and isinstance(csr, CSRGraph))
    if use_numpy:
        triangles, sup, ptr, comps = _nucleus34_incidence_numpy(csr)
        return (triangles, sup.tolist(), ptr.tolist(),
                tuple(c.tolist() for c in comps))
    triangles, quads = csr_k4_triangle_ids(csr, use_numpy=False)
    t = len(triangles)
    sup = [0] * t
    for quad in quads:
        for tid in quad:
            sup[tid] += 1
    ptr = [0] * (t + 1)
    for tid in range(t):
        ptr[tid + 1] = ptr[tid] + sup[tid]
    total = ptr[t]
    c1 = [0] * total
    c2 = [0] * total
    c3 = [0] * total
    cursor = ptr[:t]
    q1, q2, q3, q4 = quads
    for i in range(len(q1)):
        a = q1[i]
        b = q2[i]
        c = q3[i]
        d = q4[i]
        slot = cursor[a]
        c1[slot] = b
        c2[slot] = c
        c3[slot] = d
        cursor[a] = slot + 1
        slot = cursor[b]
        c1[slot] = a
        c2[slot] = c
        c3[slot] = d
        cursor[b] = slot + 1
        slot = cursor[c]
        c1[slot] = a
        c2[slot] = b
        c3[slot] = d
        cursor[c] = slot + 1
        slot = cursor[d]
        c1[slot] = a
        c2[slot] = b
        c3[slot] = c
        cursor[d] = slot + 1
    return triangles, sup, ptr, (c1, c2, c3)
