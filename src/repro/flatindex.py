"""Flat-array serving index over the condensed nucleus hierarchy.

The paper's promise is *build once, query forever*: after the hierarchy is
constructed, community-search queries are tree walks.  The object-based
:class:`~repro.queries.HierarchyIndex` answers those walks through Python
dicts-of-sets, which is fine for a handful of look-ups but not for serving
traffic.  :class:`FlatHierarchyIndex` lowers the condensed tree to numpy
arrays instead:

* ``node_k`` / ``node_parent`` — the condensed tree itself (node ids are
  exactly the :class:`~repro.core.hierarchy.NucleusTree` ids);
* ``tin`` / ``tout`` — Euler-tour (preorder interval) labels, so
  "is ``x`` inside nucleus ``a``" is two comparisons and a nucleus's cell
  set is one slice of the tour-ordered cell array;
* ``cell_node`` plus a tour-sorted cell permutation — ``subtree_cells`` by
  ``searchsorted`` instead of a tree walk;
* a CSR ``vertex → condensed nodes`` map — the TCP-style vertex queries
  batch over plain array gathers;
* per-``k`` *top* pointers (shallowest ancestor still at level ``>= k``),
  computed for all nodes at once by pointer doubling and cached.

The index is lowered from the hierarchy's arrays
(:attr:`~repro.core.hierarchy.Hierarchy.condensed_arrays`), with no loop
per cell or per node and no :class:`~repro.core.hierarchy.NucleusTree`:
``tin``/``tout`` come from pointer doubling plus one pass per tree level,
with children visited in descending id, and the tour-sorted cells from one
sort of packed ``(tin, cell)`` keys.

Every query of :class:`~repro.queries.HierarchyIndex` has a scalar
equivalent here with identical answers (cell lists are returned sorted
ascending), plus a vectorised **batch** variant over arrays of vertices or
cells.  :meth:`FlatHierarchyIndex.save` persists the whole index as an
uncompressed ``.npz`` (one flat binary blob per array, each starting at a
64-byte boundary so :func:`mmap_npz` maps it aligned), so
``decompose → save`` runs once and a fresh process serves queries with
:meth:`FlatHierarchyIndex.load` — no re-peeling, no graph needed.  ``load``
checks the tree, cell and vertex-map arrays for consistency in passes
without a sort, and raises :class:`~repro.errors.GraphFormatError` naming
the first array that fails.

Node statistics (``node_nv`` / ``node_ne`` / ``node_density``, what
:meth:`FlatHierarchyIndex.profile` reports) are counted for every node at
once by :meth:`FlatHierarchyIndex.precompute_stats`, from the vertex map,
the tour labels and the graph's edge endpoints.  Write N(v) for vertex
``v``'s own nodes (``vert_nodes[vert_indptr[v]:vert_indptr[v + 1]]``): ``v``
lies in node ``a`` exactly when ``a`` is an ancestor-or-self of a node of
N(v), so the nodes holding ``v`` are the union of N(v)'s root paths.

* **Root-path unions.**  Sort a group of nodes by preorder, put +1 on each
  and -1 on the LCA of each consecutive pair.  A node's subtree sum of
  these deltas (one ``cumsum`` difference over its preorder interval) is 1
  when the union holds it and 0 otherwise.  With one group per vertex,
  N(v), the summed counts are ``node_nv``.
* **Induced edges by inclusion–exclusion.**  Edge ``(u, w)`` lies in ``a``
  when ``a`` holds both ends, and [a ∈ A(u) ∩ A(w)] = [a ∈ A(u)] +
  [a ∈ A(w)] - [a ∈ A(u) ∪ A(w)].  The first two terms are the vertex
  pass weighted by degree; the last is the same count over each edge's
  group N(u) ++ N(w).
* **One own node at both ends.**  When N(u) = {x} and N(w) = {y}, the
  edge's terms collapse to +1 at lca(x, y): no expansion and no sort.  At
  r = 1 every vertex is one cell, so every edge takes this case.
* **Vectorised LCA.**  In preorder, lca(x, y) is ``min(x, y)`` when that is
  an ancestor of the other; the remaining pairs climb a binary-lifting
  table built by pointer doubling.
* **Bounded memory.**  The whole per-edge pass (the own-node lookups,
  the single/general split, the degree weights and the single-node
  LCAs) runs ``_STATS_CHUNK`` edges at a time, and the edge groups are
  expanded ``_STATS_CHUNK`` entries at a time, so the working set does
  not grow with m.

The passes cost O((Σ_v |N(v)| + Σ_e (|N(u)| + |N(w)|)) · log depth), where
masking all m edges once per node cost O(nodes · m).
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Sequence
from zipfile import BadZipFile

import numpy as np

from repro.core.decomposition import Decomposition
from repro.core.hierarchy import Hierarchy
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph.csr import run_heads, sorted_unique
from repro.queries import CommunityLevel

__all__ = ["FlatHierarchyIndex", "FLAT_INDEX_FORMAT", "mmap_npz",
           "write_npz"]

#: on-disk schema version of the ``.npz`` payload
FLAT_INDEX_FORMAT = 1

#: arrays every persisted index must carry
_REQUIRED_KEYS = (
    "format", "r", "s", "n", "root", "algorithm",
    "node_k", "node_parent", "tin", "tout",
    "cell_node", "lam", "cells_in_tour", "cell_tin_sorted",
    "vert_indptr", "vert_nodes",
)

#: optional per-node profile statistics (written by ``save(stats=True)``)
#: and the dtype kinds a persisted index must store them in
_STAT_KEYS = ("node_nv", "node_ne", "node_density")
_STAT_KINDS = ("iu", "iu", "f")

#: edges, and group entries (own nodes of both endpoints), that one
#: chunk of the stats edge pass takes, bounding its working memory for
#: any m
_STATS_CHUNK = 1 << 16


#: zip extra-field ID of the padding :func:`write_npz` puts in each local
#: header: Android ``zipalign``'s alignment field (the alignment as a u16,
#: then zero bytes), which zip readers skip like any unknown field
_ALIGN_FIELD_ID = 0xD935

#: what reading a damaged archive raises besides ``GraphFormatError``:
#: zipfile's and numpy's errors, ``TokenError`` from numpy's header filter
#: (an unbalanced brace or quote), and ``RuntimeError`` (its subclass
#: ``NotImplementedError`` too) from zipfile for a member whose flags or
#: fields in the central directory ask for a password, an unsupported
#: zip version or an unsupported compression method
_READ_ERRORS = (OSError, ValueError, BadZipFile, tokenize.TokenError,
                RuntimeError)


def write_npz(handle: BinaryIO, arrays: dict[str, Any]) -> None:
    """Write ``arrays`` to the binary file ``handle`` as an uncompressed
    ``.npz`` whose every array starts at a file offset that is a multiple
    of ``np.lib.format.ARRAY_ALIGN`` (64).

    The members are the bytes ``np.savez`` writes (same ``.npy`` streams,
    same zip64 headers and timestamps, so two saves are byte-identical),
    plus one extra field in each local header that pads it to the
    boundary; ``np.load`` and ``zipfile`` skip it.  ``np.savez`` leaves a
    member's data wherever its header ends, and numpy copies a misaligned
    array whole before a ``searchsorted`` reads it; the ``.npy`` header
    is padded to a multiple of ``ARRAY_ALIGN``, so an aligned member
    start aligns its array.
    """
    align = np.lib.format.ARRAY_ALIGN
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for key, value in arrays.items():
            info = zipfile.ZipInfo(key + ".npy")
            # zipfile writes the local header at the handle's position:
            # 30 fixed bytes, the name, this field's 6 bytes before its
            # padding, and the 20-byte zip64 field that force_zip64 adds
            end = (handle.tell() + 30 + len(info.filename.encode("utf-8"))
                   + 6 + 20)
            pad = -end % align
            info.extra = struct.pack(
                "<HHH", _ALIGN_FIELD_ID, 2 + pad, align) + bytes(pad)
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value),
                                          allow_pickle=False)


def _read_npy_header(handle: Any, path: str | Path, name: str) -> Any:
    """(shape, fortran_order, dtype) of the ``.npy`` stream at ``handle``;
    :class:`GraphFormatError` naming member ``name`` when it has none."""
    try:
        version = np.lib.format.read_magic(handle)
        reader = getattr(np.lib.format,
                         f"read_array_header_{version[0]}_{version[1]}", None)
        if reader is None:  # numpy reads 3.0 only through a private call
            raise GraphFormatError(
                f"{path}: member {name} has unsupported .npy format "
                f"version {version[0]}.{version[1]}")
        return reader(handle)
    except (ValueError, tokenize.TokenError) as exc:
        raise GraphFormatError(
            f"{path}: member {name} is not a valid .npy: {exc}") from exc


def mmap_npz(path: str | Path) -> dict | None:
    """Memory-map every array member of an **uncompressed** ``.npz``.

    ``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for
    zipped files, so this maps each member by hand: an uncompressed
    (``ZIP_STORED``) member holds its ``.npy`` verbatim, which can be
    handed to :class:`numpy.memmap` at its data offset.  The returned
    arrays are **read-only views of the page cache** — N processes
    mapping the same index share one physical copy.

    Returns ``None`` when the archive cannot be mapped usefully — a
    compressed or object-dtype member, or one whose data offset is not a
    multiple of its dtype's alignment, as ``np.savez`` leaves most
    members (numpy copies a misaligned array whole before a
    ``searchsorted`` reads it) — and callers fall back to an eager load;
    :func:`write_npz` writes mappable archives.  Raises
    :class:`GraphFormatError` on a structurally broken archive or a
    member whose bytes fail the CRC-32 the zip's central directory
    records for them, matching :meth:`FlatHierarchyIndex.load`.
    """
    arrays: dict = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw, \
            mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as whole:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None  # compressed member: not mappable
            name = info.filename
            key = name[:-4] if name.endswith(".npy") else name
            # the local header's name/extra lengths can differ from the
            # central directory's, so read it from the file itself
            header = whole[info.header_offset:info.header_offset + 30]
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                raise GraphFormatError(
                    f"{path}: malformed zip local header for {name}")
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            start = info.header_offset + 30
            encoding = "utf-8" if info.flag_bits & 0x800 else "cp437"
            if whole[start:start + name_len] != \
                    info.orig_filename.encode(encoding):
                raise GraphFormatError(
                    f"{path}: member {name} is named differently in its "
                    f"local header")
            start += name_len + extra_len
            end = start + info.file_size
            raw.seek(start)
            shape, fortran, dtype = _read_npy_header(raw, path, name)
            if dtype.hasobject:
                return None  # pickled payload: not mappable
            offset = raw.tell()
            count = 1
            for dim in shape:
                count *= dim
            if offset + count * dtype.itemsize > end:
                raise GraphFormatError(
                    f"{path}: member {name} holds fewer bytes than its "
                    f"shape {shape} needs")
            if offset % dtype.alignment:
                return None  # misaligned: numpy would copy on every read
            with memoryview(whole) as view:
                crc = zlib.crc32(view[start:end])
            if crc != info.CRC:
                raise GraphFormatError(
                    f"{path}: member {name} fails its CRC-32 check")
            if count == 0:
                arrays[key] = np.empty(shape, dtype=dtype)
            elif shape == ():
                # np.memmap treats an empty shape as "map the whole
                # file"; scalars are a handful of bytes — read them
                arrays[key] = np.frombuffer(
                    whole[offset:offset + dtype.itemsize],
                    dtype=dtype).reshape(())
            else:
                arrays[key] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset,
                    shape=shape, order="F" if fortran else "C")
    return arrays


def _load_npz(path: str | Path) -> dict:
    """Every member of ``path`` read into memory through ``np.load``; a
    member that fails to read raises :class:`GraphFormatError` naming it
    (``zipfile`` checks each member's CRC-32 as it reads to the end).
    The file is opened here, so it is closed even when ``np.load`` fails
    to parse the zip directory."""
    arrays = {}
    with open(path, "rb") as handle, \
            np.load(handle, allow_pickle=False) as payload:
        for key in payload.files:
            try:
                arrays[key] = payload[key]
            except _READ_ERRORS as exc:
                raise GraphFormatError(
                    f"{path}: member {key}.npy does not read: {exc}") from exc
    return arrays


def _multi_range(starts: Any, counts: Any) -> Any:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all i."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - before, counts) + np.arange(total, dtype=np.int64)


def _lifting_table(up: Any) -> list[Any]:
    """Binary-lifting table of a preorder-labelled tree whose root, 0, is
    its own parent ``up[0]``: ``table[j][t]`` is the 2^j-th ancestor of
    ``t``.  Pointer doubling, until every node has reached the root; a
    tree is shallower than its node count, so a parent array with a cycle
    stops there too."""
    table = [up]
    for _ in range(len(up).bit_length()):
        jumped = table[-1][table[-1]]
        if np.array_equal(jumped, table[-1]):
            break
        table.append(jumped)
    return table


def _preorder_lca(lo: Any, hi: Any, end: Any, table: list[Any]) -> Any:
    """Pairwise LCA of preorder labels ``lo <= hi``; node ``t``'s subtree
    is the label interval ``[t, end[t])``."""
    out = lo.copy()
    apart = np.nonzero(hi >= end[lo])[0]  # lo is no ancestor of hi
    if len(apart):
        below, other = lo[apart], hi[apart]
        # climb to the highest ancestor of lo that is no ancestor of hi;
        # every ancestor of lo sits at a label <= lo <= hi
        for up in reversed(table):
            step = up[below]
            below = np.where(other >= end[step], step, below)
        out[apart] = table[0][below]
    return out


def _subtree_sums(delta: Any, end: Any) -> Any:
    """Per preorder label ``t``, the sum of ``delta`` over its subtree
    ``[t, end[t])``."""
    prefix = np.concatenate(([0], np.cumsum(delta)))
    return prefix[end] - prefix[:-1]


def _path_union_deltas(keys: Any, num_nodes: int, end: Any,
                       table: list[Any]) -> tuple[Any, Any, Any, Any]:
    """Delta positions that count unions of root paths.

    ``keys`` are ``group * num_nodes + t`` for the preorder labels ``t`` of
    each group's nodes.  Returns ``(group, t, pair_group, lca)``: +1 goes
    on every ``t`` and -1 on every ``lca`` (one per consecutive pair of a
    group in preorder), so a node's subtree sum of the deltas is the number
    of groups whose union of root paths holds it.
    """
    group, label = np.divmod(np.sort(keys), num_nodes)
    second = np.nonzero(~run_heads(group))[0]  # pairs (second - 1, second)
    lca = _preorder_lca(label[second - 1], label[second], end, table)
    return group, label, group[second], lca


def _edge_pass(src: Any, tgt: Any, indptr: Any, label: Any, end: Any,
               table: list[Any], ne_delta: Any, weight: Any) -> None:
    """The edge terms of the edges ``(src[i], tgt[i])``, added in place.

    N(v) is ``label[indptr[v]:indptr[v + 1]]``.  An edge with one own
    node at each end puts +1 on lca(x, y) of ``ne_delta``.  Any other
    edge with both ends in some node counts each end once in ``weight``
    (its [A(u)] + [A(w)] terms, weighted into the vertex pass later) and
    puts minus the root-path-union deltas of its group N(u) ++ N(w) on
    ``ne_delta``; the groups are expanded at most ``_STATS_CHUNK``
    entries at a time (and at least one edge).  An edge with a cell-less
    end lies in no node: its terms cancel."""
    num_nodes = len(end)
    src_owned = indptr[src + 1] - indptr[src]
    tgt_owned = indptr[tgt + 1] - indptr[tgt]
    single = (src_owned == 1) & (tgt_owned == 1)
    multi = (src_owned > 0) & (tgt_owned > 0) & ~single
    x = label[indptr[src[single]]]
    y = label[indptr[tgt[single]]]
    np.add.at(ne_delta, _preorder_lca(np.minimum(x, y), np.maximum(x, y),
                                      end, table), 1)
    sides = ((src[multi], src_owned[multi]), (tgt[multi], tgt_owned[multi]))
    for vertices, _ in sides:
        np.add.at(weight, vertices, 1)
    sizes = np.cumsum(sides[0][1] + sides[1][1])
    start = 0
    while start < len(sizes):
        base = int(sizes[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(
            sizes, base + _STATS_CHUNK, "right")))
        local = np.arange(stop - start, dtype=np.int64)
        keys = []
        for vertices, owned in sides:
            counts = owned[start:stop]
            entries = _multi_range(indptr[vertices[start:stop]], counts)
            keys.append(np.repeat(local, counts) * num_nodes
                        + label[entries])
        _, plus, _, minus = _path_union_deltas(
            np.concatenate(keys), num_nodes, end, table)
        np.subtract.at(ne_delta, plus, 1)
        np.add.at(ne_delta, minus, 1)
        start = stop


def _tour(node_parent: Any, root: int) -> tuple[Any, Any]:
    """Preorder intervals of the tree ``node_parent`` (-1 at ``root``), as
    int32 ``(tin, tout)``: subtree(a) is ``[tin[a], tout[a])``, and a node's
    children are visited in descending id.

    Depths come from pointer doubling.  Subtree sizes are then summed
    bottom-up and labels handed down top-down, one array pass per level: a
    child's ``tin`` is its parent's plus one plus the sizes of the siblings
    visited before it, those with larger ids.
    """
    num_nodes = len(node_parent)
    parent = node_parent.astype(np.int64)
    child = parent >= 0
    up = np.where(child, parent, root)
    depth = child.astype(np.int64)
    # depth[x] is the distance from x to up[x]; a tree is shallower than
    # its node count, so the doubling ends within that count's bit length
    for _ in range(num_nodes.bit_length()):
        if (up == root).all():
            break
        depth, up = depth + depth[up], up[up]
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_depth],
                             np.arange(int(depth.max(initial=0)) + 2))
    levels = [by_depth[lo:hi] for lo, hi in zip(bounds[1:-1], bounds[2:])]
    size = np.ones(num_nodes, dtype=np.int64)
    for level in reversed(levels):
        np.add.at(size, parent[level], size[level])
    # siblings in visiting order: by parent, then descending id
    kids = np.flatnonzero(child)
    kids = kids[np.argsort(parent[kids] * num_nodes - kids, kind="stable")]
    sizes = size[kids]
    before = np.cumsum(sizes) - sizes
    heads = np.flatnonzero(run_heads(parent[kids]))
    run_base = np.repeat(before[heads], np.diff(np.append(heads, len(kids))))
    offset = np.zeros(num_nodes, dtype=np.int64)
    offset[kids] = before - run_base
    tin = np.zeros(num_nodes, dtype=np.int64)
    for level in levels:
        tin[level] = tin[parent[level]] + 1 + offset[level]
    return tin.astype(np.int32), (tin + size).astype(np.int32)


def _check_ints(path: str | Path, key: str, array: Any, count: int,
                per: str) -> None:
    """Raise :class:`GraphFormatError` unless ``array`` is a 1-d integer
    array of ``count`` entries (any length when ``count`` is -1)."""
    if array.ndim != 1 or array.dtype.kind not in "iu" \
            or count not in (-1, len(array)):
        raise GraphFormatError(
            f"{path}: {key} must be a 1-d integer array with one entry per "
            f"{per}, got shape {array.shape} and dtype {array.dtype}")


def _check_tree(path: str | Path, root: int, node_k: Any, node_parent: Any,
                tin: Any, tout: Any) -> None:
    """Raise :class:`GraphFormatError`, naming the array, unless
    ``node_parent`` is one tree rooted at ``root`` and ``tin``/``tout``
    are its preorder intervals.  A parent's ``tin`` is below its child's,
    so no parent chain can cycle and every query's walk ends."""
    num_nodes = len(node_k)
    for key, array in (("node_parent", node_parent), ("tin", tin),
                       ("tout", tout)):
        _check_ints(path, key, array, num_nodes, f"node ({num_nodes})")
    parent = np.asarray(node_parent, dtype=np.int64)
    roots = np.flatnonzero(parent == -1)
    if roots.tolist() != [root]:
        raise GraphFormatError(
            f"{path}: node_parent must mark exactly one node, the root "
            f"{root}, with -1; it marks {roots[:8].tolist()}")
    child = np.flatnonzero(parent != -1)
    up = parent[child]
    if len(up) and (int(up.min()) < 0 or int(up.max()) >= num_nodes):
        raise GraphFormatError(
            f"{path}: node_parent holds a parent outside [0, {num_nodes})")
    tin = np.asarray(tin, dtype=np.int64)
    tout = np.asarray(tout, dtype=np.int64)
    if not np.array_equal(np.sort(tin), np.arange(num_nodes)) \
            or tin[root] != 0:
        raise GraphFormatError(
            f"{path}: tin must be a permutation of 0..{num_nodes - 1} with "
            f"the root at 0")
    if tout[root] != num_nodes:
        raise GraphFormatError(
            f"{path}: tout of the root must be {num_nodes}, got "
            f"{int(tout[root])}")
    if (tin[up] >= tin[child]).any():
        raise GraphFormatError(
            f"{path}: node_parent and tin disagree: every node's parent "
            f"must come before it in tin")
    if (tout[child] > tout[up]).any():
        raise GraphFormatError(
            f"{path}: node_parent and tout disagree: every node's interval "
            f"must close inside its parent's")


def _check_cells(path: str | Path, n: int, tin: Any, cell_node: Any,
                 lam: Any, cells_in_tour: Any, cell_tin_sorted: Any,
                 vert_indptr: Any, vert_nodes: Any) -> None:
    """Raise :class:`GraphFormatError`, naming the array, unless the cell
    arrays and the vertex map agree with the (already checked) tour labels
    ``tin``.  Every check is one pass; none sorts."""
    num_nodes = len(tin)
    _check_ints(path, "cell_node", cell_node, -1, "cell")
    num_cells = len(cell_node)
    for key, array in (("lam", lam), ("cells_in_tour", cells_in_tour),
                       ("cell_tin_sorted", cell_tin_sorted)):
        _check_ints(path, key, array, num_cells, f"cell ({num_cells})")
    _check_ints(path, "vert_indptr", vert_indptr, n + 1,
                f"vertex, plus one ({n + 1})")
    _check_ints(path, "vert_nodes", vert_nodes, -1, "vertex-map entry")
    for key, array in (("cell_node", cell_node), ("vert_nodes", vert_nodes)):
        if len(array) and (int(array.min()) < 0
                           or int(array.max()) >= num_nodes):
            raise GraphFormatError(
                f"{path}: {key} holds a node outside [0, {num_nodes})")
    tour = np.asarray(cells_in_tour)
    if num_cells and (int(tour.min()) < 0 or int(tour.max()) >= num_cells):
        raise GraphFormatError(
            f"{path}: cells_in_tour holds a cell outside [0, {num_cells})")
    seen = np.zeros(num_cells, dtype=bool)
    seen[tour] = True
    if not seen.all():
        raise GraphFormatError(
            f"{path}: cells_in_tour must be a permutation of the cells")
    expected = np.asarray(tin)[np.asarray(cell_node)[tour]]
    if not np.array_equal(expected, cell_tin_sorted) \
            or (np.diff(expected) < 0).any():
        raise GraphFormatError(
            f"{path}: cell_tin_sorted must be tin[cell_node[cells_in_tour]], "
            f"never decreasing")
    bounds = np.asarray(vert_indptr, dtype=np.int64)
    if bounds[0] != 0 or bounds[-1] != len(vert_nodes) \
            or (np.diff(bounds) < 0).any():
        raise GraphFormatError(
            f"{path}: vert_indptr must start at 0, never decrease and end "
            f"at len(vert_nodes) ({len(vert_nodes)})")


class FlatHierarchyIndex:
    """Array-backed query index over a decomposition's condensed tree.

    Build from a :class:`~repro.core.decomposition.Decomposition` (or from a
    ``hierarchy`` plus the ``graph`` it describes), or :meth:`load` a
    persisted one.  Node ids match ``hierarchy.condense()`` node-for-node,
    so answers are directly comparable with
    :class:`~repro.queries.HierarchyIndex`.
    """

    def __init__(self, decomposition: Decomposition | None = None, *,
                 hierarchy: Hierarchy | None = None,
                 graph: Any = None, view: Any = None) -> None:
        if decomposition is not None:
            hierarchy = decomposition.hierarchy
            graph = decomposition.graph
            view = decomposition.view
            algorithm = decomposition.algorithm
        else:
            algorithm = hierarchy.algorithm if hierarchy is not None else ""
        if hierarchy is None:
            raise InvalidParameterError(
                "no hierarchy to index (hypo builds none; pass a "
                "decomposition or hierarchy that has one)")
        if graph is None:
            raise InvalidParameterError(
                "FlatHierarchyIndex needs the graph to map vertices to "
                "cells (load a persisted index to serve without one)")
        if view is None:
            from repro.core.views import build_view

            view = build_view(graph, hierarchy.r, hierarchy.s)
        self.r = hierarchy.r
        self.s = hierarchy.s
        self.algorithm = algorithm
        self.graph = graph
        self.n = graph.n
        node_k, node_parent, cell_node, self.root = hierarchy.condensed_arrays
        self.node_k = node_k.astype(np.int32)
        self.node_parent = node_parent.astype(np.int32)
        self.tin, self.tout = _tour(node_parent, self.root)
        self.cell_node = cell_node.astype(np.int32)
        self.lam = hierarchy.lam_array.astype(np.int32)
        self._sort_cells_by_tour()
        self._build_vertex_map(view)
        self._tops_cache: dict[int, "np.ndarray"] = {}
        self._stat_arrays: tuple | None = None
        self.mmapped = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _sort_cells_by_tour(self) -> None:
        """Cells by (tour label of their node, id): one sort of packed
        keys, which numpy does faster than a stable argsort of the
        labels."""
        num_cells = len(self.cell_node)
        keys = np.sort(self.tin[self.cell_node].astype(np.int64) * num_cells
                       + np.arange(num_cells, dtype=np.int64))
        cell_tin, cells = np.divmod(keys, max(num_cells, 1))
        self.cells_in_tour = cells.astype(np.int32)
        self.cell_tin_sorted = cell_tin.astype(np.int32)

    def _build_vertex_map(self, view: Any) -> None:
        """CSR ``vertex → sorted unique condensed nodes`` map."""
        num_cells = len(self.cell_node)
        r = self.r
        if num_cells == 0:
            verts = np.empty(0, dtype=np.int64)
        elif r == 1:
            verts = np.arange(num_cells, dtype=np.int64)
        else:
            triples = getattr(view, "_vertices", None)
            if triples is not None:  # (3,4) views keep the triple list
                verts = np.asarray(triples, dtype=np.int64).reshape(-1)
            elif r == 2 and hasattr(self.graph, "esrc"):
                verts = np.column_stack([
                    self.graph.esrc, self.graph.etgt,
                ]).astype(np.int64, copy=False).reshape(-1)
            else:
                verts = np.empty(num_cells * r, dtype=np.int64)
                cell_vertices = view.cell_vertices
                for cell in range(num_cells):
                    verts[cell * r:(cell + 1) * r] = cell_vertices(cell)
        nodes = np.repeat(self.cell_node.astype(np.int64), r)
        num_nodes = len(self.node_k)
        pairs = sorted_unique(verts * num_nodes + nodes)
        owners = pairs // num_nodes
        self.vert_nodes = (pairs % num_nodes).astype(np.int32)
        counts = np.bincount(owners, minlength=self.n).astype(np.int64)
        self.vert_indptr = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)

    # ------------------------------------------------------------------
    # core primitives
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cell_node)

    @property
    def num_nodes(self) -> int:
        return len(self.node_k)

    def _tops_at(self, k: int) -> Any:
        """Per node: shallowest ancestor-or-self with level >= k (-1 when
        the node itself is below k).  Pointer doubling, cached per k; a
        tree is shallower than its node count, so the doubling stops within
        that count's bit length, as in :func:`_lifting_table`.

        Every k at or below the lowest level has the same tops, and every
        k above the highest has none, so k is clamped to one past each end
        before it is cached: the cache holds at most one entry per level
        in between, whatever k clients send."""
        cached = self._tops_cache.get(k)
        if cached is not None:
            return cached
        k = min(max(k, int(self.node_k.min())), int(self.node_k.max()) + 1)
        cached = self._tops_cache.get(k)
        if cached is not None:
            return cached
        node_ids = np.arange(self.num_nodes, dtype=np.int32)
        parent = self.node_parent
        safe_parent = np.where(parent >= 0, parent, 0)
        climb = (parent >= 0) & (self.node_k[safe_parent] >= k)
        step = np.where(climb, parent, node_ids)
        for _ in range(self.num_nodes.bit_length()):
            jumped = step[step]
            if np.array_equal(jumped, step):
                break
            step = jumped
        tops = np.where(self.node_k >= k, step, np.int32(-1))
        self._tops_cache[k] = tops
        return tops

    def _subtree_slice(self, node: int) -> tuple[int, int]:
        lo = int(np.searchsorted(self.cell_tin_sorted, self.tin[node], "left"))
        hi = int(np.searchsorted(self.cell_tin_sorted, self.tout[node], "left"))
        return lo, hi

    def community_cells(self, node: int) -> Any:
        """All cells of condensed node ``node`` (sorted ascending)."""
        lo, hi = self._subtree_slice(node)
        return np.sort(self.cells_in_tour[lo:hi])

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """O(1) interval test: is ``node`` inside ``ancestor``'s subtree?"""
        return bool(self.tin[ancestor] <= self.tin[node]) and \
            bool(self.tin[node] < self.tout[ancestor])

    def nodes_of_vertex(self, vertex: int) -> Any:
        """Sorted condensed node ids whose own cells touch ``vertex``."""
        if not 0 <= vertex < self.n:
            return np.empty(0, dtype=np.int32)
        lo, hi = self.vert_indptr[vertex], self.vert_indptr[vertex + 1]
        return self.vert_nodes[lo:hi]

    # ------------------------------------------------------------------
    # scalar queries (answers identical to HierarchyIndex, cells sorted)
    # ------------------------------------------------------------------
    def node_of_cell(self, cell: int) -> int:
        """Condensed-tree node holding the cell directly."""
        return int(self.cell_node[cell])

    def max_nucleus(self, cell: int) -> list[int]:
        """Cells of the maximum nucleus of ``cell`` (Definition 3)."""
        return self.community_cells(int(self.cell_node[cell])).tolist()

    def nucleus_at(self, cell: int, k: int) -> list[int]:
        """Cells of the k-nucleus containing ``cell`` (k <= λ(cell))."""
        if k > self.lam[cell]:
            raise InvalidParameterError(
                f"cell {cell} has lambda {self.lam[cell]} < k={k}")
        top = int(self._tops_at(k)[self.cell_node[cell]])
        return self.community_cells(top).tolist()

    def communities_of_vertex(self, vertex: int, k: int) -> list[list[int]]:
        """All maximal k-level nuclei touching ``vertex`` (cell lists)."""
        return [cells.tolist()
                for cells in self.communities_of_vertex_batch([vertex], k)[0]]

    def profile(self, vertex: int) -> list[CommunityLevel]:
        """Root-to-densest chain of communities containing ``vertex``."""
        return self.profile_batch([vertex])[0]

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    def _as_vertex_array(
            self, vertices: Sequence[int] | Iterable[int]) -> Any:
        out = np.asarray(vertices, dtype=np.int64)
        if out.ndim != 1:
            raise InvalidParameterError(
                f"expected a flat array of vertices, got shape {out.shape}")
        return out

    def max_nucleus_batch(self, cells: Any) -> list["np.ndarray"]:
        """:meth:`max_nucleus` for an array of cells."""
        cache: dict[int, np.ndarray] = {}
        out: list[np.ndarray] = []
        for node in self.cell_node[np.asarray(cells, dtype=np.int64)].tolist():
            hit = cache.get(node)
            if hit is None:
                hit = cache.setdefault(node, self.community_cells(node))
            out.append(hit)
        return out

    def nucleus_at_batch(self, cells: Any, k: int) -> list["np.ndarray"]:
        """:meth:`nucleus_at` for an array of cells (k <= λ of each)."""
        cells = np.asarray(cells, dtype=np.int64)
        bad = np.nonzero(self.lam[cells] < k)[0]
        if len(bad):
            cell = int(cells[bad[0]])
            raise InvalidParameterError(
                f"cell {cell} has lambda {self.lam[cell]} < k={k}")
        tops = self._tops_at(k)[self.cell_node[cells]]
        cache: dict[int, np.ndarray] = {}
        out: list[np.ndarray] = []
        for top in tops.tolist():
            hit = cache.get(top)
            if hit is None:
                hit = cache.setdefault(top, self.community_cells(top))
            out.append(hit)
        return out

    def communities_of_vertex_batch(self, vertices: Any, k: int) \
            -> list[list["np.ndarray"]]:
        """:meth:`communities_of_vertex` for an array of vertices.

        Returns, per input vertex, the maximal k-level nuclei touching it
        (each a sorted cell array, ordered by condensed node id — the same
        order :class:`~repro.queries.HierarchyIndex` yields).  Identical
        nuclei are materialised once per call.
        """
        vertices = self._as_vertex_array(vertices)
        inside = (vertices >= 0) & (vertices < self.n)
        safe = np.where(inside, vertices, 0)
        starts = self.vert_indptr[safe]
        # an outside vertex reads its end at its start (entry 0): count 0,
        # and no read past the one entry of an empty graph's vert_indptr
        counts = self.vert_indptr[safe + inside] - starts
        gather = _multi_range(starts, counts)
        nodes = self.vert_nodes[gather].astype(np.int64)
        owner = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
        tops = self._tops_at(k)[nodes]
        keep = tops >= 0
        owner = owner[keep]
        tops = tops[keep].astype(np.int64)
        pairs = sorted_unique(owner * self.num_nodes + tops)
        out: list[list[np.ndarray]] = [[] for _ in range(len(vertices))]
        cache: dict[int, np.ndarray] = {}
        for pair in pairs.tolist():
            which, top = divmod(pair, self.num_nodes)
            cells = cache.get(top)
            if cells is None:
                cells = cache.setdefault(top, self.community_cells(top))
            out[which].append(cells)
        return out

    def profile_batch(self, vertices: Any) -> list[list[CommunityLevel]]:
        """:meth:`profile` for an array of vertices.

        Node statistics (size, edges, density) are read from the arrays
        :meth:`precompute_stats` fills on first use — persisted indexes
        saved with ``stats=True`` serve profiles without any graph at all.
        """
        vertices = self._as_vertex_array(vertices)
        node_k = self.node_k
        parent = self.node_parent
        out: list[list[CommunityLevel]] = []
        for vertex in vertices.tolist():
            nodes = self.nodes_of_vertex(vertex)
            if len(nodes) == 0:
                out.append([])
                continue
            ks = node_k[nodes]
            deepest = int(nodes[int(np.argmax(ks))])  # ties: smallest id
            chain: list[int] = []
            current = deepest
            while current >= 0:
                chain.append(current)
                current = int(parent[current])
            chain.reverse()
            levels: list[CommunityLevel] = []
            for node in chain:
                if node == self.root:
                    continue
                nv, ne, density = self._node_stats(node)
                levels.append(CommunityLevel(
                    k=int(node_k[node]), node_id=node, num_vertices=nv,
                    num_edges=ne, density=density))
            out.append(levels)
        return out

    # ------------------------------------------------------------------
    # profile statistics
    # ------------------------------------------------------------------
    def _node_stats(self, node: int) -> tuple[int, int, float]:
        """(num_vertices, num_edges, density) of a node's induced subgraph."""
        self.precompute_stats()
        assert self._stat_arrays is not None  # precompute_stats filled it
        nv, ne, density = self._stat_arrays
        return int(nv[node]), int(ne[node]), float(density[node])

    def precompute_stats(self) -> None:
        """Materialise size/edge/density arrays for every node (the arrays
        :meth:`save` persists with ``stats=True``).

        Counts every node's vertices and induced edges at once from the
        vertex map, the tour labels and the graph's edge endpoints (see the
        module docstring): the exact counts, and therefore the exact
        density floats, of ``graph.subgraph`` over each node's vertices.
        """
        if self._stat_arrays is not None:
            return
        graph = self.graph
        if graph is None:
            raise InvalidParameterError(
                "this persisted index was saved without node statistics "
                "(stats=False); re-save with stats=True, load it with "
                "graph=, or rebuild from a decomposition to answer profile "
                "queries")
        if hasattr(graph, "esrc"):  # CSR: already flat
            src, tgt = graph.esrc, graph.etgt
        else:
            src = np.asarray(graph.edge_index.source, dtype=np.int64)
            tgt = np.asarray(graph.edge_index.target, dtype=np.int64)
        num_nodes = self.num_nodes
        # preorder space: node ids relabelled by tin, so t's subtree is
        # the label interval [t, end[t]) and parents precede children
        tin = self.tin.astype(np.int64)
        node_at = np.argsort(tin)
        end = self.tout.astype(np.int64)[node_at]
        parent = self.node_parent.astype(np.int64)[node_at]
        table = _lifting_table(tin[np.where(parent >= 0, parent, node_at)])
        indptr = self.vert_indptr
        label = tin[self.vert_nodes]  # per vertex-map entry
        # edge pass, _STATS_CHUNK edges at a time: the single-node LCAs,
        # minus [A(u) ∪ A(w)], and the degree weights of the [A(u)] +
        # [A(w)] terms of the edges that take the general case
        ne_delta = np.zeros(num_nodes, dtype=np.int64)
        weight = np.zeros(self.n, dtype=np.int64)
        for lo in range(0, len(src), _STATS_CHUNK):
            _edge_pass(src[lo:lo + _STATS_CHUNK], tgt[lo:lo + _STATS_CHUNK],
                       indptr, label, end, table, ne_delta, weight)
        # vertex pass: one group per vertex, weighted by those degrees
        owner = np.repeat(np.arange(self.n, dtype=np.int64),
                          np.diff(indptr))
        group, plus, pair_group, minus = _path_union_deltas(
            owner * num_nodes + label, num_nodes, end, table)
        nv_delta = (np.bincount(plus, minlength=num_nodes)
                    - np.bincount(minus, minlength=num_nodes))
        # integer-valued float sums far below 2**53: exact
        ne_delta += (np.bincount(plus, weight[group], num_nodes)
                     - np.bincount(minus, weight[pair_group], num_nodes)
                     ).astype(np.int64)
        # subtree sums in preorder space, read back in node-id order
        nv = _subtree_sums(nv_delta, end)[tin]
        ne = _subtree_sums(ne_delta, end)[tin]
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(nv < 2, 0.0, 2.0 * ne / (nv * (nv - 1)))
        self._stat_arrays = (nv, ne, density)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path, stats: bool = True) -> None:
        """Persist the index as an uncompressed ``.npz``, atomically, with
        every array aligned for :func:`mmap_npz` (:func:`write_npz`).

        ``stats=True`` (default) additionally materialises the per-node
        profile statistics so a fresh process can answer *every* query
        without the graph; ``stats=False`` skips that work and the loaded
        index answers everything except :meth:`profile`.
        """
        payload = {
            "format": np.int64(FLAT_INDEX_FORMAT),
            "r": np.int64(self.r),
            "s": np.int64(self.s),
            "n": np.int64(self.n),
            "root": np.int64(self.root),
            "algorithm": np.str_(self.algorithm),
            "node_k": self.node_k,
            "node_parent": self.node_parent,
            "tin": self.tin,
            "tout": self.tout,
            "cell_node": self.cell_node,
            "lam": self.lam,
            "cells_in_tour": self.cells_in_tour,
            "cell_tin_sorted": self.cell_tin_sorted,
            "vert_indptr": self.vert_indptr,
            "vert_nodes": self.vert_nodes,
        }
        if stats:
            self.precompute_stats()
            assert self._stat_arrays is not None  # precompute_stats filled it
            nv, ne, density = self._stat_arrays
            payload.update(node_nv=nv, node_ne=ne, node_density=density)
        # write a sibling temp file and rename it over the target, so a
        # crash mid-write leaves the previous index intact
        path = Path(path)
        # one writer per process and thread can hold this name
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                write_npz(handle, payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path, graph: Any = None, *,
             mmap_mode: str | None = None) -> "FlatHierarchyIndex":
        """Rebuild a persisted index; pure array reads, no re-peeling.

        ``graph`` is optional — attach it (the graph the index was built
        from, with the same vertex count) only to compute profile
        statistics missing from an index saved with ``stats=False``.
        Persisted statistics must be 1-d, one entry per node, integer
        counts and float densities.

        ``mmap_mode="r"`` memory-maps the arrays read-only instead of
        copying them into the process (:func:`mmap_npz` — ``np.load``
        ignores ``mmap_mode`` for ``.npz`` archives).  Pages are shared
        through the OS page cache, so any number of serving processes
        hold **one** physical copy of the index; an archive that cannot
        be mapped (compressed, or written by ``np.savez`` or before
        :meth:`save` aligned its arrays) falls back to an eager load, and
        ``FlatHierarchyIndex.load(old).save(new)`` rewrites it mappable.
        ``mmap_mode=None`` (the default) loads eagerly.
        """
        if mmap_mode not in (None, "r"):
            raise InvalidParameterError(
                f"mmap_mode must be None or 'r', got {mmap_mode!r} "
                f"(the index arrays are immutable once persisted)")
        try:
            arrays = mmap_npz(path) if mmap_mode == "r" else None
            mapped = arrays is not None
            if not mapped:
                arrays = _load_npz(path)
        except _READ_ERRORS as exc:
            raise GraphFormatError(
                f"{path}: malformed flat index file: {exc}") from exc
        missing = [key for key in _REQUIRED_KEYS if key not in arrays]
        if missing:
            raise GraphFormatError(
                f"{path}: not a flat hierarchy index "
                f"(missing {', '.join(missing)})")
        version = int(arrays["format"])
        if version != FLAT_INDEX_FORMAT:
            raise GraphFormatError(
                f"{path}: unsupported index format {version} "
                f"(this build reads {FLAT_INDEX_FORMAT})")
        index = cls.__new__(cls)
        index.r = int(arrays["r"])
        index.s = int(arrays["s"])
        index.n = int(arrays["n"])
        if graph is not None and graph.n != index.n:
            raise InvalidParameterError(
                f"{path}: the index covers {index.n} vertices, the attached "
                f"graph has {graph.n}")
        index.root = int(arrays["root"])
        index.algorithm = str(arrays["algorithm"])
        # plain ndarray views of the maps (still read-only and zero-copy,
        # ``.base`` is the np.memmap): slicing an np.memmap runs its
        # Python-level __getitem__ and __array_finalize__ on every query
        arrays = {key: np.asarray(value) for key, value in arrays.items()}
        for key in ("node_k", "node_parent", "tin", "tout",
                    "cell_node", "lam", "cells_in_tour",
                    "cell_tin_sorted", "vert_indptr", "vert_nodes"):
            setattr(index, key, arrays[key])
        _check_tree(path, index.root, index.node_k, index.node_parent,
                    index.tin, index.tout)
        _check_cells(path, index.n, index.tin, index.cell_node, index.lam,
                     index.cells_in_tour, index.cell_tin_sorted,
                     index.vert_indptr, index.vert_nodes)
        index._stat_arrays = None
        if all(key in arrays for key in _STAT_KEYS):
            num_nodes = len(index.node_k)
            for key, kinds in zip(_STAT_KEYS, _STAT_KINDS, strict=True):
                stat = arrays[key]
                if stat.shape != (num_nodes,) or stat.dtype.kind not in kinds:
                    kind = "float" if kinds == "f" else "integer"
                    raise GraphFormatError(
                        f"{path}: {key} must be a 1-d {kind} array with one "
                        f"entry per node ({num_nodes}), got shape "
                        f"{stat.shape} and dtype {stat.dtype}")
            index._stat_arrays = tuple(arrays[key] for key in _STAT_KEYS)
        index.mmapped = mapped
        index.graph = graph
        index._tops_cache = {}
        return index

    def __repr__(self) -> str:
        return (f"<FlatHierarchyIndex ({self.r},{self.s}) "
                f"algorithm={self.algorithm!r} cells={self.num_cells} "
                f"nodes={self.num_nodes} vertices={self.n}>")
