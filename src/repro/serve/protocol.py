"""Wire encoding shared by the TCP and HTTP front ends.

Requests are JSON objects; responses are JSON envelopes::

    {"op": "communities_of_vertex", "vertex": 17, "k": 3,
     "index": "web", "id": 41}
    {"id": 41, "ok": true, "result": [[0, 4, 9], [22, 23]]}

Answers are built as JSON *fragments* that the envelope wraps as they
are.

Long answers skip Python's per-int ``str``: a sorted, non-negative
integer array is printed by numpy (:func:`_sorted_ids_json`), four
digits per table lookup, into fixed-width rows whose digit runs are cut
out with one 2-D slice per digit count.  Every other input takes the
join, and both paths emit the same bytes.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterable

import numpy as np

__all__ = [
    "QUERY_OPS",
    "cells_json",
    "communities_json",
    "envelope",
    "error_envelope",
    "profile_json",
]

#: query ops every front end routes (plus "stats", "indexes", "ping")
QUERY_OPS = ("max_nucleus", "nucleus_at", "communities_of_vertex", "profile")

#: shortest array :func:`_sorted_ids_json` prints.  Sorted int32 ids below
#: 162,851 on a 2-vCPU host, checks included: the join costs 14 / 21 / 28
#: / 33 / 52 µs at 64 / 96 / 128 / 160 / 256 cells, the array path 20 /
#: 21 / 21 / 29 / 31 µs, so they cross at about 100 cells; served scalar
#: answers (at most 64 cells) stay on the join
ARRAY_MIN_CELLS = 128
#: the array path prints at most 12 digits per id
_ARRAY_LIMIT = 10**12


@functools.cache
def _digit_table() -> Any:
    """The four ASCII digits of 0..9999, zero-padded, as little-endian
    ``uint32`` words (so the bytes read in print order).  Built on the
    first array encode, not at import."""
    values = np.arange(10_000, dtype=np.uint32)
    table = np.zeros(10_000, dtype="<u4")
    for shift, power in ((0, 1000), (8, 100), (16, 10), (24, 1)):
        table |= (values // power % 10 + ord("0")) << shift
    table.flags.writeable = False  # one table shared by every encode
    return table


@functools.cache
def _width_bounds(dtype: Any) -> Any:
    """10, 100, ..., 10**11 (those ``dtype`` holds): an id is ``w`` digits
    wide when it is below the ``w``-th bound and not below the one before."""
    top = np.iinfo(dtype).max
    bounds = np.array([10**width for width in range(1, 12)
                       if 10**width <= top], dtype=dtype)
    bounds.flags.writeable = False
    return bounds


def _sorted_ids_json(cells: Any) -> str:
    """``cells`` (1-d, ascending, in [0, 10**12)) as a JSON list.

    Each id becomes one 16-byte row: three 4-digit groups from
    :func:`_digit_table`, then a comma (``]`` in the last row).  An id of
    ``w`` digits is the row's bytes ``12 - w`` to 13, and sorted ids
    have non-decreasing widths, so each run of one width is a single
    2-D slice, found by ``searchsorted``.
    """
    table = _digit_table()
    rows = np.empty((len(cells), 4), dtype="<u4")
    high, rest = np.divmod(cells, 100_000_000)
    middle, low = np.divmod(rest, 10_000)
    rows[:, 0] = table.take(high)
    rows[:, 1] = table.take(middle)
    rows[:, 2] = table.take(low)
    rows[:, 3] = ord(",")
    rows[-1, 3] = ord("]")
    text = rows.view(np.uint8)
    cuts = np.searchsorted(cells, _width_bounds(cells.dtype)).tolist()
    pieces = [b"["]
    first = 0
    for width, last in enumerate([*cuts, len(cells)], 1):
        if first < last:
            pieces.append(text[first:last, 12 - width:13].tobytes())
            first = last
    return b"".join(pieces).decode("ascii")


def _sorted_ids(cells: Any) -> bool:
    """Whether :func:`_sorted_ids_json` can print ``cells``: 8- and 16-bit
    arrays (no index answer is one) cannot hold its divisors."""
    return (isinstance(cells, np.ndarray) and cells.ndim == 1
            and cells.dtype.kind in "iu" and cells.dtype.itemsize >= 4
            and len(cells) >= ARRAY_MIN_CELLS
            and 0 <= cells[0] and cells[-1] < _ARRAY_LIMIT
            and bool(np.all(cells[:-1] <= cells[1:])))


def cells_json(cells: Any) -> str:
    """A sorted cell array as a JSON list."""
    if _sorted_ids(cells):
        return _sorted_ids_json(cells)
    return "[" + ",".join(map(str, cells.tolist()
                              if hasattr(cells, "tolist") else cells)) + "]"


def communities_json(communities: Iterable[Any]) -> str:
    """A list of cell arrays (one vertex's communities) as JSON."""
    return "[" + ",".join(map(cells_json, communities)) + "]"


def profile_json(levels: Iterable[Any]) -> str:
    """A vertex's :class:`~repro.queries.CommunityLevel` chain as JSON."""
    return json.dumps([
        {"k": level.k, "node_id": level.node_id,
         "num_vertices": level.num_vertices, "num_edges": level.num_edges,
         "density": level.density}
        for level in levels])


def envelope(request_id: object, result_fragment: str) -> bytes:
    """A success response line (``result_fragment`` is already JSON)."""
    return (f'{{"id":{json.dumps(request_id)},"ok":true,'
            f'"result":{result_fragment}}}\n').encode()


def error_envelope(request_id: object, message: str) -> bytes:
    """An error response line."""
    return (f'{{"id":{json.dumps(request_id)},"ok":false,'
            f'"error":{json.dumps(message)}}}\n').encode()
