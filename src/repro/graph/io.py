"""Graph loading and saving.

Formats:

* **edge list** — one ``u v`` pair per line; ``#`` and ``%`` comment lines are
  skipped (this covers SNAP's ``.txt`` dumps and most network repositories);
* **Matrix Market** (``.mtx``) — symmetric pattern/coordinate matrices, as
  distributed by the UF Sparse Matrix Collection;
* **JSON** — a small self-describing format used by the examples.

All loaders relabel arbitrary (possibly sparse, possibly string) vertex ids to
the dense ``0..n-1`` range and drop self loops and duplicate edges, matching
the preprocessing the paper applies (directions ignored, simple graphs).

Edge lists are read array-first: :class:`EdgeBlocks` reads the file in byte
blocks and gives vertex tokens dense ids, one
:class:`~repro.graph.csr.CSRGraph` build dedups and lays out the edges, and
the returned :class:`Graph` holds that CSR, building its set/list adjacency
only if an object-engine method asks for it.  The disk builder
(:func:`repro.external.build.build_diskcsr`) reads files through the same
:class:`EdgeBlocks`.

A block of plain ``u v`` decimal lines (a canonical block, the common
case) is parsed in C by ``np.fromstring`` once seven checks prove that
the parse means what the line-by-line reference means, and its values get
ids through a direct-address table.  From the first block that is not
proven canonical, the rest of the file goes through the numpy tokeniser,
which handles every edge-list file.  Both paths give the same ids, line
numbers and errors; only a block's bytes choose between them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, run_heads, sorted_unique

__all__ = [
    "BLOCK_BYTES",
    "EdgeBlocks",
    "dedup_edges",
    "load_edge_list",
    "save_edge_list",
    "load_mtx",
    "load_json",
    "save_json",
    "load_graph",
    "relabel_edges",
]

_COMMENT_PREFIXES = ("#", "%")


def dedup_edges(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop duplicate undirected edges, including reversed repeats.

    The first-seen orientation of each edge is kept, in input order.
    :class:`Graph` and :class:`~repro.graph.csr.CSRGraph` dedup on
    construction anyway; this is for consumers of raw edge lists (direct
    CSR array construction, edge counting) that bypass them.
    """
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        out.append((u, v))
    return out


def relabel_edges(raw_edges: Iterable[tuple[object, object]]) -> tuple[int, list[tuple[int, int]]]:
    """Relabel arbitrary hashable endpoints to dense ints.

    Returns ``(n, edges)``; ids are assigned in first-seen order.  Self
    loops and duplicate edges — including reversed duplicates such as
    ``(7, 5)`` after ``(5, 7)`` — are dropped, so ``len(edges)`` is the
    true undirected edge count.
    """
    ids: dict[object, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for raw_u, raw_v in raw_edges:
        if raw_u == raw_v:
            continue
        u = ids.setdefault(raw_u, len(ids))
        v = ids.setdefault(raw_v, len(ids))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    return len(ids), edges


#: bytes the edge-list parser reads per block (each block is cut back to
#: its last line break, so lines never straddle two blocks); the parse
#: holds O(block) arrays at a time
BLOCK_BYTES = 1 << 22

#: the bytes ``str.split()``/``str.strip()`` treat as whitespace in ASCII
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b"\t\n\x0b\x0c\r \x1c\x1d\x1e\x1f")] = True

#: the top ``k`` bytes of a big-endian 64-bit word, for ``k = 0..8``
_TOP_BYTES = [((1 << 8 * k) - 1) << 8 * (8 - k) for k in range(9)]
_ONES = 0x0101010101010101

#: the only bytes a canonical block holds once its comment lines are cut
_CANONICAL_BYTES = b"0123456789 \t\n"
#: ``10**1 .. 10**18``: a value below ``10**18`` has 1 + (powers <= it) digits
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
#: the direct-address id table of canonical blocks holds at most
#: ``_TABLE_PER_ID`` entries per id given, plus ``_TABLE_MIN``; a file
#: whose values would need more goes to the tokeniser
_TABLE_PER_ID = 8
_TABLE_MIN = 1 << 16


def _line_pairs(path: Path) -> Iterator[tuple[str, str]]:
    """The first two tokens of every data line, read line by line in text
    mode: the reference semantics of an edge-list file, and the parse of
    files the byte-block parser cannot take (any byte >= 0x80, where text
    decoding and unicode whitespace differ from a byte split)."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            yield parts[0], parts[1]


def _line_blocks(path: Path, block_bytes: int) -> Iterator[bytes]:
    """The file's bytes in blocks that end right after a line break.

    A CR at the very end of a read is held back with the rest of its
    line: the next read may start with the LF that makes it one CRLF.
    """
    with open(path, "rb") as handle:
        carry = b""
        while True:
            chunk = handle.read(block_bytes)
            if not chunk:
                if carry:
                    yield carry
                return
            buf = carry + chunk
            cut = 1 + max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1))
            carry = buf[cut:]
            if cut:
                yield buf[:cut]


def _is_ascii(path: Path, block_bytes: int) -> bool:
    with open(path, "rb") as handle:
        while chunk := handle.read(block_bytes):
            if not chunk.isascii():
                return False
    return True


def _token_keys(data: bytes, starts, lengths):
    """One key per token, equal exactly when the token bytes are.

    Each byte is stored plus one (every byte is < 0x80, so this cannot
    carry), which keeps the zero padding unambiguous.  Keys are the
    big-endian words of the padded bytes: ``uint64`` when every token
    fits in 8 bytes, otherwise fixed-width bytes of 8 per word.
    """
    words = max(1, -(-int(lengths.max(initial=0)) // 8))
    buf = np.frombuffer(data + bytes(8 * words), dtype=np.uint8)
    # every byte offset read as the big-endian word starting there
    window = np.ndarray(shape=(len(buf) - 7,), dtype=">u8", buffer=buf,
                        strides=(1,))
    top = np.array(_TOP_BYTES, dtype=np.uint64)
    columns = []
    for word in range(words):
        keep = top[np.clip(lengths - 8 * word, 0, 8)]
        raw = window[starts + 8 * word].astype(np.uint64)
        columns.append((raw & keep) + (keep & np.uint64(_ONES)))
    if words == 1:
        return columns[0]
    return np.stack(columns, axis=1).astype(">u8").view(f"S{8 * words}").ravel()


def _widen(keys, width: int):
    """``keys`` as fixed-width byte keys of ``width`` bytes."""
    if keys.dtype == np.uint64:
        keys = keys.astype(">u8").view("S8")
    return keys.astype(f"S{width}")


class _TokenIds:
    """Token key -> dense id, ids given in first-seen order; one table
    carries across all blocks of a file (sorted keys, aligned ids)."""

    def __init__(self, keys=None, ids=None) -> None:
        self.keys = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int64)
        if keys is not None and len(keys):
            order = np.argsort(keys)
            self.keys = keys[order]
            self.ids = ids[order]

    def __len__(self) -> int:
        return len(self.keys)

    def assign(self, tokens):
        """The ids of ``tokens`` (keys in stream order); unseen ones get
        the next ids in the order they first appear."""
        if len(tokens) == 0:
            return np.empty(0, dtype=np.int64)
        if tokens.dtype != self.keys.dtype:
            width = max(8, tokens.dtype.itemsize, self.keys.dtype.itemsize)
            tokens = _widen(tokens, width)
            if self.keys.dtype != tokens.dtype:
                self.keys = _widen(self.keys, width)
                order = np.argsort(self.keys)
                self.keys = self.keys[order]
                self.ids = self.ids[order]
        order = np.argsort(tokens)
        ordered = tokens[order]
        head = run_heads(ordered)
        heads = np.flatnonzero(head)
        distinct = ordered[heads]
        first_seen = np.minimum.reduceat(order, heads)
        pos = np.searchsorted(self.keys, distinct)
        known = pos < len(self.keys)
        known[known] = self.keys[pos[known]] == distinct[known]
        fresh = np.flatnonzero(~known)
        ids = np.empty(len(distinct), dtype=np.int64)
        ids[known] = self.ids[pos[known]]
        ids[fresh[np.argsort(first_seen[fresh])]] = len(self.keys) + np.arange(
            len(fresh), dtype=np.int64)
        self.keys = np.insert(self.keys, pos[fresh], distinct[fresh])
        self.ids = np.insert(self.ids, pos[fresh], ids[fresh])
        out = np.empty(len(tokens), dtype=np.int64)
        out[order] = ids[np.cumsum(head) - 1]
        return out


def _block_rows(data: bytes, path: Path, first_line: int):
    """Tokenise one block: ``(ustart, ulen, vstart, vlen, breaks)``, the
    first two tokens of every data line and the block's line-break count.

    Tokens split on :data:`_IS_SPACE`; lines end at LF, CRLF or a lone CR,
    as in text mode.  A line is a comment when its first token starts
    with ``#`` or ``%``; any other line with one token is malformed.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    space = np.ones(len(raw) + 2, dtype=bool)
    space[1:-1] = _IS_SPACE[raw]
    # byte offsets where whitespace-ness flips: token starts, then ends
    flips = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = flips[0::2], flips[1::2]
    brk = raw == 10
    carriage = raw == 13
    if carriage.any():
        brk[1:] &= ~carriage[:-1]  # the LF of a CRLF ends no second line
        brk |= carriage
    breaks = np.flatnonzero(brk)
    if len(starts) == 0:
        return (np.empty(0, dtype=np.int64),) * 4 + (len(breaks),)
    line = np.searchsorted(breaks, starts)
    first = np.flatnonzero(run_heads(line))
    count = np.diff(first, append=len(line))
    lead = raw[starts[first]]
    data_line = (lead != ord("#")) & (lead != ord("%"))
    short = data_line & (count < 2)
    if short.any():
        bad = first[np.argmax(short)]
        lineno = first_line + int(line[bad]) + 1
        text = data[starts[bad]:ends[bad]].decode("ascii")
        raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {text!r}")
    rows = first[data_line]
    return (starts[rows], ends[rows] - starts[rows], starts[rows + 1],
            ends[rows + 1] - starts[rows + 1], len(breaks))


def _decimal_digits(values):
    """The decimal digit count (int8) of every value in ``[0, 10**18)``."""
    digits = np.ones(len(values), dtype=np.int8)
    top = int(np.searchsorted(_POW10, values.max(initial=0), "right"))
    for power in _POW10[:top]:
        digits += values >= power
    return digits


def _drop_comment_lines(data: bytes) -> bytes:
    """``data``, LF-terminated lines holding a ``#`` or ``%``, without the
    lines whose first byte is one, each cut through its LF.  Only the lines
    from the first mark to the last are scanned: a header is a few lines."""
    lo = data.rfind(b"\n", 0, min(at for at in (data.find(b"#"),
                                                data.find(b"%")) if at >= 0))
    hi = data.index(b"\n", max(data.rfind(b"#"), data.rfind(b"%"))) + 1
    raw = np.frombuffer(data, dtype=np.uint8)[lo + 1:hi]
    ends = np.flatnonzero(raw == 10) + 1
    lead = raw[np.concatenate(([0], ends[:-1]))]
    comment = (lead == ord("#")) | (lead == ord("%"))
    kept = raw[np.repeat(~comment, np.diff(ends, prepend=0))]
    return data[:lo + 1] + kept.tobytes() + data[hi:]


def _canonical_values(data: bytes):
    """``(values, breaks)`` of a block proven canonical, else ``None``.

    ``values`` are the block's tokens in stream order, ``u, v``
    interleaved; ``breaks`` is its LF count, comment lines included.  The
    steps are :class:`EdgeBlocks`' 1-7, in order.
    """
    if b"\r" in data:
        return None
    breaks = rows = data.count(b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
        rows += 1
    if b"#" in data or b"%" in data:
        data = _drop_comment_lines(data)
        rows = data.count(b"\n")
    if data.translate(None, _CANONICAL_BYTES):
        return None
    if not data:
        return np.empty(0, dtype=np.int64), breaks
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(values) != 2 * rows or values.max() >= 10 ** 18:
        return None
    digits = _decimal_digits(values)
    ends = np.cumsum(digits[0::2] + digits[1::2] + 2) - 1
    if ends[-1] != len(data) - 1 or \
            not (np.frombuffer(data, dtype=np.uint8)[ends] == 10).all():
        return None
    return values, breaks


class _DirectIds:
    """Decimal value -> dense id, ids given in first-seen order, for the
    canonical blocks: a direct-address table (-1 = unseen) that grows to
    the largest value seen, within its cap."""

    def __init__(self) -> None:
        self.table = np.empty(0, dtype=np.int64)
        self.count = 0  # ids given

    def assign(self, values):
        """The ids of ``values`` (``u, v`` interleaved), self-loop rows
        dropped first; ``None``, with nothing assigned, when the table
        would outgrow its cap."""
        pairs = values.reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            values = pairs[~loops].ravel()
        size = int(values.max(initial=-1)) + 1
        if size > len(self.table):
            # the table may hold _TABLE_PER_ID entries per id; the block's
            # own new ids count too, but are counted (one sort) only when
            # the ids given before it do not allow its size already
            given = self.count
            if size > _TABLE_PER_ID * given + _TABLE_MIN:
                new = values >= len(self.table)
                new[~new] = self.table[values[~new]] < 0
                given += len(sorted_unique(values[new]))
                if size > _TABLE_PER_ID * given + _TABLE_MIN:
                    return None
            grown = np.full(size, -1, dtype=np.int64)
            grown[:len(self.table)] = self.table
            self.table = grown
        ids = self.table[values]
        fresh = np.flatnonzero(ids < 0)
        if len(fresh):
            # each unseen value's first position, then ids in that order
            unseen = values[fresh]
            self.table[unseen] = len(values)
            np.minimum.at(self.table, unseen, fresh)
            first = fresh[self.table[unseen] == fresh]
            self.table[values[first]] = self.count + np.arange(
                len(first), dtype=np.int64)
            self.count += len(first)
            ids[fresh] = self.table[unseen]
        return ids

    def token_ids(self) -> _TokenIds:
        """The same ids, keyed as the tokeniser keys the values' decimal
        strings."""
        values = np.flatnonzero(self.table >= 0)
        text = "\n".join(map(str, values.tolist())).encode("ascii")
        lengths = _decimal_digits(values).astype(np.int64)
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        return _TokenIds(_token_keys(text, starts, lengths),
                         self.table[values])


class EdgeBlocks:
    """The dense endpoint ids of an edge-list file, one block at a time.

    Iterating yields an aligned pair of int64 arrays ``(u, v)`` per block
    of about :data:`BLOCK_BYTES` bytes; :attr:`n` counts the distinct vertex
    tokens seen so far.  The semantics are :func:`load_edge_list`'s:
    ``#``/``%`` comment lines and blank lines are skipped, a data line
    keeps its first two whitespace-separated tokens, a line with one token
    raises :class:`GraphFormatError` naming its line number, self loops
    are dropped before any id is given out, and tokens (compared as
    strings, so ``01`` and ``1`` differ) get dense ids in first-seen
    order.  Duplicate edges pass through.

    ASCII files are read block by block; the id table is the only state
    carried between blocks.  Any other file is read line by line in text
    mode, exactly as a per-line parser would.

    **Canonical blocks.**  While every block so far has been proven
    canonical, a block is parsed in C by ``np.fromstring(sep=" ")``, and
    an int64 direct-address table maps each value to its id.  A block is
    canonical only if it passes these steps, in order; each closes a way
    the C parse could read a block differently from the reference:

    1. It has no CR byte.  CR ends a line in text mode, so step 3 would
       cut a CR-terminated line along with the comment before it.
    2. A last block without a final LF gets one, so every line ends at an
       LF.
    3. Every comment line, one whose first byte is ``#`` or ``%``, is cut
       through its LF.  A ``#`` or ``%`` anywhere else stays for step 4
       to reject, so indented comments go to the tokeniser.
    4. Nothing is left but ``0-9``, space, tab and LF.  Signs, letters and
       other separators are tokens or whitespace the C parse reads its own
       way, and on such bytes it can stop early (a DeprecationWarning
       that numpy will turn into an error).
    5. The parse gives two values per line.
    6. Every value is below ``10**18``: an out-of-range token parses
       saturated to the int64 maximum, without a warning, and would merge
       with a different token.
    7. With d(x) the digit count of x, the i-th LF sits at
       Σ_{j≤i} (d(u_j) + d(v_j) + 2) − 1.  A digit run is never shorter
       than d of its value, and two runs need a blank between them, so
       only the canonical bytes reach every one of these positions: one
       space or tab between the two tokens, no leading zeros, and no blank
       line, leading or trailing blank or third column.  (This also
       rejects a whitespace-only block, which the C parse reads as
       ``[0]``.)  Checking each condition with byte masks instead cost
       more than the parse saves.

    The table grows to the largest value seen, up to ``_TABLE_PER_ID``
    entries per id given (the block's own new ids included) plus
    ``_TABLE_MIN``, so it stays O(n) however many times a file repeats a
    large id; a block's own new ids are counted only when the ids given
    before it do not already allow its largest value.  The first block
    that fails a step, or would grow the table past that cap,
    switches the file to the tokeniser for good: the table becomes the
    tokeniser's keys (the decimal strings of the values seen), and later
    ids continue in first-seen order.  A canonical block adds its LF
    count, comment lines included, to the line count, so any later error
    names the same line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.block_bytes = BLOCK_BYTES
        self.n = 0

    def __iter__(self) -> Iterator[tuple]:
        if _is_ascii(self.path, self.block_bytes):
            return self._byte_blocks()
        return self._text_blocks()

    def _byte_blocks(self) -> Iterator[tuple]:
        direct: _DirectIds | None = _DirectIds()
        table = _TokenIds()
        lines = 0
        for data in _line_blocks(self.path, self.block_bytes):
            if direct is not None:
                parsed = _canonical_values(data)
                ids = None if parsed is None else direct.assign(parsed[0])
                if ids is not None:
                    lines += parsed[1]
                    self.n = direct.count
                    yield ids[0::2], ids[1::2]
                    continue
                table = direct.token_ids()
                direct = None
            ustart, ulen, vstart, vlen, breaks = _block_rows(
                data, self.path, lines)
            lines += breaks
            count = len(ustart)
            keys = _token_keys(data, np.concatenate((ustart, vstart)),
                               np.concatenate((ulen, vlen)))
            kept = np.flatnonzero(keys[:count] != keys[count:])
            # interleave u, v so stream order is the first-seen order
            ids = table.assign(np.stack(
                (keys[:count][kept], keys[count:][kept]), axis=1).ravel())
            self.n = len(table)
            yield ids[0::2], ids[1::2]

    def _text_blocks(self) -> Iterator[tuple]:
        ids: dict[str, int] = {}
        us: list[int] = []
        vs: list[int] = []
        for raw_u, raw_v in _line_pairs(self.path):
            if raw_u == raw_v:
                continue
            us.append(ids.setdefault(raw_u, len(ids)))
            vs.append(ids.setdefault(raw_v, len(ids)))
            if len(us) * 16 >= self.block_bytes:  # ~16 bytes per line
                self.n = len(ids)
                yield np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
                us.clear()
                vs.clear()
        self.n = len(ids)
        yield np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def load_edge_list(path: str | Path, name: str = "") -> Graph:
    """Load a whitespace-separated edge list file.

    The file goes through :class:`EdgeBlocks` and one CSR build; the
    returned graph holds that :class:`~repro.graph.csr.CSRGraph` and
    builds its set/list adjacency only on first object-engine use.
    """
    path = Path(path)
    blocks = EdgeBlocks(path)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for block_u, block_v in blocks:
        # copies, and no name left on the views, so that no block's
        # interleaved id array outlives its block
        us.append(block_u.copy())
        vs.append(block_v.copy())
        del block_u, block_v
    # the block lists go one at a time, before the build
    u = np.concatenate(us)
    del us
    v = np.concatenate(vs)
    del vs
    csr = CSRGraph.from_arrays(blocks.n, u, v, name=name or path.stem)
    return Graph.from_csr(csr)


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph as a ``u v`` edge list with a header comment."""
    path = Path(path)
    with open(path, "w") as handle:
        handle.write(f"# {graph.name or 'graph'}: n={graph.n} m={graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def load_mtx(path: str | Path, name: str = "") -> Graph:
    """Load a Matrix Market coordinate file as an undirected graph."""
    path = Path(path)
    with open(path) as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{path}: missing MatrixMarket header")
        line = handle.readline()
        lines_read = 2  # physical lines consumed so far, the size line included
        while line.startswith("%"):
            line = handle.readline()
            lines_read += 1
        dims = line.split()
        if len(dims) < 2:
            raise GraphFormatError(f"{path}: bad dimensions line {line!r}")
        rows = int(dims[0])
        cols = int(dims[1])
        n = max(rows, cols)
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for lineno, line in enumerate(handle, start=lines_read + 1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"{path}:{lineno}: entry ({u + 1}, {v + 1}) out of range")
            # symmetric matrices list both (i, j) and (j, i); keep one
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append((u, v))
    return Graph(n, edges, name=name or path.stem)


def load_json(path: str | Path) -> Graph:
    """Load the library's JSON graph format (``{"n":.., "edges": [[u,v],..]}``)."""
    path = Path(path)
    with open(path) as handle:
        payload = json.load(handle)
    try:
        n = int(payload["n"])
        edges = [(int(u), int(v)) for u, v in payload["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"{path}: malformed JSON graph: {exc}") from exc
    return Graph(n, edges, name=str(payload.get("name", path.stem)))


def save_json(graph: Graph, path: str | Path) -> None:
    """Write a graph in the library's JSON format."""
    payload = {"name": graph.name, "n": graph.n, "edges": [list(e) for e in graph.edges()]}
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_graph(path: str | Path) -> Graph:
    """Load a graph, dispatching on the file extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".mtx":
        return load_mtx(path)
    if suffix == ".json":
        return load_json(path)
    return load_edge_list(path)
