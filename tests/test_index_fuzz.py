"""Damaged index files: a truncated or bit-flipped ``.npz`` either fails
to load with ``GraphFormatError`` or answers every query as the original
index does, in both load modes, and no load or query hangs."""

import contextlib
import io
import random
import signal
import zipfile

import pytest

np = pytest.importorskip("numpy")

from repro.backends import build_query_index
from repro.errors import GraphFormatError
from repro.flatindex import FlatHierarchyIndex, mmap_npz
from repro.graph import generators

#: seconds one load plus its queries may take before it counts as a hang
CASE_TIMEOUT_S = 10
#: damaged files per writer and load mode, of each kind: a truncation, a
#: flipped bit and an inverted byte (all 8 bits), at seeded positions
CASES_PER_KIND = 100

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="the per-case timeout needs SIGALRM")


class _Hang(BaseException):
    """A load or query outlived :data:`CASE_TIMEOUT_S`."""


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def index():
    # its cell arrays exceed zipfile's 4 KiB read-ahead, so numpy parses a
    # member's header before zipfile has read far enough to check its CRC
    graph = generators.powerlaw_cluster(300, 6, 0.5, seed=3)
    return build_query_index(graph, 2, 3, backend="csr")


def _flat(rows):
    """A list of cell arrays as one array: the lengths, then the cells."""
    rows = list(rows)
    return np.concatenate([[len(row) for row in rows], *rows]).astype(
        np.int64)


def _answers(index, cells_at):
    """Every query kind over every vertex and cell (``cells_at[k]``: the
    cells whose λ is at least k in the original index)."""
    vertices = np.arange(index.n)
    cells = np.arange(index.num_cells)
    answers = [np.array([index.node_of_cell(cell) for cell in cells]),
               _flat(index.max_nucleus_batch(cells))]
    for k, eligible in enumerate(cells_at):
        answers.append(_flat(index.nucleus_at_batch(eligible, k)))
        answers.append(_flat(
            community for row in index.communities_of_vertex_batch(
                vertices, k) for community in row))
    answers.append([(level.k, level.node_id, level.num_vertices,
                     level.num_edges, level.density)
                    for row in index.profile_batch(vertices)
                    for level in row])
    return answers


def _same(ours, theirs):
    return len(ours) == len(theirs) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(ours, theirs))


def _saved(index, writer, path):
    """``index`` as ``save`` writes it, or its arrays through plain
    ``np.savez`` (every index saved before ``save`` aligned its arrays)."""
    index.save(path)
    if writer == "savez":
        with np.load(path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        np.savez(path, **arrays)
        assert mmap_npz(path) is None
    else:
        assert mmap_npz(path) is not None
    return path.read_bytes()


def _damaged(data, seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_KIND):
        cut = rng.randrange(len(data))
        yield f"truncated to {cut} bytes", data[:cut]
        bit = rng.randrange(8 * len(data))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)
        where = rng.randrange(len(data))
        inverted = bytearray(data)
        inverted[where] ^= 0xFF
        yield f"byte {where} inverted", bytes(inverted)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("writer", ["save", "savez"])
def test_damaged_index_is_rejected_or_answers_alike(index, writer, mmap_mode,
                                                    tmp_path):
    data = _saved(index, writer, tmp_path / "index.npz")
    cells = np.arange(index.num_cells)
    cells_at = [cells[index.lam >= k] for k in range(int(index.lam.max()) + 1)]
    expected = _answers(index, cells_at)
    path = tmp_path / "damaged.npz"
    rejected, alike, failures = 0, 0, []
    for case, blob in _damaged(data, seed=20):
        path.write_bytes(blob)
        try:
            with _deadline(CASE_TIMEOUT_S):
                try:
                    loaded = FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)
                except GraphFormatError:
                    rejected += 1
                    continue
                answers = _answers(loaded, cells_at)
        except _Hang:
            failures.append(f"{case}: no answer in {CASE_TIMEOUT_S} s")
        except Exception as exc:  # every escape is a finding
            failures.append(f"{case}: {exc!r}")
        else:
            if _same(answers, expected):
                alike += 1
            else:
                failures.append(f"{case}: loaded, and answers differently")
    assert not failures, "\n".join(failures)
    assert rejected + alike == 3 * CASES_PER_KIND
    assert rejected > alike  # the damage is not all in ignored bytes


# ---------------------------------------------------------------------------
# damage the fuzz only finds by chance
# ---------------------------------------------------------------------------
def _saved_with_flip(index, tmp_path, where, mask=1):
    """``index`` saved, then byte ``where(data)`` XORed with ``mask``."""
    path = tmp_path / "index.npz"
    index.save(path)
    data = bytearray(path.read_bytes())
    data[where(data)] ^= mask
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_npy_version_flip_rejected(index, tmp_path, mmap_mode):
    """Format version 1.0 flipped to 3.0, which numpy has no public header
    reader for."""
    path = _saved_with_flip(
        index, tmp_path,
        lambda data: data.index(b"\x93NUMPY", data.index(b"lam.npy")) + 6,
        mask=2)
    with pytest.raises(GraphFormatError, match="lam"):
        FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_unbalanced_npy_header_rejected(index, tmp_path, mmap_mode):
    """A header whose closing brace became ``|``: numpy's header filter
    raises ``tokenize.TokenError``, which is not a ``ValueError``."""
    path = _saved_with_flip(
        index, tmp_path, lambda data: data.index(b"}", data.index(b"lam.npy")))
    with pytest.raises(GraphFormatError, match="lam"):
        FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("key", ["node_k", "lam"])
def test_flipped_data_byte_fails_crc(index, tmp_path, key, mmap_mode):
    """A flip in an array's last entry passes every structure check; only
    the member's CRC-32 tells."""
    def where(data):
        member = mmap_npz(tmp_path / "index.npz")[key]
        return member.offset + (len(member) - 1) * member.itemsize

    path = _saved_with_flip(index, tmp_path, where)
    with pytest.raises(GraphFormatError, match=key):
        FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_member_renamed_in_central_directory_rejected(index, tmp_path,
                                                      mmap_mode):
    """``node_ne`` named ``node_nd`` in the central directory only:
    ``zipfile`` rejects the mismatch, and so must the mapped load, which
    would otherwise serve the index without its statistics."""
    path = _saved_with_flip(
        index, tmp_path, lambda data: data.rindex(b"node_ne.npy") + 6)
    with pytest.raises(GraphFormatError, match="node_nd"):
        FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_unsupported_compression_method_rejected(index, tmp_path, mmap_mode):
    """``lam``'s method in the central directory flipped from stored (0)
    to 1: ``zipfile`` raises ``NotImplementedError``, a ``RuntimeError``
    and not a ``ValueError``; the mapped load falls back to it."""
    # a central directory entry is 46 fixed bytes, then the name; its
    # compression method is the u16 at byte 10
    path = _saved_with_flip(
        index, tmp_path, lambda data: data.rindex(b"lam.npy") - 46 + 10)
    with pytest.raises(GraphFormatError, match="lam"):
        FlatHierarchyIndex.load(path, mmap_mode=mmap_mode)


def test_member_shorter_than_its_shape_rejected(tmp_path):
    """A member whose ``.npy`` header claims one entry more than it holds:
    its map would run into the next member's bytes, where ``np.load``
    reads past the member's end and fails."""
    stream = io.BytesIO()
    np.lib.format.write_array(stream, np.arange(10))
    path = tmp_path / "short.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("short.npy", stream.getvalue()[:-8])
        archive.writestr("next.npy", stream.getvalue())
    with pytest.raises(GraphFormatError, match="short"):
        mmap_npz(path)
    with pytest.raises(ValueError):
        np.load(path)["short"]
