"""The wire encoder: long sorted answers are printed from the array, every
other input through the join, and both emit what ``json.dumps`` does."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.backends import build_query_index  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.serve import IndexRegistry, ServeClient, ServerThread  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    ARRAY_MIN_CELLS,
    cells_json,
    communities_json,
)

#: ids at the digit-count and 4-digit-group boundaries
EDGE_VALUES = (0, 9, 10, 99, 100, 9_999, 10_000, 10**8 - 1, 10**8,
               2**31 - 1)
#: the largest id each dtype takes in these tests (the array path stops
#: below 10**12)
TOPS = {np.int32: 2**31 - 1, np.uint32: 2**32 - 1, np.int64: 10**12 - 1}


def _dumps(values) -> str:
    return json.dumps([int(value) for value in values],
                      separators=(",", ":"))


@st.composite
def sorted_ids(draw, min_size=0):
    """Sorted int32, int64 or uint32 arrays on both sides of the
    crossover, with the boundary ids mixed in."""
    dtype = draw(st.sampled_from(sorted(TOPS, key=str)))
    top = TOPS[dtype]
    elements = st.one_of(st.sampled_from(EDGE_VALUES),
                         st.sampled_from((top, 10**11 - 1, 10**11)
                                         if top > 2**32 else (top,)),
                         st.integers(0, top))
    values = draw(hnp.arrays(
        dtype, st.integers(min_size, 3 * ARRAY_MIN_CELLS),
        elements=elements))
    return np.sort(values)


class TestArrayPath:
    @settings(max_examples=200, deadline=None)
    @given(sorted_ids())
    def test_cells_json_equals_json_dumps(self, cells):
        assert cells_json(cells) == _dumps(cells)

    @settings(max_examples=200, deadline=None)
    @given(sorted_ids(min_size=1))
    def test_printer_equals_json_dumps_at_any_length(self, cells):
        """The array printer itself, below the crossover too."""
        assert protocol._sorted_ids_json(cells) == _dumps(cells)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_boundary_ids(self, dtype):
        cells = np.array(sorted(EDGE_VALUES * 20), dtype=dtype)
        assert len(cells) >= ARRAY_MIN_CELLS
        assert protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)

    def test_twelve_digit_ids(self):
        cells = np.arange(10**12 - ARRAY_MIN_CELLS, 10**12, dtype=np.int64)
        assert protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)

    def test_crossover(self):
        assert not protocol._sorted_ids(
            np.arange(ARRAY_MIN_CELLS - 1, dtype=np.int32))
        assert protocol._sorted_ids(np.arange(ARRAY_MIN_CELLS,
                                              dtype=np.int32))

    def test_strided_and_big_endian_arrays(self):
        cells = np.arange(0, 6 * ARRAY_MIN_CELLS, 3, dtype=np.int64)
        assert cells_json(cells[::2]) == _dumps(cells[::2])
        swapped = cells.astype(">i4")
        assert protocol._sorted_ids(swapped)
        assert cells_json(swapped) == _dumps(cells)

    def test_no_digit_table_at_import(self):
        """Build processes import the serving tier through ``import
        repro``; the table is made on the first array encode."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        script = ("import repro\n"
                  "from repro.serve import protocol\n"
                  "assert protocol._digit_table.cache_info().currsize == 0\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestFallbacks:
    """Inputs the array path cannot prove it prints right take the join."""

    LONG = 2 * ARRAY_MIN_CELLS

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_empty(self, dtype):
        assert cells_json(np.array([], dtype=dtype)) == "[]"

    def test_unsorted(self):
        cells = np.arange(self.LONG, dtype=np.int32)[::-1].copy()
        assert not protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)
        cells = np.arange(self.LONG, dtype=np.int32)
        cells[[7, 8]] = cells[[8, 7]]
        assert not protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)

    def test_negative(self):
        cells = np.arange(-3, self.LONG - 3, dtype=np.int64)
        assert not protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)

    def test_thirteen_digits(self):
        cells = np.arange(10**12 - 5, 10**12 - 5 + self.LONG,
                          dtype=np.int64)
        assert not protocol._sorted_ids(cells)
        assert cells_json(cells) == _dumps(cells)

    def test_lists(self):
        values = list(range(self.LONG))
        assert not protocol._sorted_ids(values)
        assert cells_json(values) == _dumps(values)
        assert communities_json([values, [3, 1]]) == \
            json.dumps([values, [3, 1]], separators=(",", ":"))

    @pytest.mark.parametrize("cells", [
        np.arange(400, dtype=np.int32).reshape(200, 2),
        np.arange(400, dtype=np.float64),
        np.arange(400, dtype=np.int16),
        np.arange(200, dtype=np.uint8),
        np.ones(400, dtype=bool),
    ], ids=["2-d", "float", "int16", "uint8", "bool"])
    def test_other_arrays(self, cells):
        assert not protocol._sorted_ids(cells)

    def test_narrow_ints_still_encode(self):
        cells = np.arange(self.LONG, dtype=np.int16)
        assert cells_json(cells) == _dumps(cells)


@pytest.fixture(scope="module")
def big_flat():
    """A (2,3) index of seven planted blocks (9,989 cells): at k = 3 its
    communities hold 74 to 4,419 cells, on both sides of the crossover."""
    graph = generators.stochastic_block([16, 20, 40, 60, 80, 120, 160], 0.35,
                                        0.01, seed=21)
    return build_query_index(graph, 2, 3, backend="csr")


class TestServedLongAnswers:
    def test_served_answers_equal_direct_calls(self, big_flat, tmp_path):
        path = tmp_path / "big.npz"
        big_flat.save(path)
        registry = IndexRegistry()
        registry.open("big", path)
        k = 3
        vertices = list(range(0, big_flat.n, 7))
        cells = list(range(0, big_flat.num_cells, 97))
        requests = (
            [{"op": "communities_of_vertex", "vertex": v, "k": k}
             for v in vertices]
            + [{"op": "max_nucleus", "cell": c} for c in cells]
            + [{"op": "nucleus_at", "cell": c, "k": k} for c in cells
               if big_flat.lam[c] >= k])
        # one long answer read as raw bytes off the socket
        raw_cell = next(c for c in cells if big_flat.lam[c] >= k and len(
            big_flat.nucleus_at(c, k)) >= ARRAY_MIN_CELLS)
        with ServerThread(registry) as server:
            with ServeClient(port=server.port) as client:
                answers = client.call_many(requests)
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"id":7,"op":"nucleus_at","cell":%d,"k":%d}\n'
                             % (raw_cell, k))
                line = reader.readline()
        expected = []
        for request in requests:
            if request["op"] == "communities_of_vertex":
                expected.append(big_flat.communities_of_vertex(
                    request["vertex"], k))
            elif request["op"] == "max_nucleus":
                expected.append(big_flat.max_nucleus(request["cell"]))
            else:
                expected.append(big_flat.nucleus_at(request["cell"], k))
        assert answers == expected
        sizes = {len(community) for answer in answers[:len(vertices)]
                 for community in answer}
        sizes.update(len(answer) for answer in answers[len(vertices):])
        # both paths served answers
        assert min(sizes) < ARRAY_MIN_CELLS <= max(sizes)
        assert line == (b'{"id":7,"ok":true,"result":'
                        + _dumps(big_flat.nucleus_at(raw_cell, k)).encode()
                        + b"}\n")
