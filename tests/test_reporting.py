"""write_csv writes exactly the text fmt defines, whatever the row type."""

import numpy as np
import pytest

from spectral_embed import reporting
from spectral_embed.reporting import fmt, write_csv

FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16,
          1e-05, 0.1]
CELLS = FLOATS + [np.float64(0.1), 7, -12, np.float32(0.1), np.int64(-3),
                  True, False, np.True_, np.False_, "label", np.str_("s")]


def reference(header, rows):
    lines = [",".join(header)]
    lines += [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def written(tmp_path, header, rows):
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    return path.read_text()


def test_mixed_cells_match_fmt(tmp_path):
    rows = [CELLS, CELLS[::-1], [CELLS[i] for i in range(0, len(CELLS), 3)]]
    assert written(tmp_path, ["a"], rows) == reference(["a"], rows)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64,
                                   np.bool_])
@pytest.mark.parametrize("form", ["ndarray", "tolist", "generator"])
def test_array_rows_match_fmt(tmp_path, dtype, form):
    block = np.array([FLOATS, FLOATS[::-1]])
    if dtype is np.int64:
        block = np.arange(-8, 8).reshape(2, 8) * 123456789
    elif dtype is np.bool_:
        block = np.arange(16).reshape(2, 8) % 3 == 0
    block = block.astype(dtype)
    cells = block.tolist() if form == "tolist" else list(block)
    rows = {"ndarray": block, "tolist": cells,
            "generator": (row for row in cells)}[form]
    assert written(tmp_path, ["c"] * 8, rows) == reference(["c"] * 8, cells)


def test_enumerated_tolist_rows_match_fmt(tmp_path):
    # the bulk exporters hand over (index, value) pairs of .tolist() data
    values = np.array(FLOATS + [np.float32(0.1)], dtype=np.float64)
    rows = enumerate(values.tolist())
    assert written(tmp_path, ["k", "v"], rows) == \
        reference(["k", "v"], list(enumerate(values)))


# one type per column, as each exporter hands its rows over, and columns
# that mix exact floats and ints
COLUMNS = [[True, False, True], [np.True_, np.False_, np.True_],
           [np.float32(0.1), np.float32(-2.5), np.float32(1e-8)],
           [7, -12, 2 ** 70], ["a", "b", "c"], [0.1, -0.0, float("nan")],
           [1, 2.5, -3], [np.float64(0.1), 3, 0.5]]


def test_typed_columns_match_fmt(tmp_path):
    rows = list(zip(*COLUMNS))
    header = [f"c{i}" for i in range(len(COLUMNS))]
    assert written(tmp_path, header, rows) == reference(header, rows)


@pytest.mark.parametrize("rows", [
    [(1, 0.5), (2,), (3, 0.25, "x")],
    [(), (1.5, 2)],
    [(), ()],
    []], ids=["ragged", "empty-first", "all-empty", "no-rows"])
def test_ragged_rows_match_fmt(tmp_path, rows):
    assert written(tmp_path, ["a", "b"], rows) == reference(["a", "b"], rows)


BLOCK = reporting.CSV_BLOCK
RNG = np.random.default_rng(0)


@pytest.mark.parametrize("rows", [
    RNG.standard_normal((3 * BLOCK + 5, 4)).tolist(),
    [[i, 0.5 * i] for i in range(BLOCK)],
    [[i, 0.5 * i] for i in range(BLOCK + 1)],
    # ragged in some blocks only, and blocks of other types
    [[i] * (1 + (i > BLOCK) * (i % 3)) for i in range(2 * BLOCK + 7)],
    [[np.float32(i), True, "x"] for i in range(BLOCK)]
    + [[float(i), i, np.float64(i)] for i in range(BLOCK + 3)],
    [()] * (BLOCK + 2),
    []], ids=["uniform", "one-block", "one-past-a-block", "ragged", "typed",
              "empty-rows", "no-rows"])
def test_blocks_match_one_join(tmp_path, rows):
    header = ["a", "b", "c", "d"]
    # byte for byte the whole file formatted as one join
    assert written(tmp_path, header, iter(rows)) == reference(header, rows)


def test_export_peak_memory(tmp_path, traced_peak):
    # the largest embedding export, 512 rows of a point and 128 coordinates:
    # rows formatted a block at a time peak at 0.6 MiB, the whole file as
    # one join at 3.7
    rows = np.random.default_rng(1).standard_normal((512, 129)).tolist()
    _, peak = traced_peak(write_csv, str(tmp_path / "e.csv"), ["c"] * 129,
                          rows)
    assert peak <= 2 ** 20
