"""write_csv writes exactly the text fmt defines, whatever the row type."""

import numpy as np
import pytest

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
