import math
import os
import stat

import numpy as np
import pytest

from artifacts_oracles import csv_text, format_value
from fockfield import artifacts, cli


def test_atomic_write_leaves_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        artifacts.write_text(str(tmp_path / "out" / "wick.txt"), "a+(x)\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_artifacts_take_the_mode_the_umask_gives_a_new_file(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert cli.main(["entangle", "--out-dir", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"entangle.csv": mode, "entangle.meta.json": mode}


@pytest.mark.parametrize("value, text", [(True, "true"), (False, "false"), (1, "1"), (0.5, "5.0000000000000000e-01")])
def test_format_value_writes_bools_in_lower_case_and_floats_in_full(value, text):
    assert format_value(value) == text


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, 0.1, np.float64(-2.5)]
EDGE_INTS = [2**70, -(2**70), np.int64(-3), np.int64(2**63 - 1), 0, np.uint64(2**64 - 1)]


def edge_table(n):
    """n rows of one column per kind, cycling through edge values of each kind."""
    header = ("f", "i", "b", "s")
    columns = (
        [EDGE_FLOATS[k % len(EDGE_FLOATS)] for k in range(n)],
        [EDGE_INTS[k % len(EDGE_INTS)] for k in range(n)],
        [k % 3 == 0 for k in range(n)],
        [f"label_{k}" for k in range(n)],
    )
    return header, columns


@pytest.mark.parametrize("n", [0, 1, artifacts._CHUNK_ROWS - 1, artifacts._CHUNK_ROWS,
                               artifacts._CHUNK_ROWS + 1, 2 * artifacts._CHUNK_ROWS + 3])
def test_write_csv_equals_the_per_value_oracle_on_edge_values(tmp_path, n):
    # tables shorter than, equal to and longer than one chunk of rows
    header, columns = edge_table(n)
    path = tmp_path / "edge.csv"
    artifacts.write_csv(str(path), header, columns)
    assert path.read_text() == csv_text(header, zip(*columns))
    # numpy columns write their elements as the oracle writes the same Python values
    arrays = (np.array(columns[0], dtype=float), np.array(columns[2], dtype=bool),
              np.arange(n, dtype=np.int64) - 7, np.arange(n, dtype=np.uint8))
    artifacts.write_csv(str(path), header, arrays)
    assert path.read_text() == csv_text(header, zip(*(a.tolist() for a in arrays)))


def test_write_csv_writes_chunks_of_rows(tmp_path, monkeypatch):
    # the text is handed to the file in chunks of at most _CHUNK_ROWS rows, never joined whole
    written = []
    atomic_write = artifacts._atomic_write

    def spy(path, chunks):
        chunks = list(chunks)
        written.extend(chunks)
        atomic_write(path, chunks)

    monkeypatch.setattr(artifacts, "_atomic_write", spy)
    n = 2 * artifacts._CHUNK_ROWS + 3
    artifacts.write_csv(str(tmp_path / "t.csv"), ("x",), (np.arange(n, dtype=float),))
    assert [chunk.count("\n") for chunk in written] == [1, artifacts._CHUNK_ROWS, artifacts._CHUNK_ROWS, 3]


def test_write_csv_prints_numpy_bools_in_lower_case(tmp_path):
    # format_value prints np.True_ as True (np.bool_ is not a bool); a bool column prints true
    path = tmp_path / "b.csv"
    artifacts.write_csv(str(path), ("a", "b"), ([np.True_, np.False_], np.array([False, True])))
    assert path.read_text() == "a,b\ntrue,false\nfalse,true\n"
    assert format_value(np.True_) == "True"


@pytest.mark.parametrize("header, columns, error, message", [
    (("x",), ([1.0, 2],), TypeError, "^column x mixes kinds \\['float', 'int'\\]$"),
    (("x",), ([True, 1],), TypeError, "^column x mixes kinds \\['bool', 'int'\\]$"),
    (("x", "y"), ([1.0], [1.0, 2.0]), ValueError, "^columns differ in length: \\[1, 2\\]$"),
    (("x", "y"), ([1.0],), ValueError, "^2 column names for 1 columns$"),
])
def test_write_csv_rejects_a_table_it_cannot_type_before_writing(tmp_path, header, columns, error, message):
    with pytest.raises(error, match=message):
        artifacts.write_csv(str(tmp_path / "bad.csv"), header, columns)
    assert list(tmp_path.iterdir()) == []
