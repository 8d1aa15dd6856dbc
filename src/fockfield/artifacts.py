"""Deterministic CSV and metadata emission.

Every CSV declares its column schema in the first row, floats are printed
with 17 significant digits so regression diffs are byte-stable, complex
values are split into re/im columns by the caller, and files are written
atomically (temp file + rename) with the mode the umask gives a new file.
A table is handed over as columns, each of one kind, and written in
chunks of rows, each row from one template, so the whole text is never
held at once.
Metadata sidecars carry the exact parameters, seed, generator name, and
tool version next to each artifact; the timestamp field is the only entry
excluded from determinism comparisons.
"""

from __future__ import annotations

import itertools
import json
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__


# Rows per chunk of text that write_csv formats and writes at a time: about 1 MB of causality rows
_CHUNK_ROWS = 4096


def _atomic_write(path: str, chunks):
    """Write the strings of the iterable chunks, in order, to path through a temp file and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    # O_EXCL as in mkstemp, but mode 0o666 minus the umask, as open(path, "w") gives (mkstemp gives 0o600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _type_kind(t: type) -> str:
    if issubclass(t, (bool, np.bool_)):
        return "bool"
    if issubclass(t, float):  # np.float64 is one
        return "float"
    return "int" if issubclass(t, (int, np.integer)) else "str"


def _kind(name: str, column) -> str:
    """The kind of a column, "bool", "int", "float" or "str": a numpy array's dtype kind, or
    the one kind of every value's type (_type_kind) in another sequence."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return {"b": "bool", "i": "int", "u": "int", "f": "float"}[column.dtype.kind]
    kinds = {_type_kind(t) for t in set(map(type, column))}
    if len(kinds) > 1:
        raise TypeError(f"column {name} mixes kinds {sorted(kinds)}")
    return kinds.pop() if kinds else "str"


def _row_chunks(template: str, kinds, columns, count: int):
    """The text of count table rows, in chunks of up to _CHUNK_ROWS rows, one template per row."""
    for lo in range(0, count, _CHUNK_ROWS):
        parts = []
        for kind, column in zip(kinds, columns):
            part = column[lo:lo + _CHUNK_ROWS]
            part = part.tolist() if isinstance(part, np.ndarray) else part
            parts.append(["true" if v else "false" for v in part] if kind == "bool" else part)
        yield "".join(map(template.__mod__, zip(*parts)))


def write_csv(path: str, header, columns):
    """Write a table given as one sequence or 1-D array per column, named by header.

    Each column has one kind (_kind) and one format: float is %.16e, int
    is %d, bool is true or false (np.bool_ included) and str is the
    value's str().  A column that mixes kinds raises TypeError, and
    columns of unequal length, or a header of another length, raise
    ValueError, before anything is written.  The rows are formatted and
    written _CHUNK_ROWS at a time.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    kinds = [_kind(name, column) for name, column in zip(header, columns)]
    template = ",".join({"float": "%.16e", "int": "%d"}.get(kind, "%s") for kind in kinds) + "\n"
    rows = _row_chunks(template, kinds, columns, lengths.pop() if lengths else 0)
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], rows))


def write_text(path: str, text: str):
    _atomic_write(path, [text])


def metadata_path(artifact_path: str) -> str:
    stem, _ = os.path.splitext(artifact_path)
    return stem + ".meta.json"


def write_metadata(artifact_path: str, scenario: str, parameters: dict,
                   seed=None, generator=None, extra: dict | None = None):
    meta = {
        "scenario": scenario,
        "parameters": parameters,
        "seed": seed,
        "generator": generator,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        meta.update(extra)
    _atomic_write(metadata_path(artifact_path), [json.dumps(meta, indent=2, sort_keys=True) + "\n"])
