"""Deterministic CSV and metadata emission.

Every CSV declares its column schema in the first row, floats are printed
with 17 significant digits so regression diffs are byte-stable, complex
values are split into re/im columns by the caller, and files are written
atomically (temp file + rename) with the mode the umask gives a new file.
Metadata sidecars carry the exact parameters, seed, generator name, and
tool version next to each artifact; the timestamp field is the only entry
excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

from . import __version__


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    # O_EXCL as in mkstemp, but mode 0o666 minus the umask, as open(path, "w") gives (mkstemp gives 0o600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_text(path: str, text: str):
    _atomic_write(path, text)


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
    _atomic_write(metadata_path(artifact_path), json.dumps(meta, indent=2, sort_keys=True) + "\n")
