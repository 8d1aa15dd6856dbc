import os
import stat

import pytest

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
    assert artifacts.format_value(value) == text
