import pytest

from fockfield import artifacts


def test_atomic_write_leaves_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        artifacts.write_text(str(tmp_path / "out" / "wick.txt"), "a+(x)\n")
    assert list((tmp_path / "out").iterdir()) == []
