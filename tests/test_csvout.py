"""CSV emission: atomic file replacement."""

import pytest

from balloonlink.csvout import write_csv


def test_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    write_csv(path, ["a,b", "1,2"])
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, ["x", "\ud800"])  # a lone surrogate cannot be encoded
    assert path.read_bytes() == b"old,bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
