"""CSV emission: write_csv creates its file exclusively and removes it on a failed write.

Replacing an old file set atomically is cli._replace_all's job and is
tested in test_cli.py.
"""

import pytest

from balloonlink.csvout import write_csv


def test_write_creates_the_file_with_lf_lines(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a,b", "1,2"])
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("link", [False, True], ids=["file", "symlink"])
def test_existing_path_is_refused_and_kept(tmp_path, link):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old,bytes\n")
    path = tmp_path / "out.csv"
    if link:
        path.symlink_to(target)
    else:
        path.write_bytes(b"old,bytes\n")
    with pytest.raises(FileExistsError):
        write_csv(path, ["a,b"])
    assert path.is_symlink() == link
    assert path.read_bytes() == target.read_bytes() == b"old,bytes\n"


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, ["x", "\ud800"])  # a lone surrogate cannot be encoded
    assert list(tmp_path.iterdir()) == []
