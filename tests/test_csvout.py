"""CSV emission: converted columns and row templates print fmt's bytes, and
write_csv creates its file exclusively and removes it on a failed write.

Replacing an old file set atomically is cli._replace_all's job and is
tested in test_cli.py.
"""

from itertools import product

import pytest

from balloonlink.csvout import float_column, fmt, row_template, write_csv

# signed zeros, the smallest subnormal and normal, the largest float, and a
# value whose 6 significant digits round up a decade (1.00000e-04)
EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 9.999995e-05)


@pytest.mark.parametrize(
    "pairs",
    [list(product(EDGE_FLOATS, repeat=2)), [(-0.0, 9.999995e-05)]],
    ids=["every-pair", "one-row"],
)
def test_row_template_filled_is_fmt_row_for_row(pairs):
    xs, vs = (tuple(column) for column in zip(*pairs))
    assert float_column(xs).split("\n") == [fmt(x) for x in xs]
    rows = (row_template(float_column(xs), "W/m2") % vs).split("\n")
    assert rows == [f"{fmt(x)},{fmt(v)},W/m2" for x, v in pairs]


def test_write_creates_the_file_with_lf_lines(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, "a,b\n1,2\n")
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
        write_csv(path, "a,b\n")
    assert path.is_symlink() == link
    assert path.read_bytes() == target.read_bytes() == b"old,bytes\n"


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, "x\n\ud800\n")  # a lone surrogate cannot be encoded
    assert list(tmp_path.iterdir()) == []
