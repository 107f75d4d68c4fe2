"""Deterministic CSV emission.

All float values are printed in lowercase scientific notation with six
significant digits and files end every line with LF, so repeated runs of
the same configuration produce byte-identical output.
"""

import os

# The format spec of every float written: fmt's, and %-style in the column and row templates.
_FLOAT_SPEC = ".5e"


def fmt(value: float) -> str:
    """Format a float (or an int) as lowercase scientific with 6 significant digits."""
    return format(value, _FLOAT_SPEC)


def float_column(values: tuple[float, ...]) -> str:
    """The values formatted as fmt formats them, one a line, with no trailing LF.

    A %-conversion with fmt's spec is the same C conversion as fmt, so the
    bytes are fmt's.
    """
    return (f"%{_FLOAT_SPEC}\n" * len(values))[:-1] % values


def row_template(abscissa_column: str, unit: str) -> str:
    """The rows of a series over a converted abscissa column, values left to fill.

    ``row_template(float_column(xs), unit) % values`` gives the rows
    ``f"{fmt(x)},{fmt(v)},{unit}"``, joined by LF with no trailing LF, since
    ``cli.render`` joins the lines with LF. The column is at least one line, as
    every SweepSeries has a point, and unit holds no "%".
    """
    row_end = f",%{_FLOAT_SPEC},{unit}"
    return abscissa_column.replace("\n", row_end + "\n") + row_end


def write_csv(path: str | os.PathLike, text: str) -> None:
    """Create path and write text to it.

    The create is exclusive: a file or symlink already at path is refused
    (FileExistsError) and left as it was. A write that fails removes path.
    """
    file = open(path, "x", encoding="utf-8", newline="\n")
    try:
        with file:
            file.write(text)
    except BaseException:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        raise
