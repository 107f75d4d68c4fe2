"""Deterministic CSV emission.

All float values are printed in lowercase scientific notation with six
significant digits and files end every line with LF, so repeated runs of
the same configuration produce byte-identical output.
"""

from __future__ import annotations

from pathlib import Path

# The format spec of every float written: fmt's, and %-style in cli's row templates.
_FLOAT_SPEC = ".5e"


def fmt(value: float) -> str:
    """Format a float (or an int) as lowercase scientific with 6 significant digits."""
    return format(value, _FLOAT_SPEC)


def render(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def write_csv(path: Path, lines: list[str]) -> None:
    """Create path and write the rendered lines to it.

    The create is exclusive: a file or symlink already at path is refused
    (FileExistsError) and left as it was. A write that fails removes path.
    """
    file = open(path, "x", encoding="utf-8", newline="\n")
    try:
        with file:
            file.write(render(lines))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
