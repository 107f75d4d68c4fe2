"""Deterministic CSV emission.

All float values are printed in lowercase scientific notation with six
significant digits and files end every line with LF, so repeated runs of
the same configuration produce byte-identical output.
"""

from __future__ import annotations

import os
from pathlib import Path

# The format spec of every float written: fmt's, and %-style in cli's row templates.
_FLOAT_SPEC = ".5e"


def fmt(value: float) -> str:
    """Format a float (or an int) as lowercase scientific with 6 significant digits."""
    return format(value, _FLOAT_SPEC)


def render(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def write_csv(path: Path, lines: list[str]) -> None:
    """Replace path atomically: a write that fails leaves the old file as it was.

    The text goes to a temporary file in the same directory, which is then
    renamed onto path, or removed if anything fails before the rename.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    file = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        with file:
            file.write(render(lines))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
