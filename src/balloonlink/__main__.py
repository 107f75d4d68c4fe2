"""The process entry of ``python -m balloonlink`` and the ``balloonlink`` script.

``run`` is the only code that knows it owns the whole process: it passes
``sys.argv[1:]`` to ``cli.main``, repairs a dead stdout and freezes the
heap. ``cli.main`` touches no process state, so tests and library callers
can run it in-process.
"""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run the CLI on sys.argv and return its exit code.

    On the way out, including argparse's SystemExit for help, version and
    usage errors, stdout is flushed once more. Only a stdout that main has
    already reported as dead fails that flush; its descriptor is then
    pointed at os.devnull, so the flush at interpreter exit cannot fail
    again. Then every live object is moved to the collector's permanent
    generation. The collections at interpreter shutdown skip that
    generation, so the process no longer pays a pass over every object it
    imported; atexit handlers and the flush of the std streams still run.
    """
    try:
        return main(sys.argv[1:])
    finally:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
