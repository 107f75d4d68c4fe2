"""The process entry of ``python -m balloonlink`` and the ``balloonlink`` script.

``run`` is the only code that knows it owns the whole process: ``cli.main``
stays free of process-level side effects, so tests and library callers can
run it in-process.
"""

import gc

from .cli import main


def run() -> int:
    """Run the CLI on sys.argv and return its exit code.

    On the way out, including argparse's SystemExit for help, version and
    usage errors, every live object is moved to the collector's permanent
    generation. The collections at interpreter shutdown skip that
    generation, so the process no longer pays a pass over every object it
    imported; atexit handlers and the flush of the std streams still run.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
