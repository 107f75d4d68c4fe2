"""The process entry of ``python -m balloonlink`` and the ``balloonlink`` script.

``run`` is the only code that knows it owns the whole process: it passes
``sys.argv[1:]`` to ``cli.main``, turns SIGINT and SIGTERM into a rolled
back run, repairs a dead stdout and freezes the heap. ``cli.main`` touches
no process state but a signal mask it restores, so tests and library
callers can run it in-process.
"""

import _signal  # the C half of signal, which imports enum
import gc
import os
import sys

from .cli import _report, main

_STOPPING = (_signal.SIGINT, _signal.SIGTERM)


def _stop(signum, frame):
    # the first signal stops the run; later ones cannot cut its rollback short
    for handled in _STOPPING:
        _signal.signal(handled, _signal.SIG_IGN)
    raise KeyboardInterrupt(signum)


def run() -> int:
    """Run the CLI on sys.argv and return its exit code.

    While main runs, SIGINT and SIGTERM raise KeyboardInterrupt, so a run
    they stop rolls back its files as on any other failure. Over the renames
    that put a file set in place, cli holds both signals, so one that arrives
    then stops the run only once the whole set is in place. A signal that is
    ignored, or has a handler of its own, is left as it is. The stopped run
    then writes one stderr line and dies by the same signal, so its parent
    sees the status the signal's default action gives. A run that is not
    stopped puts the handlers back on its way out.

    On the way out, including argparse's SystemExit for help, version and
    usage errors, stdout is flushed once more. Only a stdout that main has
    already reported as dead fails that flush; its descriptor is then
    pointed at os.devnull, so the flush at interpreter exit cannot fail
    again. Then every live object is moved to the collector's permanent
    generation. The collections at interpreter shutdown skip that
    generation, so the process no longer pays a pass over every object it
    imported; atexit handlers and the flush of the std streams still run.
    """
    handlers = {}  # signal -> the handler _stop replaced
    for signum in _STOPPING:
        if _signal.getsignal(signum) in (_signal.SIG_DFL, _signal.default_int_handler):
            handlers[signum] = _signal.signal(signum, _stop)
    try:
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
    except KeyboardInterrupt as stop:
        signum = stop.args[0] if stop.args else _signal.SIGINT
        _report(f"stopped by signal {signum} ({_signal.strsignal(signum)})")
        _signal.signal(signum, _signal.SIG_DFL)
        _signal.raise_signal(signum)
        return 128 + signum  # the signal is blocked: exit as a shell reports it
    finally:
        for signum, handler in handlers.items():
            _signal.signal(signum, handler)


if __name__ == "__main__":
    raise SystemExit(run())
