import atexit
import gc
import sys

from .cli import main


def run() -> int:
    """``cli.main`` with the heap frozen at exit.

    ``python -m nodalcount`` and the installed ``nodalcount`` script both
    call this.  The process ends right after ``main`` and the OS frees its
    memory, so the collections that finalization runs over every object the
    command made are wasted; ``gc.freeze`` moves the heap to the permanent
    generation, which they skip.  Registered before ``main`` runs, it covers
    every exit: a return, argparse's usage error and a refusal.

    Freezing skips only the collection of cyclic garbage at exit: the
    package defines no ``__del__``, and ``--output`` closes its file in a
    ``with`` block before ``main`` returns.  The streams are still flushed
    and other atexit handlers still run.  ``cli.main`` does not freeze, so
    in-process callers keep a collectable heap.
    """
    atexit.register(gc.freeze)
    return main()


if __name__ == "__main__":
    sys.exit(run())
