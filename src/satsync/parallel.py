"""One ordered, bounded process map for runs and trajectory export.

``process_map(workers)`` is a context manager that yields a ``map``-like
function. With one worker, or where workers cannot be forked (anywhere
but Linux), it is the builtin ``map``, run in process as its results are
consumed. Otherwise it submits calls to a pool of forked processes, at
most two per worker ahead of the caller, and yields the results in
input order, so a long stream of items never holds more than that many
results in memory. The pool is shut down on leaving the block, also
when the block raises; calls not yet started are cancelled. An error
waits for the calls already running; an interrupt (``KeyboardInterrupt``
or another exception that is not an ``Exception``) does not.

The workers are forked whatever the interpreter's default start method
(``forkserver`` from Python 3.14): a worker that started a fresh
interpreter would import numpy and the package first, about 0.5 s on a
2-vCPU x86-64 host, most of what pooling example2's export saves, and
could not reach a ``SharedMatrix``. A forking pool starts all its
workers before its own manager thread, so they copy a process running
only the caller's thread and native library threads. A worker exits
once its caller has died, and SIGTERM ends it whatever handler its
caller installed. A worker ignores SIGINT, which Ctrl-C sends to the
whole process group: the caller handles it, and the worker exits with
the caller.

A ``SharedMatrix`` is a float matrix in an anonymous shared mapping.
Made before a pool's first task, it is inherited by every worker: a
worker writes a run's states into the caller's memory, and only the
run's small results travel back by pickle. ``Rows`` is how some rows of
a matrix are read: a ``SharedMatrix``'s reach a worker as its key and
the row range, which the worker reads in its inherited mapping, so the
caller neither reads nor copies them.
"""

from __future__ import annotations

import itertools
import mmap
import os
import signal
import sys
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from functools import partial

import numpy as np

__all__ = ["FORKS", "Rows", "SharedMatrix", "process_map", "usable_cpus"]

# whether pool workers can be forked; elsewhere every map runs in process
FORKS = sys.platform.startswith("linux")


def usable_cpus():
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# SharedMatrix arrays by key, as long as their handle lives in the
# process that made them; a forked worker holds a copy of the table
_shared = {}
_keys = itertools.count()


class SharedMatrix:
    """A rows x cols float matrix in an anonymous shared mapping.

    ``array`` is the matrix, zero until written. A handle pickled into a
    pool task travels as its key, and a worker forked after the handle
    was made resolves the key to the same memory, so what the worker
    writes there the caller reads, and nothing is copied. ``pmap`` is
    the map through which calls read it: the builtin ``map`` (in
    process), or that of a pool whose workers were forked after it was
    made (``analysis.run_cases`` sets it while its pool is open).
    """

    def __init__(self, rows, cols):
        buf = mmap.mmap(-1, max(rows * cols * 8, 1))
        self.array = np.frombuffer(buf, dtype=float, count=rows * cols).reshape(rows, cols)
        self.pmap = map
        self._key = next(_keys)
        _shared[self._key] = self.array
        weakref.finalize(self, _shared.pop, self._key, None)

    def __reduce__(self):
        return _inherited, (self._key,)


def _inherited(key):
    handle = SharedMatrix.__new__(SharedMatrix)
    handle._key, handle.pmap = key, map
    try:
        handle.array = _shared[key]
    except KeyError:
        raise RuntimeError(
            "a SharedMatrix reaches only pool workers forked after it was made"
        ) from None
    return handle


class Rows:
    """Rows ``start:stop`` of ``matrix``, a ``SharedMatrix`` or an array.

    ``array`` is the rows, a view. Pickled into a pool task, a
    ``SharedMatrix``'s rows travel as its key and the range, a few
    hundred bytes whatever their number, and a worker forked after the
    matrix was made reads them in place.
    """

    def __init__(self, matrix, start, stop):
        self.matrix, self.start, self.stop = matrix, start, stop

    @property
    def array(self):
        m = self.matrix
        return (m.array if isinstance(m, SharedMatrix) else m)[self.start: self.stop]


def _exit_with_caller():
    """Pool initializer: end this worker once the process that made the
    pool has died, or on SIGTERM; ignore SIGINT.

    A worker waits on its task queue, which it holds open itself, so a
    caller killed by a signal would otherwise leave it waiting forever.
    A forked worker sees its parent change at once. An interrupted
    worker would print a traceback while its caller cleans up.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool_map(pool, ahead, fn, items):
    """``fn`` over ``items`` in ``pool``: results in input order, at most
    ``ahead`` calls in flight."""
    pending = deque()
    for item in items:
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


@contextmanager
def process_map(workers):
    """Yield ``pmap(fn, items)``: results in input order, ``workers`` processes."""
    if workers <= 1 or not FORKS:
        yield map
        return
    # imported here: the multiprocessing machinery costs a command that
    # never starts a pool about 0.5 MB of peak RSS and some start-up time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_caller,
    )
    try:
        yield partial(_pool_map, pool, 2 * workers)
    except BaseException as exc:
        pool.shutdown(wait=isinstance(exc, Exception), cancel_futures=True)
        raise
    pool.shutdown(wait=True, cancel_futures=True)
