"""One ordered, bounded process map for runs and trajectory export.

``process_map(workers)`` is a context manager that yields a ``map``-like
function. With one worker it is the builtin ``map``, run in process as
its results are consumed. With more it submits calls to a process pool,
at most two per worker ahead of the caller, and yields the results in
input order, so a long stream of items never holds more than that many
results in memory. The pool is shut down on leaving the block, also
when the block raises; calls not yet started are cancelled.

On Linux the workers are forked, whatever the interpreter's default
start method (``forkserver`` from Python 3.14): a worker that started
a fresh interpreter would import numpy and the package first, about
0.5 s on a 2-vCPU x86-64 host, most of what pooling example2's export
saves. A forking pool starts all its workers before its own manager
thread, so they copy a process running only the caller's thread and
native library threads. Elsewhere the platform's default method is
used. Under any method a worker exits once its caller has died.

A ``SharedMatrix`` is a float matrix in an anonymous shared mapping.
Made before a forking pool's first task, it is inherited by every
worker: a worker writes a run's states into the caller's memory, and
only the run's small results travel back by pickle. Workers started
any other way cannot reach it, so ``sharing_workers`` runs such work
in process there.
"""

from __future__ import annotations

import itertools
import mmap
import os
import sys
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from functools import partial

import numpy as np

__all__ = ["SharedMatrix", "process_map", "sharing_workers", "usable_cpus"]

# the pool's start method; None is the platform's default
_START_METHOD = "fork" if sys.platform.startswith("linux") else None


def usable_cpus():
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sharing_workers(wanted):
    """Workers for tasks that write into a ``SharedMatrix``: ``wanted``
    where the pool forks them, else 1 (in process)."""
    return wanted if _START_METHOD == "fork" else 1


# SharedMatrix arrays by key, as long as their handle lives in the
# process that made them; a forked worker holds a copy of the table
_shared = {}
_keys = itertools.count()


class SharedMatrix:
    """A rows x cols float matrix in an anonymous shared mapping.

    ``array`` is the matrix, zero until written. A handle pickled into a
    pool task travels as its key, and a worker forked after the handle
    was made resolves the key to the same memory, so what the worker
    writes there the caller reads, and nothing is copied.
    """

    def __init__(self, rows, cols):
        buf = mmap.mmap(-1, max(rows * cols * 8, 1))
        self.array = np.frombuffer(buf, dtype=float, count=rows * cols).reshape(rows, cols)
        self._key = next(_keys)
        _shared[self._key] = self.array
        weakref.finalize(self, _shared.pop, self._key, None)

    def __reduce__(self):
        return _inherited, (self._key,)


def _inherited(key):
    handle = SharedMatrix.__new__(SharedMatrix)
    handle._key = key
    try:
        handle.array = _shared[key]
    except KeyError:
        raise RuntimeError(
            "a SharedMatrix reaches only pool workers forked after it was made"
        ) from None
    return handle


def _exit_with_caller():
    """Pool initializer: end this worker once the process that made the
    pool has died.

    A worker waits on its task queue, which it holds open itself, so a
    caller killed by a signal would otherwise leave it waiting forever.
    A forked or spawned worker sees its parent change at once. A fork
    server's worker has the server as its parent, and the server lives
    as long as its workers, so it checks the caller's sentinel instead;
    that alone would not do under fork, where a sibling forked later
    holds the sentinel open.
    """
    import multiprocessing

    parent = os.getppid()
    caller = multiprocessing.parent_process()

    def watch():
        while os.getppid() == parent and caller.is_alive():
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _bounded_map(pool, ahead, fn, items):
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
    if workers <= 1:
        yield map
        return
    # imported here: the multiprocessing machinery costs a command that
    # never starts a pool about 0.5 MB of peak RSS and some start-up time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_exit_with_caller,
    )
    try:
        yield partial(_bounded_map, pool, 2 * workers)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
