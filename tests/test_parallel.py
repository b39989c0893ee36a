"""The ordered, bounded process map each command runs and exports through."""

import multiprocessing
import operator
import os
import signal
import subprocess
import sys
import time

import pytest

import satsync
from satsync import parallel
from satsync.parallel import SharedMatrix, process_map, sharing_workers

METHODS = multiprocessing.get_all_start_methods()


def test_process_map_keeps_order_and_bounds_work_in_flight(pooled_map):
    pulled = []

    def items():
        for k in range(40):
            pulled.append(k)
            yield k

    results = pooled_map(operator.neg, items())
    first = next(results)
    # two workers keep at most four calls ahead of the caller
    assert len(pulled) <= 5
    assert [first, *results] == [-k for k in range(40)]


@pytest.mark.parametrize("method", METHODS)
def test_process_map_runs_under_every_start_method(method, monkeypatch):
    # a worker's parent is the caller only under fork; under forkserver
    # it is the fork server, and the workers must still stay up
    monkeypatch.setattr(parallel, "_START_METHOD", method)
    with process_map(2) as pmap:
        assert list(pmap(operator.neg, range(8))) == [-k for k in range(8)]
        time.sleep(0.7)  # longer than one parent check
        assert list(pmap(abs, range(-3, 3))) == [3, 2, 1, 0, 1, 2]


def _fill_with_pid(handle):
    handle.array[:] = os.getpid()
    return os.getpid()


@pytest.mark.needs_fork
def test_shared_matrix_written_by_a_worker_is_read_by_its_caller():
    handles = [SharedMatrix(3, 4), SharedMatrix(1, 2), SharedMatrix(5, 1)]
    with process_map(2) as pmap:
        pids = list(pmap(_fill_with_pid, handles))
    assert os.getpid() not in pids
    for handle, pid in zip(handles, pids):
        assert handle.array.shape in {(3, 4), (1, 2), (5, 1)}
        assert (handle.array == pid).all()


def test_shared_matrix_leaves_the_table_with_its_handle(monkeypatch):
    handle = SharedMatrix(2, 3)
    key, row = handle._key, handle.array[1]
    assert parallel._shared[key] is handle.array
    del handle
    assert key not in parallel._shared
    row[:] = 1.0  # a view still holds the memory
    assert row.tolist() == [1.0, 1.0, 1.0]
    for method in METHODS:
        monkeypatch.setattr(parallel, "_START_METHOD", method)
        assert sharing_workers(4) == (4 if method == "fork" else 1)


CALLER = """
import multiprocessing, sys, time
from satsync import parallel
from satsync.parallel import SharedMatrix, process_map, sharing_workers
parallel._START_METHOD = sys.argv[1]
with process_map(2) as pmap:
    list(pmap(abs, range(4)))
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(120)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("method", METHODS)
def test_workers_exit_when_their_caller_is_killed(method):
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen([sys.executable, "-c", CALLER, method], env=env, stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in caller.stdout.readline().split()]
    finally:
        caller.kill()
        caller.wait(timeout=30)
        caller.stdout.close()
    assert len(workers) == 2 and all(_running(pid) for pid in workers)
    deadline = time.monotonic() + 10.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
