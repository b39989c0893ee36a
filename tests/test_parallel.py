"""The ordered, bounded process map each command runs and exports through."""

import ast
import operator
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import satsync
from satsync import parallel
from satsync.parallel import SharedMatrix, process_map

from procs import running


def test_process_map_keeps_order_and_bounds_work_in_flight():
    pulled = []

    def items():
        for k in range(40):
            pulled.append(k)
            yield k

    with process_map(2) as pmap:
        results = pmap(operator.neg, items())
        first = next(results)
        # two workers keep at most four calls ahead of the caller
        assert len(pulled) <= 5
        assert [first, *results] == [-k for k in range(40)]


@pytest.mark.needs_fork
def test_process_map_keeps_its_workers_while_the_caller_lives():
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


def _fill_rows_with_pid(item):
    matrix, rows = item
    matrix[rows].fill(os.getpid())


@pytest.mark.needs_fork
def test_rows_of_a_shared_matrix_reach_a_worker_in_place():
    # a SharedMatrix slices like its array; with a row range it travels
    # as its key and the range, whatever the rows' number, and the worker
    # writes them in the caller's memory
    shared = SharedMatrix(250, 3)
    assert np.shares_memory(shared[10:20], shared.array)
    assert np.array_equal(shared[10:20], shared.array[10:20])
    ranges = [(shared, slice(10, 20)), (shared, slice(20, 250))]
    sizes = [len(pickle.dumps(item)) for item in ranges]
    assert sizes[0] == sizes[1]
    with process_map(2) as pmap:
        list(pmap(_fill_rows_with_pid, ranges))
    assert (shared.array[:10] == 0).all() and (shared.array[10:] != 0).all()


def test_only_parallel_reads_a_shared_matrix_array():
    # a record's states slice alike whether they are shared or not: a
    # module that read .array would need to know which
    package_dir = os.path.dirname(satsync.__file__)
    found = []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py") or name == "parallel.py":
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "array"
                and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, f".array read outside parallel.py: {found}"


def test_shared_matrix_leaves_the_table_with_its_handle():
    handle = SharedMatrix(2, 3)
    key, row = handle._key, handle.array[1]
    assert parallel._shared[key] is handle.array
    del handle
    assert key not in parallel._shared
    row[:] = 1.0  # a view still holds the memory
    assert row.tolist() == [1.0, 1.0, 1.0]


CALLER = """
import multiprocessing, time
from satsync.parallel import process_map
with process_map(2) as pmap:
    list(pmap(abs, range(4)))
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(120)
"""


@pytest.mark.needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_their_caller_is_killed():
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen([sys.executable, "-c", CALLER], env=env, stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in caller.stdout.readline().split()]
    finally:
        caller.kill()
        caller.wait(timeout=30)
        caller.stdout.close()
    assert len(workers) == 2 and all(running(pid) for pid in workers)
    deadline = time.monotonic() + 10.0
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


IDLE_WORKERS = """
import multiprocessing, signal, time
from satsync.parallel import process_map
with process_map(2) as pmap:
    list(pmap(abs, range(4)))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # forked before this
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(120)
"""


@pytest.mark.needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_idle_workers_leave_a_group_sigint_to_their_caller():
    # Ctrl-C reaches every process of the group; a worker waiting for its
    # next task would otherwise die of it with a traceback
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen(
        [sys.executable, "-c", IDLE_WORKERS], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        workers = [int(pid) for pid in caller.stdout.readline().split()]
        os.killpg(caller.pid, signal.SIGINT)
        time.sleep(1.0)
        alive = [running(pid) for pid in workers]
    finally:
        caller.kill()
        caller.wait(timeout=30)
        stderr = caller.stderr.read()
        caller.stdout.close()
        caller.stderr.close()
    assert len(workers) == 2 and all(alive)
    assert "Traceback" not in stderr
    deadline = time.monotonic() + 10.0
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _loads_package_or_numpy(stmt):
    """Whether a statement imports numpy or a satsync module anywhere in it."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] in ("numpy", "satsync")
        ):
            return True
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] in ("numpy", "satsync") for alias in node.names
        ):
            return True
    return False


def test_package_pins_blas_threads_before_it_loads_numpy(monkeypatch):
    # the statements of satsync/__init__.py before its first import of
    # numpy or of a satsync module, run alone, set all four variables to 1
    with open(satsync.__file__, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    first = next(i for i, stmt in enumerate(body) if _loads_package_or_numpy(stmt))
    environ = dict.fromkeys(BLAS_VARS, "4")
    monkeypatch.setattr(os, "environ", environ)
    exec(compile(ast.Module(body[:first], type_ignores=[]), satsync.__file__, "exec"), {})
    assert environ == dict.fromkeys(BLAS_VARS, "1")


THREADS = """
import os
import satsync
import numpy as np
from satsync.parallel import process_map

def threads(_):
    a = np.ones((300, 300))
    a @ a
    return len(os.listdir("/proc/self/task"))

print(threads(None), flush=True)
with process_map(2) as pmap:
    print(*pmap(threads, [0]), flush=True)
"""


@pytest.mark.needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="counts threads in /proc")
def test_caller_and_workers_run_one_blas_thread():
    # asked for 4 BLAS threads, the caller runs only its own thread, and
    # a worker only its own and the one that watches for its caller's death
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        **dict.fromkeys(BLAS_VARS, "4"),
    )
    out = subprocess.run(
        [sys.executable, "-c", THREADS], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    ).stdout.split()
    assert out == ["1", "2"]
