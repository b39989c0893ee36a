"""Trajectory diagnostics: error metrics, case runs, sweeps, reports.

This module answers the questions a simulation run raises. Did the
agents actually synchronize, and when? Does the same controller keep
working when the loop gain is scaled, or when the network is swapped
for a bigger one? Reports are plain data and round-trip through a JSON
summary so downstream tooling never has to re-run a simulation to read
the verdict.
"""

from __future__ import annotations

import errno
import json
import math
import os
import shutil
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from . import simulation
from .errors import ValidationError
from .gains import GainCheck, GainReport
from .graphs import _require_dense_fit, generate_graph
from .parallel import SharedMatrix, process_map, usable_cpus
from .protocols import build_protocol
from .simulation import _EXPORT_ROWS, ClosedLoop, TrajectoryRecord, export_trajectory

__all__ = [
    "SyncReport",
    "RunRecord",
    "sync_metrics",
    "run_case",
    "run_cases",
    "rho_cases",
    "size_cases",
    "staged",
    "export_report",
    "parse_report",
]


@dataclass(eq=False)
class SyncReport:
    """Per-sample synchronization errors plus the terminal-window verdict.

    ``max_error[k]`` is the worst agent-to-reference distance at sample
    k, ``pairwise_error[k]`` the worst agent-to-agent distance; the
    triangle inequality keeps the latter within twice the former.
    ``converged`` means ``max_error`` stayed strictly below ``tol`` for
    the entire final ``window`` seconds, and ``convergence_time`` is the
    first sample of the maximal all-below suffix (None when not
    converged).
    """

    times: np.ndarray
    max_error: np.ndarray
    pairwise_error: np.ndarray
    converged: bool
    convergence_time: float | None
    tol: float
    window: float

    def __eq__(self, other):
        if not isinstance(other, SyncReport):
            return NotImplemented
        if (self.convergence_time is None) != (other.convergence_time is None):
            return False
        if self.convergence_time is not None and self.convergence_time != other.convergence_time:
            return False
        return (
            self.converged == other.converged
            and self.tol == other.tol
            and self.window == other.window
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.max_error, other.max_error)
            and np.array_equal(self.pairwise_error, other.pairwise_error)
        )

    def verdict(self):
        """The verdict as a run's summary entry and its manifest result
        write it, in their key order."""
        return {
            "converged": self.converged,
            "convergence_time": self.convergence_time,
            "final_max_error": float(self.max_error[-1]),
        }


# time steps sync_metrics scores at a time (see _block_errors)
_SCORE_ROWS = 512


def _block_errors(x_r, x):
    """The ``max_error`` and ``pairwise_error`` of some time steps.

    ``x_r`` is their reference states [time, component], ``x`` their
    agent states [time, agent, component]. Each row's errors depend on
    that row alone, so a record scored block by block gives the same
    bits as scored whole, and its temporaries are O(block).
    """
    deviation = x - x_r[:, None, :]
    max_error = np.linalg.norm(deviation, axis=-1).max(axis=1)
    pairwise = np.zeros_like(max_error)
    for i in range(x.shape[1] - 1):
        gaps = np.linalg.norm(x[:, i:i + 1, :] - x[:, i + 1:, :], axis=-1)
        np.maximum(pairwise, gaps.max(axis=1), out=pairwise)
    return max_error, pairwise


def sync_metrics(traj):
    """Score a trajectory against its scenario's tolerance and window.

    Parameters
    ----------
    traj : TrajectoryRecord
        Recorded closed-loop run, scored by its ``scenario``: ``tol`` is
        the error level that counts as synchronized, and ``window`` the
        length (seconds) of the terminal band that must sit strictly
        below it for the run to count as converged.

    Returns
    -------
    SyncReport
    """
    # a copy: the record's times are a column of its whole state matrix
    times = np.array(traj.times, dtype=float)
    if times.size == 0:
        raise ValidationError("trajectory is empty")
    tol, window = float(traj.scenario.tol), float(traj.scenario.window)

    # scored _SCORE_ROWS time steps at a time: the temporaries are a few
    # blocks of rows x N x n, not the whole record's. A last block of one
    # row joins the one before: where the components are not a record's
    # fastest axis (a Fortran-ordered matrix), numpy sums a lone row's
    # norm in another order than the same row among others
    x, x_r = traj.x, traj.x_r
    T = times.size
    max_error, pairwise = np.empty(T), np.empty(T)
    edges = [*range(0, max(T - 1, 1), _SCORE_ROWS), T]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        max_error[rows], pairwise[rows] = _block_errors(x_r[rows], x[rows])

    below = max_error < tol
    in_band = times >= times[-1] - window - 1e-12
    converged = bool(below[in_band].all())
    convergence_time = None
    if converged:
        above = np.nonzero(~below)[0]
        first = 0 if above.size == 0 else int(above[-1]) + 1
        convergence_time = float(times[first])
    return SyncReport(
        times=times,
        max_error=max_error,
        pairwise_error=pairwise,
        converged=converged,
        convergence_time=convergence_time,
        tol=tol,
        window=window,
    )


def run_case(case, states=None):
    """Run one case: simulate and score it; carry its record and gain audit.

    ``case`` is a Scenario or the ClosedLoop assembled from one; the
    states are recorded into ``states`` when it is given (a matrix of
    the scenario's ``record_shape``), which the record then views. The
    verdict uses the scenario's own tolerance and window; the gain audit
    is its realization's ``gain_report``.
    """
    # assemble and integrate are looked up on their module at call time,
    # so that a replacement installed there (a test's, a profiler's)
    # takes part in every run
    loop = case if isinstance(case, ClosedLoop) else simulation.assemble(case)
    record = simulation.integrate(loop, states)
    scenario = loop.scenario
    return RunRecord(
        name=scenario.name,
        report=sync_metrics(record),
        gain_report=scenario.protocol.gain_report,
        trajectory=record,
    )


def _assembled(case):
    loop = simulation.assemble(case)
    return loop, SharedMatrix(*loop.scenario.record_shape)


def _run_assembled(item):
    loop, states = item
    # the record stays behind: the caller views the same shared states
    return replace(run_case(loop, states.array), trajectory=None)


def _case_workers(rows):
    """Workers for one pool that runs cases and exports their ``rows``
    CSV rows: one per usable CPU, no more than the CSVs have blocks."""
    return min(usable_cpus(), -(-rows // _EXPORT_ROWS))


@contextmanager
def run_cases(cases):
    """Run case scenarios in one pool; yield the (case, RunRecord) pairs.

    Each case is built (read from ``cases``) and assembled in this
    process, one after another, and its states get a ``SharedMatrix``
    made here. Then one ``parallel.process_map`` pool opens, of a worker
    per usable CPU but no more than the cases' CSVs have export blocks,
    and the block receives an iterator of the pairs, in order, each as
    soon as its run has finished. A run (``run_case``) sends back only
    its verdict and gain audit; its record holds the matrix, which this
    process does not read. While the block is open, a record exports
    (``export_trajectory``) through the pool, whose workers inherited
    the matrix, as row ranges of it (see ``simulation._time_blocks``);
    after it closes, in process. Leaving the block shuts the pool down
    (see ``process_map``).
    """
    items = [_assembled(case) for case in cases]
    rows = sum(loop.scenario.recorded_steps * loop.scenario.graph.n for loop, _ in items)
    with process_map(_case_workers(rows)) as pmap:
        for _, states in items:
            states.pmap = pmap
        try:
            runs = pmap(_run_assembled, items)
            yield (_recorded(item, run) for item, run in zip(items, runs))
        finally:
            for _, states in items:
                states.pmap = map


def _recorded(item, run):
    loop, states = item
    # the record holds the handle, so that its export blocks reach the
    # workers as row ranges of the shared matrix
    return loop.scenario, replace(run, trajectory=TrajectoryRecord(states, loop.scenario))


def _rho_name(scenario, rho):
    return f"{scenario.name}-rho{rho:g}"


def _size_name(scenario, size):
    return f"{scenario.name}-n{size}"


def _require_distinct_names(scenario, label, values, name):
    """Reject a case list in which two values would name runs that write
    the same file (see ``_file_name``)."""
    seen = {}
    for value in values:
        file_name = _file_name(name(scenario, value))
        if file_name in seen:
            raise ValidationError(
                f"{label} {seen[file_name]!r} and {value!r} would both write {file_name}"
            )
        seen[file_name] = value


def _rho_case(scenario, rho):
    protocol = scenario.protocol
    gains = replace(protocol.gains, rho=rho)
    return replace(
        scenario,
        name=_rho_name(scenario, rho),
        protocol=build_protocol(protocol.kind, scenario.model, gains),
    )


def _size_case(scenario, index, size):
    model, protocol = scenario.model, scenario.protocol
    seed = scenario.seed or 0
    realization = build_protocol(protocol.kind, model, protocol.gains)
    graph = generate_graph("random", size, roots=[1], seed=seed + index)
    rng = np.random.default_rng([seed, index, 1])
    return replace(
        scenario,
        name=_size_name(scenario, size),
        graph=graph,
        protocol=realization,
        x_r0=np.zeros(model.n),
        x0=rng.uniform(-1.0, 1.0, size=(size, model.n)),
        controller0=None,
    )


def rho_cases(scenario, rhos):
    """One scenario's cases across loop gains, for ``run_cases``.

    Every other ingredient -- graph, initial conditions, step size -- is
    held fixed; only the scalar gain changes, which re-synthesizes the
    realization per case (named ``<name>-rho<rho>``, ``rho`` printed
    with ``%g``; gains whose cases would write one CSV file, such as
    gains that print alike, are rejected). The gains are checked at
    once; the returned generator builds each case as it is read, in the
    input order.
    """
    rhos = [float(r) for r in rhos]
    for r in rhos:
        if not 0.0 < r < math.inf:
            raise ValidationError(f"rho must be positive and finite, got {r:g}")
    _require_distinct_names(scenario, "rho values", rhos, _rho_name)
    return (_rho_case(scenario, rho) for rho in rhos)


def size_cases(scenario, sizes):
    """One scenario's cases over random networks of growing size, for
    ``run_cases``.

    Case ``index`` (named ``<name>-n<size>``) gets a random graph rooted
    at node 1, seeded ``seed + index``, and initial states drawn
    uniformly in [-1, 1] from ``default_rng([seed, index, 1])``, where
    ``seed`` is the scenario's (0 when unset); the reference starts at
    zero and the controllers at rest. Step size, horizon, thinning and
    the verdict's tolerance and window come from the scenario. The
    realization is rebuilt per case from the same model and gains, which
    makes the build determinism checkable: the controller matrices must
    come out bit-identical for every size. The sizes are checked at
    once: each a whole number >= 1 whose graph fits in memory and whose
    case writes a CSV file no other size's writes. The returned
    generator builds each case as it is read, in the input order.
    """
    for n in sizes:
        if not (n % 1 == 0 and n >= 1):
            raise ValidationError(f"network size must be a whole number >= 1, got {n}")
    sizes = [int(n) for n in sizes]
    for n in sizes:
        _require_dense_fit(n, None)
    _require_distinct_names(scenario, "network sizes", sizes, _size_name)
    return (_size_case(scenario, i, n) for i, n in enumerate(sizes))


@dataclass(eq=False)
class RunRecord:
    """One named run bundled for export: verdict, gain audit, trajectory."""

    name: str
    report: SyncReport
    gain_report: GainReport | None = None
    trajectory: TrajectoryRecord | None = None

    def __eq__(self, other):
        # trajectory content lives in its own file; equality covers the summary
        if not isinstance(other, RunRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.report == other.report
            and self.gain_report == other.gain_report
        )


def _file_name(name):
    """The CSV file name of run ``name``: the name made file-safe."""
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in name)
    return (safe or "run") + ".csv"


def _claim_file(claimed, name):
    """The CSV file name of run ``name``, entered in ``claimed`` (file
    name -> run name); a run that an earlier one would overwrite, having
    the same name or one that makes the same file name, is rejected."""
    file_name = _file_name(name)
    if file_name in claimed:
        raise ValidationError(
            f"runs {claimed[file_name]!r} and {name!r} would both write {file_name}"
        )
    claimed[file_name] = name
    return file_name


def _summary_entry(record):
    report = record.report
    return {
        "name": record.name,
        "tolerance": report.tol,
        "window": report.window,
        **report.verdict(),
        "final_pairwise_error": float(report.pairwise_error[-1]),
        "times": [float(v) for v in report.times],
        "max_error": [float(v) for v in report.max_error],
        "pairwise_error": [float(v) for v in report.pairwise_error],
        "gain_checks": None if record.gain_report is None else record.gain_report.as_dicts(),
        "trajectory_file": None,
    }


@contextmanager
def staged(path):
    """Write the files of directory ``path`` all at once.

    Yields a hidden staging directory made inside ``path`` (``path`` is
    created if missing). Every file written there is moved into
    ``path`` when the block ends, and only then: a block that raises,
    or a target that is a directory, moves nothing, removes the staging
    directory and leaves ``path`` as it was (absent if it was absent).
    """
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".export-", dir=path)
    try:
        yield staging
        names = sorted(os.listdir(staging))
        # a file cannot replace a directory; find that before the first
        # move, so that a failure moves nothing
        for target in (os.path.join(path, name) for name in names):
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(path, name))
    except BaseException:
        shutil.rmtree(staging)
        if made:
            with suppress(OSError):  # not empty: something else was written there
                os.rmdir(path)
        raise
    os.rmdir(staging)


def export_report(records, path):
    """Write a machine-readable summary plus per-run trajectory files.

    ``path`` is a directory (created if missing). The summary lands in
    ``summary.json``; every record carrying a trajectory additionally
    writes ``<name>.csv`` next to it, the name made file-safe. Returns
    the written paths, summary first. Floats survive the JSON round
    trip exactly.

    ``records`` is a sequence of RunRecord, or an iterable yielding them
    as their runs finish; each record's CSV is written when it arrives
    (``export_trajectory``: through the pool of the ``run_cases`` block
    it comes from, while that is open). A run that would write the same
    file as an earlier one is rejected when it arrives. The files are
    written through ``staged``, so an export that fails, a run in
    ``records`` raising included, leaves ``path`` as it was.
    """
    claimed = {}
    runs = []
    with staged(path) as staging:
        for record in records:
            file_name = _claim_file(claimed, record.name)
            entry = _summary_entry(record)
            if record.trajectory is not None:
                export_trajectory(record.trajectory, os.path.join(staging, file_name))
                entry["trajectory_file"] = file_name
            runs.append(entry)
        doc = {"format": "satsync-report", "version": 1, "runs": runs}
        with open(os.path.join(staging, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    written = ["summary.json"] + [e["trajectory_file"] for e in runs if e["trajectory_file"]]
    return [os.path.join(path, name) for name in written]


def _read_run(entry):
    """One summary run entry as a RunRecord, without its trajectory."""
    report = SyncReport(
        times=np.asarray(entry["times"], dtype=float),
        max_error=np.asarray(entry["max_error"], dtype=float),
        pairwise_error=np.asarray(entry["pairwise_error"], dtype=float),
        converged=bool(entry["converged"]),
        convergence_time=entry["convergence_time"],
        tol=float(entry["tolerance"]),
        window=float(entry["window"]),
    )
    gain_report = None
    if entry.get("gain_checks") is not None:
        gain_report = GainReport(
            tuple(
                GainCheck(
                    name=check["name"],
                    passed=bool(check["passed"]),
                    margin=float(check["margin"]),
                    detail=check["detail"],
                )
                for check in entry["gain_checks"]
            )
        )
    return RunRecord(name=entry["name"], report=report, gain_report=gain_report)


def parse_report(path):
    """Read back an exported summary; trajectories stay on disk.

    ``path`` may be the summary file itself or the directory holding it.
    Returns the list of RunRecord (without trajectories) in file order.
    """
    summary_path = path
    if not str(path).endswith(".json"):
        summary_path = os.path.join(path, "summary.json")
    with open(summary_path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{summary_path}: invalid summary: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "satsync-report":
        raise ValidationError(f"{summary_path}: not a report summary")
    runs = doc.get("runs", [])
    if not isinstance(runs, list):
        raise ValidationError(f"{summary_path}: runs: expected a list, got {type(runs).__name__}")
    records = []
    for k, entry in enumerate(runs):
        try:
            records.append(_read_run(entry))
        except KeyError as exc:
            raise ValidationError(f"{summary_path}: runs[{k}]: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{summary_path}: runs[{k}]: malformed run: {exc}") from None
    return records
