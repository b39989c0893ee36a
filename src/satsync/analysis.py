"""Trajectory diagnostics: error metrics, energy certificates, sweeps.

This module answers the questions a simulation run raises. Did the
agents actually synchronize, and when? Does the closed loop admit a
decreasing energy function along the recorded trajectory, computed from
the same matrices the synthesis produced? Does the same controller keep
working when the loop gain is scaled, or when the network is swapped
for a bigger one? Reports are plain data and round-trip through a JSON
summary so downstream tooling never has to re-run a simulation to read
the verdict.

Energy certificates exist for the two families where the function is an
explicit quadratic (plus an input potential for the chained
integrators). The mixed family is deliberately left without one: its
energy argument needs auxiliary solves on a transformed state that the
toolkit does not carry, so mixed runs are judged by metrics and gain
checks alone.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from . import simulation
from .agents import ModelClass
from .errors import ValidationError
from .gains import GainCheck, GainReport, design_K_double, solve_P_neutral, verify_gains
from .graphs import check_rootset, generate_graph, laplacian
from .linalg import solve_lyapunov
from .parallel import SharedMatrix, sharing_workers, usable_cpus
from .protocols import build_protocol
from .simulation import _EXPORT_ROWS, ClosedLoop, TrajectoryRecord, export_trajectory

__all__ = [
    "SyncReport",
    "LyapunovCertificate",
    "RunRecord",
    "sync_metrics",
    "v_trace_violation",
    "lyapunov_certificate_P1",
    "lyapunov_trace_P3",
    "run_case",
    "run_cases",
    "case_workers",
    "gain_margin_runs",
    "network_sizes",
    "scale_free_runs",
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


@dataclass(eq=False)
class LyapunovCertificate:
    """Numerically solved energy certificate for the static full-state loop.

    ``p`` weights the agent deviations, ``p_bar`` the tracking-error
    block; ``gamma_term`` is the scalar driving the ``p_bar`` equation
    and ``residual`` the largest eigenvalue of that equation's defect
    (certificate is valid when residual <= 1e-8 * gamma_term).
    ``v_trace`` is the energy sampled along a trajectory, or None when
    no trajectory was supplied.
    """

    p: np.ndarray
    p_bar: np.ndarray
    gamma_term: float
    residual: float
    v_trace: np.ndarray | None


def sync_metrics(traj, tol=1e-2, window=None):
    """Score a trajectory against a tolerance and a terminal window.

    Parameters
    ----------
    traj : TrajectoryRecord
        Recorded closed-loop run.
    tol : float
        Error level that counts as synchronized.
    window : float, optional
        Length of the terminal band (seconds) that must sit strictly
        below ``tol`` for the run to count as converged. Defaults to
        5 s, clipped to the recorded span.

    Returns
    -------
    SyncReport
    """
    times = np.asarray(traj.times, dtype=float)
    if times.size == 0:
        raise ValidationError("trajectory is empty")
    duration = float(times[-1] - times[0])
    if window is None:
        window = min(5.0, duration)
    else:
        window = float(window)
        if not window > 0.0:
            raise ValidationError(f"window must be positive, got {window:g}")
        if window > duration + 1e-12:
            raise ValidationError(
                f"window {window:g} s exceeds the recorded span of {duration:g} s"
            )
    tol = float(tol)
    if not tol > 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol:g}")

    deviation = traj.x - traj.x_r[:, None, :]
    max_error = np.linalg.norm(deviation, axis=-1).max(axis=1)
    pairwise = np.zeros_like(max_error)
    for i in range(traj.x.shape[1] - 1):
        gaps = np.linalg.norm(traj.x[:, i:i + 1, :] - traj.x[:, i + 1:, :], axis=-1)
        np.maximum(pairwise, gaps.max(axis=1), out=pairwise)

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


def v_trace_violation(v_trace, slack=1e-9):
    """Worst step-to-step energy growth beyond the integration allowance.

    Returns max_k of V[k+1] - V[k] - slack*(1 + V[k]); a nonpositive
    value means the trace is nonincreasing up to the allowance. Traces
    with fewer than two samples trivially return 0.0.
    """
    v = np.asarray(v_trace, dtype=float)
    if v.size < 2:
        return 0.0
    growth = v[1:] - v[:-1] - slack * (1.0 + v[:-1])
    return float(growth.max())


def _require_certificate_setup(model, graph, rho, wanted, label):
    if model.classification.model_class is not wanted:
        raise ValidationError(f"certificate requires a {label} model")
    if model.coupling != "full":
        raise ValidationError("certificate requires full-state coupling")
    if not rho > 0.0:
        raise ValidationError(f"rho must be positive, got {rho:g}")
    if not check_rootset(graph):
        raise ValidationError("every node must be reachable from the root set")


def _tracking_block(model, graph):
    """The stable matrix governing the stacked tracking error."""
    eye_n = np.eye(model.n)
    return np.kron(np.eye(graph.n), model.a) - np.kron(laplacian(graph).Lbar, eye_n)


def lyapunov_certificate_P1(model, graph, rho, traj=None):
    """Energy certificate for the static protocol on neutrally stable agents.

    Solves the tracking-error weight ``p_bar`` from the stacked-error
    equation with right-hand side -(1 + rho*||b' p||^2) I — an equality
    version of the inequality the stability argument needs, valid
    because the stacked error matrix is Hurwitz whenever the root set
    reaches every node. When ``traj`` is given, the energy

        V = sum_i (x_i - x_r)' p (x_i - x_r)  +  e' p_bar e

    is sampled at every recorded time.
    """
    rho = float(rho)
    _require_certificate_setup(
        model, graph, rho, ModelClass.NEUTRALLY_STABLE, "neutrally stable"
    )
    p = solve_P_neutral(model.a)
    gamma = 1.0 + rho * np.linalg.norm(model.b.T @ p, 2) ** 2
    m_mat = _tracking_block(model, graph)
    total = m_mat.shape[0]
    p_bar = solve_lyapunov(m_mat, gamma * np.eye(total))
    defect = m_mat.T @ p_bar + p_bar @ m_mat + gamma * np.eye(total)
    residual = float(np.linalg.eigvalsh(0.5 * (defect + defect.T)).max())
    v_trace = None
    if traj is not None:
        dev = traj.x - traj.x_r[:, None, :]
        agent_term = np.einsum("tia,ab,tib->t", dev, p, dev)
        e_flat = traj.e.reshape(len(traj.times), -1)
        error_term = np.einsum("ta,ab,tb->t", e_flat, p_bar, e_flat)
        v_trace = agent_term + error_term
    return LyapunovCertificate(
        p=p,
        p_bar=p_bar,
        gamma_term=float(gamma),
        residual=residual,
        v_trace=v_trace,
    )


def _chain_split(a, b):
    """Index the integrator chains: vel[j] is driven by input j, pos[j] by vel[j].

    Only meaningful after the model classified as a chained-integrator
    structure, where b columns and the coupling columns of a are exact
    unit vectors.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vel = np.array([int(np.argmax(b[:, j])) for j in range(b.shape[1])])
    pos = np.array([int(np.argmax(a[:, v])) for v in vel])
    return pos, vel


def lyapunov_trace_P3(model, graph, rho, traj, k=None):
    """Energy trace for the static protocol on chained integrators.

    The energy combines a velocity-weighted quadratic, a tracking-error
    quadratic, and the stored saturation potential of the inputs:

        V = rho * sum_i v_i' p_d v_i  +  e' p_D e  +  2 sum int_0^u sat

    with p_d read off the position block of ``k`` and p_D solved from
    the stacked-error equation. ``k`` defaults to the canonical
    (-I  -I) feedback; pass the gain actually used by the run when it
    differs. Returns the sampled energy as an array aligned with
    ``traj.times``.
    """
    rho = float(rho)
    _require_certificate_setup(
        model, graph, rho, ModelClass.DOUBLE_INTEGRATOR, "chained-integrator"
    )
    m = model.m
    if k is None:
        k = design_K_double(m)
    k = np.asarray(k, dtype=float)
    if k.shape != (m, 2 * m):
        raise ValidationError(f"gain must have shape {(m, 2 * m)}, got {k.shape}")

    pos, vel = _chain_split(model.a, model.b)
    k_pos = k[:, pos]
    k_vel = k[:, vel]
    p_d = -k_pos
    if np.linalg.eigvalsh(0.5 * (p_d + p_d.T)).min() <= 0.0:
        raise ValidationError("position-block gain must be negative definite")
    eps = -float(np.linalg.eigvalsh(k_vel + k_vel.T).max()) / 2.0
    if eps <= 0.0:
        raise ValidationError("velocity-block gain must be negative definite")

    m_mat = _tracking_block(model, graph)
    gamma = 1.0 + rho / eps * np.linalg.norm(k, 2) ** 2 * np.linalg.norm(m_mat, 2) ** 2
    p_big = solve_lyapunov(m_mat, gamma * np.eye(m_mat.shape[0]))

    dev = traj.x - traj.x_r[:, None, :]
    vel_dev = dev[:, :, vel]
    agent_term = rho * np.einsum("tia,ab,tib->t", vel_dev, p_d, vel_dev)
    e_flat = traj.e.reshape(len(traj.times), -1)
    error_term = np.einsum("ta,ab,tb->t", e_flat, p_big, e_flat)
    # batched form of saturation_potential, one scalar per sample
    mag = np.abs(traj.u)
    psi = np.where(mag <= 1.0, 0.5 * mag * mag, mag - 0.5)
    input_term = 2.0 * psi.sum(axis=(1, 2))
    return agent_term + error_term + input_term


def run_case(case, keep_trajectory=True, states=None):
    """Run one case: simulate, score it, audit its gains.

    ``case`` is a Scenario or the ClosedLoop assembled from one; the
    states are recorded into ``states`` when it is given (a matrix of
    the loop's ``record_shape``). The verdict uses the scenario's own
    tolerance and window; the gains are the ones its realization was
    built from.
    """
    # assemble and integrate are looked up on their module at call time,
    # so that a replacement installed there (a test's, a profiler's)
    # takes part in every run
    loop = case if isinstance(case, ClosedLoop) else simulation.assemble(case)
    record = simulation.integrate(loop, states)
    scenario = loop.scenario
    protocol = scenario.protocol
    return RunRecord(
        name=scenario.name,
        report=sync_metrics(record, tol=scenario.tol, window=scenario.window),
        gain_report=verify_gains(scenario.model, protocol.gains, kind=protocol.kind),
        trajectory=record if keep_trajectory else None,
    )


def _assembled(case):
    loop = simulation.assemble(case)
    return loop, SharedMatrix(*loop.record_shape)


def _run_assembled(item):
    loop, states = item
    return run_case(loop, keep_trajectory=False, states=states.array)


def _recorded(item, run, keep_trajectory):
    loop, states = item
    if keep_trajectory:
        record = TrajectoryRecord.of_states(loop.scenario, run.report.times, states.array)
        run = replace(run, trajectory=record)
    return loop.scenario, run


def run_cases(cases, pmap=map, keep_trajectories=True):
    """Run case scenarios; yield (case, RunRecord) in order, each as soon as it has run.

    ``pmap`` is the builtin ``map`` or a ``parallel.process_map`` pool
    whose workers fork (``parallel.sharing_workers``) and that has run
    no task yet. Each case is assembled in this process, and its states
    are recorded into a ``SharedMatrix`` made here; the run
    (``run_case``) sends back only its verdict and gain audit, and the
    record is this process's view of the matrix. Through ``map`` each
    case is assembled just before it runs, so one case at a time holds
    its operator; a pool forks its workers at its first task, so every
    case is assembled before that.
    """
    # no local name holds a finished case's operator while the next one
    # is assembled
    ready = deque()

    def assembled():
        for case in cases:
            ready.append(_assembled(case))
            yield ready[-1]

    items = assembled() if pmap is map else list(assembled())
    for run in pmap(_run_assembled, items):
        yield _recorded(ready.popleft(), run, keep_trajectories)


def case_workers(rows):
    """Workers for one pool that runs cases and exports their ``rows``
    CSV rows: one per usable CPU, no more than the CSVs have blocks, and
    one (in process) where the pool cannot share the state matrices."""
    return sharing_workers(min(usable_cpus(), -(-rows // _EXPORT_ROWS)))


def _rho_name(scenario, rho):
    return f"{scenario.name}-rho{rho:g}"


def _size_name(scenario, size):
    return f"{scenario.name}-n{size}"


def _require_distinct_names(scenario, label, values, name):
    """Reject a case list in which two values would name the same run."""
    seen = {}
    for value in values:
        case = name(scenario, value)
        if case in seen:
            raise ValidationError(
                f"{label} {seen[case]!r} and {value!r} both give the case name {case!r}"
            )
        seen[case] = value


def _rho_case(scenario, rho):
    protocol = scenario.protocol
    gains = replace(protocol.gains, rho=rho)
    return replace(
        scenario,
        name=_rho_name(scenario, rho),
        protocol=build_protocol(protocol.kind, scenario.model, gains),
    )


def _size_case(scenario, index, size, ic_scale=1.0):
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
        x0=rng.uniform(-ic_scale, ic_scale, size=(size, model.n)),
        controller0=None,
    )


def gain_margin_runs(scenario, rhos, pmap=map, keep_trajectories=True):
    """Re-run one scenario across loop gains.

    Every other ingredient -- graph, initial conditions, step size -- is
    held fixed; only the scalar gain changes, which re-synthesizes the
    realization per case (named ``<name>-rho<rho>``, ``rho`` printed
    with ``%g``; gains that print alike are rejected). The gains are
    checked at once; the cases run through ``pmap`` (see ``run_cases``)
    as the returned iterator is read, yielding (case scenario,
    RunRecord) pairs in the input order.
    """
    rhos = [float(r) for r in rhos]
    for r in rhos:
        if not r > 0.0:
            raise ValidationError(f"rho must be positive, got {r:g}")
    _require_distinct_names(scenario, "rho values", rhos, _rho_name)
    cases = (_rho_case(scenario, rho) for rho in rhos)
    return run_cases(cases, pmap, keep_trajectories)


def network_sizes(scenario, sizes):
    """``sizes`` as ints, each a whole number >= 1 that names a case of
    ``scenario``'s size sweep no other size names; else rejected."""
    for n in sizes:
        if not (float(n).is_integer() and n >= 1):
            raise ValidationError(f"network size must be a whole number >= 1, got {n:g}")
    sizes = [int(n) for n in sizes]
    _require_distinct_names(scenario, "network sizes", sizes, _size_name)
    return sizes


def scale_free_runs(scenario, sizes, pmap=map, *, ic_scale=1.0, keep_trajectories=True):
    """Run one scenario's protocol over random networks of growing size.

    Case ``index`` (named ``<name>-n<size>``) gets a random graph rooted
    at node 1, seeded ``seed + index``, and initial states drawn
    uniformly in [-ic_scale, ic_scale] from ``default_rng([seed, index,
    1])``, where ``seed`` is the scenario's (0 when unset); the
    reference starts at zero and the controllers at rest. Step size,
    horizon, thinning and the verdict's tolerance and window come from
    the scenario. The realization is rebuilt per case from the same
    model and gains, which makes the build determinism checkable: the
    controller matrices must come out bit-identical for every size.
    The sizes are checked at once (``network_sizes``); the cases run
    through ``pmap`` (see ``run_cases``) as the returned iterator is
    read, yielding (case scenario, RunRecord) pairs in the input order.
    """
    sizes = network_sizes(scenario, sizes)
    cases = (_size_case(scenario, i, n, ic_scale) for i, n in enumerate(sizes))
    return run_cases(cases, pmap, keep_trajectories)


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


def _safe_name(name):
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in name)
    return safe or "run"


def _claim_file(claimed, name):
    """The CSV file name of run ``name``, entered in ``claimed`` (file
    name -> run name); a run that an earlier one would overwrite, having
    the same name or one that makes the same file name, is rejected."""
    file_name = _safe_name(name) + ".csv"
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
        "converged": report.converged,
        "convergence_time": report.convergence_time,
        "final_max_error": float(report.max_error[-1]),
        "final_pairwise_error": float(report.pairwise_error[-1]),
        "times": [float(v) for v in report.times],
        "max_error": [float(v) for v in report.max_error],
        "pairwise_error": [float(v) for v in report.pairwise_error],
        "gain_checks": None if record.gain_report is None else record.gain_report.as_dicts(),
        "trajectory_file": None,
    }


def export_report(records, path, pmap=map):
    """Write a machine-readable summary plus per-run trajectory files.

    ``path`` is a directory (created if missing). The summary lands in
    ``summary.json``; every record carrying a trajectory additionally
    writes ``<name>.csv`` next to it, the name made file-safe. Returns
    the written paths, summary first. Floats survive the JSON round
    trip exactly.

    ``records`` is a sequence of RunRecord, or an iterable yielding them
    as their runs finish; each record's CSV is written when it arrives,
    its rows formatted through ``pmap`` (the builtin ``map`` or a
    caller's ``parallel.process_map``; the bytes are the same either
    way). A run that would write the same file as an earlier one is
    rejected when it arrives. The files are moved into ``path`` only
    once every one is written, so an export that fails before that, a
    run in ``records`` raising included, leaves ``path`` as it was
    (absent if it was absent).
    """
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    # every file is written here first, and moved into path once all are
    staging = tempfile.mkdtemp(prefix=".export-", dir=path)
    claimed = {}
    runs = []
    try:
        for record in records:
            file_name = _claim_file(claimed, record.name)
            entry = _summary_entry(record)
            if record.trajectory is not None:
                export_trajectory(record.trajectory, os.path.join(staging, file_name), pmap)
                entry["trajectory_file"] = file_name
            runs.append(entry)
        doc = {"format": "satsync-report", "version": 1, "runs": runs}
        with open(os.path.join(staging, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written = ["summary.json"] + [e["trajectory_file"] for e in runs if e["trajectory_file"]]
        # a file cannot replace a directory; find that before the first
        # move, so that a failure moves nothing
        for target in (os.path.join(path, name) for name in written):
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in written:
            os.replace(os.path.join(staging, name), os.path.join(path, name))
    except BaseException:
        shutil.rmtree(staging)
        if made:
            with suppress(OSError):  # not empty: something else was written there
                os.rmdir(path)
        raise
    os.rmdir(staging)
    return [os.path.join(path, name) for name in written]


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
    records = []
    for entry in doc.get("runs", []):
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
        records.append(
            RunRecord(name=entry["name"], report=report, gain_report=gain_report)
        )
    return records
