"""Diagnostics: metrics, energy certificates, sweeps, report round trips."""

import multiprocessing
import os
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from satsync.agents import AgentModel
from satsync import analysis
from satsync.analysis import (
    RunRecord,
    case_workers,
    export_report,
    gain_margin_runs,
    lyapunov_certificate_P1,
    lyapunov_trace_P3,
    parse_report,
    run_case,
    run_cases,
    scale_free_runs,
    sync_metrics,
    v_trace_violation,
)
from satsync.errors import ValidationError
from satsync.gains import synthesize_gains
from satsync.graphs import generate_graph
from satsync.parallel import process_map, sharing_workers
from satsync.protocols import build_protocol
from satsync.simulation import _EXPORT_ROWS, Scenario, TrajectoryRecord, simulate

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
DOUBLE_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DOUBLE_B = np.array([[0.0], [1.0]])


def p1_scenario(n_agents=3, horizon=8.0, dt=0.01, seed=0):
    model = AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2), coupling="full")
    graph = generate_graph("random", n_agents, roots=[1], seed=seed)
    proto = build_protocol("P1", model, synthesize_gains(model, "P1"))
    rng = np.random.default_rng(seed)
    return Scenario(
        name="p1", model=model, graph=graph, protocol=proto,
        x_r0=np.array([0.5, 0.0]), x0=rng.uniform(-0.5, 0.5, (n_agents, 2)),
        dt=dt, horizon=horizon,
    )


def p3_scenario(n_agents=3, horizon=12.0, dt=0.01, seed=1):
    model = AgentModel(a=DOUBLE_A, b=DOUBLE_B, c=np.eye(2), coupling="full")
    graph = generate_graph("random", n_agents, roots=[1], seed=seed)
    proto = build_protocol("P3", model, synthesize_gains(model, "P3"))
    rng = np.random.default_rng(seed)
    return Scenario(
        name="p3", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(2), x0=rng.uniform(-0.5, 0.5, (n_agents, 2)),
        dt=dt, horizon=horizon,
    )


def hand_record(x):
    """Record of agent states ``x`` [time, agent, component] at t = 0, 1, ...

    The reference sits at zero and a stand-in full-state realization
    keeps one controller state per agent at rest, so chi and u are zero
    and e equals x.
    """
    T, N, n = x.shape
    protocol = SimpleNamespace(uses_observer=False, f_c=np.zeros((1, 1)))
    return TrajectoryRecord(
        times=np.linspace(0.0, T - 1.0, T), x_r=np.zeros((T, n)), x=x,
        xc=np.zeros((T, N, 1)), scenario=SimpleNamespace(protocol=protocol),
    )


def synthetic_record(errors):
    """Trajectory whose per-agent error norms are exactly ``errors``."""
    return hand_record(np.asarray(errors, dtype=float)[:, :, None])


def test_sync_metrics_hand_oracle():
    # errors decay below tol=0.5 from t=2 on; window 2 ends at t=4
    errs = np.array([[4.0, 3.0], [1.0, 2.0], [0.4, 0.3], [0.2, 0.1], [0.05, 0.02]])
    rep = sync_metrics(synthetic_record(errs), tol=0.5, window=2.0)
    assert np.array_equal(rep.max_error, np.array([4.0, 2.0, 0.4, 0.2, 0.05]))
    assert rep.converged
    assert rep.convergence_time == 2.0
    # pairwise disagreement at t=0 is |4-3| = 1
    assert rep.pairwise_error[0] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 7, 19])
def test_sync_metrics_pairwise_equals_pair_loop(n):
    rng = np.random.default_rng(n)
    T, N = 40, 12
    x = rng.normal(size=(T, N, n))
    rec = hand_record(x)
    want = np.zeros(T)
    for i, j in combinations(range(N), 2):
        np.maximum(want, np.linalg.norm(x[:, i, :] - x[:, j, :], axis=-1), out=want)
    assert np.array_equal(sync_metrics(rec, tol=0.5).pairwise_error, want)


def test_sync_metrics_rejects_late_excursion():
    errs = np.array([[0.1], [0.1], [0.1], [0.9], [0.1]])
    rep = sync_metrics(synthetic_record(errs), tol=0.5, window=2.0)
    assert not rep.converged
    assert rep.convergence_time is None


def test_sync_metrics_window_validation():
    errs = np.zeros((3, 1))
    with pytest.raises(ValidationError, match="window"):
        sync_metrics(synthetic_record(errs), tol=0.5, window=10.0)


def test_v_trace_violation_signs():
    assert v_trace_violation(np.array([3.0, 2.0, 1.0])) <= 0.0
    # a genuine increase shows up with its size
    bad = v_trace_violation(np.array([1.0, 2.0]))
    assert bad == pytest.approx(1.0 - 1e-9 * 2.0)
    assert v_trace_violation(np.array([5.0])) == 0.0


def test_p1_certificate_decreases_along_run():
    sc = p1_scenario()
    rec = simulate(sc)
    cert = lyapunov_certificate_P1(sc.model, sc.graph, 1.0, traj=rec)
    assert np.linalg.eigvalsh(cert.p_bar).min() > 0
    assert cert.residual <= 1e-8 * cert.gamma_term
    assert v_trace_violation(cert.v_trace) <= 0.0
    assert cert.v_trace[-1] < cert.v_trace[0]


def test_p1_certificate_requires_full_coupling():
    model = AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.array([[1.0, 0.0]]))
    graph = generate_graph("random", 3, roots=[1], seed=0)
    with pytest.raises(ValidationError):
        lyapunov_certificate_P1(model, graph, 1.0)


def test_p3_energy_trace_decreases():
    sc = p3_scenario(horizon=40.0)
    rec = simulate(sc)
    v = lyapunov_trace_P3(sc.model, sc.graph, 1.0, rec)
    assert v_trace_violation(v) <= 0.0
    assert v[-1] < 1e-3 * v[0]


def test_gain_margin_sweep_scales_and_matches_serial():
    sc = p1_scenario(horizon=6.0)
    serial = [run for _, run in gain_margin_runs(sc, [1.0, 4.0])]
    with process_map(sharing_workers(2)) as pmap:
        parallel = [run for _, run in gain_margin_runs(sc, [1.0, 4.0], pmap)]
    assert serial == parallel
    reports = [run.report for _, run in gain_margin_runs(sc, [1.0, 4.0], keep_trajectories=False)]
    assert [r.converged for r in reports] == [run.report.converged for run in serial]


def test_scale_free_sweep_reuses_one_controller():
    sc = replace(p1_scenario(horizon=6.0), seed=3)
    pairs = list(scale_free_runs(sc, [2, 5]))
    cases = [case for case, _ in pairs]
    assert [c.graph.n for c in cases] == [2, 5]
    for field in ("a_c", "b_c", "f_c", "u_gain"):
        assert np.array_equal(
            getattr(cases[0].protocol, field), getattr(cases[1].protocol, field)
        )
    thin = list(scale_free_runs(sc, [2, 5], keep_trajectories=False))
    assert [run.trajectory for _, run in thin] == [None, None]
    assert [run.report for _, run in thin] == [run.report for _, run in pairs]


def test_export_parse_round_trip(tmp_path):
    sc = p1_scenario(horizon=4.0)
    rec = simulate(sc)
    rep = sync_metrics(rec, tol=1e-2)
    runs = [RunRecord(name="case-a", report=rep, trajectory=rec)]
    written = export_report(runs, tmp_path)
    assert sorted(p.name for p in map(_as_path, written)) == ["case-a.csv", "summary.json"]
    back = parse_report(tmp_path)
    assert back == runs  # reports and floats round-trip exactly


def _as_path(p):
    import pathlib

    return pathlib.Path(p)


def test_export_report_rejects_duplicate_names(tmp_path):
    rep = sync_metrics(synthetic_record(np.zeros((3, 1))), tol=0.5)
    runs = [RunRecord(name="dup", report=rep), RunRecord(name="dup", report=rep)]
    with pytest.raises(ValidationError, match="dup"):
        export_report(runs, tmp_path)


def test_export_report_rejects_names_that_make_one_file(tmp_path):
    rec = simulate(p1_scenario(horizon=0.5))
    rep = sync_metrics(rec, tol=1e-2)
    runs = [RunRecord(name=name, report=rep, trajectory=rec) for name in ("case a", "case-a")]
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="'case a' and 'case-a' would both write case-a.csv"):
        export_report(runs, out)
    assert not out.exists()  # rejected before anything was written
    # an iterable's records are checked as they arrive, and nothing moves into place
    with pytest.raises(ValidationError, match="'case a' and 'case-a'"):
        export_report(iter(runs), out, map)
    assert not out.exists()


@pytest.mark.needs_fork
def test_run_cases_record_into_shared_states_through_a_pool(monkeypatch):
    made = []

    class Recorded(analysis.SharedMatrix):
        def __init__(self, rows, cols):
            super().__init__(rows, cols)
            made.append(self)

    monkeypatch.setattr(analysis, "SharedMatrix", Recorded)
    cases = [p1_scenario(n_agents=n, horizon=2.0, seed=n) for n in (3, 5)]
    cases = [replace(sc, name=f"p1-{sc.graph.n}") for sc in cases]
    with process_map(2) as pmap:
        pairs = list(run_cases(cases, pmap))
    assert [case for case, _ in pairs] == cases and len(made) == 2
    for (case, run), states in zip(pairs, made):
        alone = run_case(case)
        assert run == alone  # verdict and gain audit, bitwise
        rec = run.trajectory
        # the record is the caller's view of the matrix a worker filled,
        # not a copy sent back
        assert np.shares_memory(rec.x, states.array)
        for name in ("times", "x_r", "x", "xc"):
            assert np.array_equal(getattr(rec, name), getattr(alone.trajectory, name)), name


def test_export_report_leaves_no_worker_processes(tmp_path, monkeypatch):
    # the second record's CSV path turns into a directory once the pool runs
    rec = simulate(p1_scenario(horizon=4.0))
    rep = sync_metrics(rec, tol=1e-2)
    runs = [RunRecord(name=name, report=rep, trajectory=rec) for name in ("a", "b")]
    real = analysis.export_trajectory
    blocked = []

    def export_then_block(record, path, pmap):
        real(record, path, pmap)
        assert multiprocessing.active_children()  # the pool is running
        if os.path.basename(path) == "a.csv" and blocked:
            os.mkdir(blocked[0])

    monkeypatch.setattr(analysis, "export_trajectory", export_then_block)
    with process_map(2) as pmap:
        export_report(runs, tmp_path / "ok", pmap)
    assert multiprocessing.active_children() == []
    blocked.append(tmp_path / "fail" / "b.csv")
    with pytest.raises(IsADirectoryError), process_map(2) as pmap:
        export_report(runs, tmp_path / "fail", pmap)
    assert multiprocessing.active_children() == []
    # the failure moved nothing into the run directory
    assert os.listdir(tmp_path / "fail") == ["b.csv"]


def test_case_workers_are_no_more_than_blocks_or_usable_cpus(monkeypatch):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 64)
    assert case_workers(401 * 3) == sharing_workers(2)  # 1203 rows make two blocks
    assert case_workers(_EXPORT_ROWS) == 1
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    assert case_workers(100 * _EXPORT_ROWS) == sharing_workers(2)
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 1)
    assert case_workers(100 * _EXPORT_ROWS) == 1
