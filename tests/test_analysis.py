"""Diagnostics: metrics, sweeps, report round trips, and the test-side
energy certificates."""

import json
import multiprocessing
import os
import pickle
import tracemalloc
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satsync.agents import AgentModel
from satsync import analysis
from satsync.analysis import (
    RunRecord,
    export_report,
    parse_report,
    rho_cases,
    run_case,
    run_cases,
    size_cases,
    sync_metrics,
)
from satsync import gains, protocols, simulation
from satsync.errors import SynthesisError, ValidationError
from satsync.gains import synthesize_gains, verify_gains
from satsync.graphs import generate_graph
from satsync.protocols import build_protocol
from satsync.simulation import (
    _EXPORT_ROWS,
    Scenario,
    TrajectoryRecord,
    _time_blocks,
    assemble,
    export_trajectory,
    integrate,
)

from oracles import (
    lyapunov_certificate_P1,
    lyapunov_trace_P3,
    preset_parts,
    sync_errors_whole,
    v_trace_violation,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
DOUBLE_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DOUBLE_B = np.array([[0.0], [1.0]])


def p1_scenario(n_agents=3, horizon=8.0, dt=0.01, seed=0):
    model = AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2))
    graph = generate_graph("random", n_agents, roots=[1], seed=seed)
    proto = build_protocol("P1", model, synthesize_gains(model, "P1"))
    rng = np.random.default_rng(seed)
    return Scenario(
        name="p1", model=model, graph=graph, protocol=proto,
        x_r0=np.array([0.5, 0.0]), x0=rng.uniform(-0.5, 0.5, (n_agents, 2)),
        dt=dt, horizon=horizon,
    )


def p3_scenario(n_agents=3, horizon=12.0, dt=0.01, seed=1):
    model = AgentModel(a=DOUBLE_A, b=DOUBLE_B, c=np.eye(2))
    graph = generate_graph("random", n_agents, roots=[1], seed=seed)
    proto = build_protocol("P3", model, synthesize_gains(model, "P3"))
    rng = np.random.default_rng(seed)
    return Scenario(
        name="p3", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(2), x0=rng.uniform(-0.5, 0.5, (n_agents, 2)),
        dt=dt, horizon=horizon,
    )


def hand_record(x, tol, window):
    """Record of agent states ``x`` [time, agent, component] at t = 0, 1, ...,
    scored at ``tol`` over the final ``window`` seconds.

    The reference sits at zero and a stand-in full-state realization
    keeps one controller state per agent at rest, so chi and u are zero
    and e equals x.
    """
    T, N, n = x.shape
    protocol = SimpleNamespace(uses_observer=False, f_c=np.zeros((1, 1)))
    states = np.column_stack(
        [np.linspace(0.0, T - 1.0, T), np.zeros((T, n)), x.reshape(T, -1), np.zeros((T, N))]
    )
    scenario = SimpleNamespace(
        protocol=protocol, model=SimpleNamespace(n=n), graph=SimpleNamespace(n=N), tol=tol, window=window,
    )
    return TrajectoryRecord(states, scenario)


def synthetic_record(errors, tol, window):
    """Trajectory whose per-agent error norms are exactly ``errors``."""
    return hand_record(np.asarray(errors, dtype=float)[:, :, None], tol, window)


def test_sync_metrics_hand_oracle():
    # errors decay below tol=0.5 from t=2 on; window 2 ends at t=4
    errs = np.array([[4.0, 3.0], [1.0, 2.0], [0.4, 0.3], [0.2, 0.1], [0.05, 0.02]])
    rep = sync_metrics(synthetic_record(errs, tol=0.5, window=2.0))
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
    rec = hand_record(x, tol=0.5, window=5.0)
    want = np.zeros(T)
    for i, j in combinations(range(N), 2):
        np.maximum(want, np.linalg.norm(x[:, i, :] - x[:, j, :], axis=-1), out=want)
    assert np.array_equal(sync_metrics(rec).pairwise_error, want)


LAYOUTS = {
    "C": lambda full, T, cols: full[:T, :cols].copy(),
    "every other row": lambda full, T, cols: full[: 2 * T: 2, :cols],
    "columns of a wider matrix": lambda full, T, cols: full[:T, 1: 1 + cols],
    "Fortran": lambda full, T, cols: np.asfortranarray(full[:T, :cols]),
}


@settings(max_examples=60, deadline=None)
@given(
    steps=st.sampled_from(["few", "block - 1", "block", "block + 1", "two blocks + 1"]),
    N=st.sampled_from([1, 2, 10]),
    # numpy sums 8 or more components pairwise, fewer one by one
    n=st.integers(1, 9),
    layout=st.sampled_from(sorted(LAYOUTS)),
    seed=st.integers(0, 2**16),
)
# a last block of one row, which numpy would sum in another order alone
@example(steps="block + 1", N=1, n=8, layout="Fortran", seed=0)
def test_block_scoring_is_bitwise_the_whole_record_form(steps, N, n, layout, seed):
    B = analysis._SCORE_ROWS
    T = {"few": 2, "block - 1": B - 1, "block": B, "block + 1": B + 1, "two blocks + 1": 2 * B + 1}[steps]
    rng = np.random.default_rng(seed)
    cols = 1 + n + N * (n + 1)
    full = rng.normal(size=(2 * T, cols + 2)) * 10.0 ** rng.integers(-8, 8, size=(2 * T, cols + 2))
    # the times, in the first column of every layout
    full[:, 0] = full[:, 1] = np.arange(2 * T) * 0.01
    states = LAYOUTS[layout](full, T, cols)
    scenario = SimpleNamespace(model=SimpleNamespace(n=n), graph=SimpleNamespace(n=N))
    rec = TrajectoryRecord(states, scenario)
    scenario.tol = float(np.quantile(np.linalg.norm(rec.x - rec.x_r[:, None, :], axis=-1).max(axis=1), 0.3))
    scenario.window = min(5.0, float(rec.times[-1] - rec.times[0]))
    got = sync_metrics(rec)
    max_error, pairwise = sync_errors_whole(rec)
    assert got.max_error.tobytes() == max_error.tobytes()
    assert got.pairwise_error.tobytes() == pairwise.tobytes()
    assert got.times.tobytes() == np.array(rec.times).tobytes()


def test_sync_metrics_holds_block_sized_temporaries():
    # example2's larger network, every step of 60 s at dt 0.01: scoring it
    # whole peaked at 10.4 MB of temporaries, in blocks at 1.0 MB
    T, N, n = 6001, 10, 7
    states = np.random.default_rng(0).normal(size=(T, 1 + n + N * (n + 14)))
    states[:, 0] = np.arange(T) * 0.01
    scenario = SimpleNamespace(model=SimpleNamespace(n=n), graph=SimpleNamespace(n=N), tol=1e-2, window=5.0)
    rec = TrajectoryRecord(states, scenario)
    sync_metrics(rec)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        sync_metrics(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_sync_metrics_rejects_late_excursion():
    errs = np.array([[0.1], [0.1], [0.1], [0.9], [0.1]])
    rep = sync_metrics(synthetic_record(errs, tol=0.5, window=2.0))
    assert not rep.converged
    assert rep.convergence_time is None


def test_v_trace_violation_signs():
    assert v_trace_violation(np.array([3.0, 2.0, 1.0])) <= 0.0
    # a genuine increase shows up with its size
    bad = v_trace_violation(np.array([1.0, 2.0]))
    assert bad == pytest.approx(1.0 - 1e-9 * 2.0)
    assert v_trace_violation(np.array([5.0])) == 0.0


def test_p1_certificate_decreases_along_run():
    sc = p1_scenario()
    rec = integrate(assemble(sc))
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
    rec = integrate(assemble(sc))
    v = lyapunov_trace_P3(sc.model, sc.graph, 1.0, rec)
    assert v_trace_violation(v) <= 0.0
    assert v[-1] < 1e-3 * v[0]


def test_gain_margin_sweep_scales_and_matches_serial(monkeypatch):
    sc = p1_scenario(horizon=6.0)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
        with run_cases(rho_cases(sc, [1.0, 4.0])) as pairs:
            runs[cpus] = [run for _, run in pairs]
    serial, parallel = runs[1], runs[2]
    assert serial == parallel
    # the pooled runs carry their records too, read from shared memory
    for s, p in zip(serial, parallel):
        for field in ("times", "x_r", "x", "xc"):
            assert np.array_equal(getattr(s.trajectory, field), getattr(p.trajectory, field))


def test_scale_free_sweep_reuses_one_controller():
    sc = replace(p1_scenario(horizon=6.0), seed=3)
    with run_cases(size_cases(sc, [2, 5])) as runs:
        pairs = list(runs)
    cases = [case for case, _ in pairs]
    assert [c.graph.n for c in cases] == [2, 5]
    for field in ("a_c", "b_c", "f_c", "u_gain"):
        assert np.array_equal(
            getattr(cases[0].protocol, field), getattr(cases[1].protocol, field)
        )


@pytest.mark.parametrize("cases, values, said", [
    (rho_cases, [1.0, float("inf")], "rho must be positive and finite, got inf"),
    (rho_cases, [0.0], "rho must be positive and finite, got 0"),
    (size_cases, [3, 2.5], "network size must be a whole number >= 1, got 2.5"),
    (size_cases, [float("inf")], "network size must be a whole number >= 1, got inf"),
    (size_cases, [10**17 + 1], f"{10**17 + 1} nodes are too many"),
])
def test_case_lists_are_checked_when_called(cases, values, said):
    with pytest.raises(ValidationError, match=said):
        cases(p1_scenario(), values)


def test_a_whole_float_size_names_the_same_case_as_its_int():
    sc = p1_scenario()
    assert [case.name for case in size_cases(sc, [3.0, 4])] == [f"{sc.name}-n3", f"{sc.name}-n4"]


def _audited_scenario(kind, model, gain_set):
    graph = generate_graph("random", 3, roots=[1], seed=0)
    return Scenario(
        name=kind, model=model, graph=graph, protocol=build_protocol(kind, model, gain_set),
        x_r0=np.ones(model.n), x0=np.zeros((3, model.n)), dt=0.01, horizon=0.5,
    )


def test_gain_audit_is_the_realizations(monkeypatch):
    example1, example2 = preset_parts("example1"), preset_parts("example2")
    cases = [
        _audited_scenario("P4", example1.model, example1.gains),
        _audited_scenario("P6", example2.model, example2.gains),
    ]
    for sc in cases:
        fresh = verify_gains(sc.model, sc.protocol.gains, kind=sc.protocol.kind)
        assert fresh.passed and sc.protocol.gain_report == fresh
    # a run audits nothing of its own: it reports the realization's audit
    def forbidden(*args, **kwargs):
        raise AssertionError("a run verified its gains again")

    monkeypatch.setattr(gains, "verify_gains", forbidden)
    monkeypatch.setattr(protocols, "verify_gains", forbidden)
    for sc in cases:
        assert run_case(sc).gain_report is sc.protocol.gain_report
    monkeypatch.setattr(analysis, "_case_workers", lambda rows: 2)
    with run_cases(cases) as pairs:
        pooled = [run.gain_report for _, run in pairs]
    assert pooled == [sc.protocol.gain_report for sc in cases]
    monkeypatch.undo()
    # failing gains still stop the build
    broken = replace(example1.gains, f=np.zeros_like(example1.gains.f))
    with pytest.raises(SynthesisError, match="f_stabilizes_observer"):
        build_protocol("P4", example1.model, broken)


def test_export_parse_round_trip(tmp_path):
    sc = p1_scenario(horizon=4.0)
    rec = integrate(assemble(sc))
    rep = sync_metrics(rec)
    runs = [RunRecord(name="case-a", report=rep, trajectory=rec)]
    written = export_report(runs, tmp_path)
    assert sorted(p.name for p in map(_as_path, written)) == ["case-a.csv", "summary.json"]
    back = parse_report(tmp_path)
    assert back == runs  # reports and floats round-trip exactly


@pytest.mark.parametrize("runs, named", [
    ([{"name": "a"}], "runs[0]: missing field 'times'"),
    ({"a": 1}, "runs: expected a list, got dict"),
])
def test_parse_report_names_a_malformed_run(tmp_path, runs, named):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"format": "satsync-report", "runs": runs}))
    with pytest.raises(ValidationError) as err:
        parse_report(path)
    assert str(err.value) == f"{path}: {named}"


def _as_path(p):
    import pathlib

    return pathlib.Path(p)


def test_export_report_rejects_duplicate_names(tmp_path):
    rep = sync_metrics(synthetic_record(np.zeros((3, 1)), tol=0.5, window=2.0))
    runs = [RunRecord(name="dup", report=rep), RunRecord(name="dup", report=rep)]
    with pytest.raises(ValidationError, match="dup"):
        export_report(runs, tmp_path)


def test_export_report_rejects_names_that_make_one_file(tmp_path):
    rec = integrate(assemble(p1_scenario(horizon=0.5)))
    rep = sync_metrics(rec)
    runs = [RunRecord(name=name, report=rep, trajectory=rec) for name in ("case a", "case-a")]
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="'case a' and 'case-a' would both write case-a.csv"):
        export_report(runs, out)
    assert not out.exists()  # rejected before anything was written
    # an iterable's records are checked as they arrive, and nothing moves into place
    with pytest.raises(ValidationError, match="'case a' and 'case-a'"):
        export_report(iter(runs), out)
    assert not out.exists()


@pytest.mark.needs_fork
def test_run_cases_record_into_shared_states_through_a_pool(monkeypatch):
    made = []

    class Recorded(analysis.SharedMatrix):
        def __init__(self, rows, cols):
            super().__init__(rows, cols)
            made.append(self)

    monkeypatch.setattr(analysis, "SharedMatrix", Recorded)
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    cases = [p1_scenario(n_agents=n, horizon=2.0, seed=n) for n in (3, 5)]
    cases = [replace(sc, name=f"p1-{sc.graph.n}") for sc in cases]
    with run_cases(cases) as runs:
        pairs = list(runs)
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


def test_export_blocks_of_a_shared_record_carry_no_rows():
    # a run_cases record holds its SharedMatrix: a block pickles to the
    # same size whatever its rows, but for the bytes of its two row
    # numbers (pickle writes an int in 1, 2 or 4 bytes)
    sc = p1_scenario(horizon=4.0)
    with run_cases([sc]) as pairs:
        (_, run), = pairs
    assert isinstance(run.trajectory.states, analysis.SharedMatrix)

    def size(rec, rows):
        return len(pickle.dumps(next(_time_blocks(rec, rows))))

    assert abs(size(run.trajectory, 100) - size(run.trajectory, _EXPORT_ROWS)) <= 6
    # nor the protocol realization: only the three fields the signals
    # derive from travel
    assert size(run.trajectory, _EXPORT_ROWS) < 1024


# the test process, in which _write_block_in_a_worker refuses to run
_CALLER = os.getpid()
_write_block = simulation._write_block


def _write_block_in_a_worker(item):
    assert os.getpid() != _CALLER, "a block was formatted in the calling process"
    return _write_block(item)


def _no_process(self):
    raise AssertionError("a process was started")


@pytest.mark.needs_fork
def test_a_run_cases_record_exports_through_its_pool_and_after_it_in_process(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    sc = p1_scenario(horizon=4.0)
    alone = run_case(sc).trajectory
    assert len(alone.times) * sc.graph.n > _EXPORT_ROWS  # a block for each worker
    export_trajectory(alone, tmp_path / "alone.csv")
    want = (tmp_path / "alone.csv").read_bytes()
    with run_cases([sc]) as pairs:
        (_, run), = pairs
        with monkeypatch.context() as m:
            m.setattr(simulation, "_write_block", _write_block_in_a_worker)
            export_trajectory(run.trajectory, tmp_path / "pooled.csv")
    assert (tmp_path / "pooled.csv").read_bytes() == want
    assert multiprocessing.active_children() == []
    # the pool is gone: the same record exports in process
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_process)
    export_trajectory(run.trajectory, tmp_path / "after.csv")
    assert (tmp_path / "after.csv").read_bytes() == want
    assert multiprocessing.active_children() == []


def test_a_run_case_record_exports_in_process(tmp_path, monkeypatch):
    sc = p1_scenario(horizon=4.0)
    rec = run_case(sc).trajectory
    assert len(list(_time_blocks(rec))) > 1
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_process)
    export_trajectory(rec, tmp_path / "run.csv")
    assert multiprocessing.active_children() == []
    assert len((tmp_path / "run.csv").read_bytes().splitlines()) == 1 + rec.x.shape[0] * rec.x.shape[1]


@pytest.mark.needs_fork
def test_export_report_leaves_no_worker_processes(tmp_path, monkeypatch):
    # the second record's CSV path turns into a directory once the pool runs
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    cases = [replace(p1_scenario(horizon=4.0), name=name) for name in ("a", "b")]
    real = analysis.export_trajectory
    blocked = []

    def export_then_block(record, path):
        real(record, path)
        assert multiprocessing.active_children()  # the pool is running
        if os.path.basename(path) == "a.csv" and blocked:
            os.mkdir(blocked[0])

    monkeypatch.setattr(analysis, "export_trajectory", export_then_block)
    with run_cases(cases) as pairs:
        export_report((run for _, run in pairs), tmp_path / "ok")
    assert multiprocessing.active_children() == []
    blocked.append(tmp_path / "fail" / "b.csv")
    with pytest.raises(IsADirectoryError), run_cases(cases) as pairs:
        export_report((run for _, run in pairs), tmp_path / "fail")
    assert multiprocessing.active_children() == []
    # the failure moved nothing into the run directory
    assert os.listdir(tmp_path / "fail") == ["b.csv"]


def test_case_workers_are_no_more_than_blocks_or_usable_cpus(monkeypatch):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 64)
    assert analysis._case_workers(401 * 3) == 2  # 1203 rows make two blocks
    assert analysis._case_workers(_EXPORT_ROWS) == 1
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    assert analysis._case_workers(100 * _EXPORT_ROWS) == 2
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 1)
    assert analysis._case_workers(100 * _EXPORT_ROWS) == 1
