"""Closed-loop assembly, integration accuracy, trajectory round trips."""

import ast
import math
import os
import pickle
from contextlib import contextmanager
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from satsync import simulation
from satsync.agents import AgentModel, saturate
from satsync.analysis import sync_metrics
from satsync.errors import IntegrationError, ValidationError
from satsync.gains import synthesize_gains
from satsync.graphs import CommGraph, generate_graph, laplacian
from satsync.parallel import SharedMatrix, process_map
from satsync.protocols import build_protocol
from satsync.simulation import (
    _EXPORT_ROWS,
    PER_AGENT_MIN_ENTRIES,
    ClosedLoop,
    Scenario,
    TrajectoryRecord,
    _columns,
    _signal_columns,
    _step_entries,
    _time_blocks,
    assemble,
    export_trajectory,
    integrate,
    step_operator,
)

from oracles import (
    block_rates,
    block_stage_rates,
    compute_network_signals,
    dense_kron_operators,
    dense_stage_rates,
    exosystem_reference,
    preset_parts,
    proof_coordinates,
    read_trajectory,
    rk4,
    root_blocks,
    signals,
    step_matrix_of_stages,
    two_product_rates,
    vector_field,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation_scenario(n_agents=3, horizon=2.0, dt=0.01, seed=0, **kw):
    model = AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2))
    graph = generate_graph("random", n_agents, roots=[1], seed=seed)
    proto = build_protocol("P1", model, synthesize_gains(model, "P1"))
    rng = np.random.default_rng(seed)
    return Scenario(
        name="rot",
        model=model,
        graph=graph,
        protocol=proto,
        x_r0=np.array([1.0, 0.0]),
        x0=rng.uniform(-1, 1, (n_agents, 2)),
        dt=dt,
        horizon=horizon,
        **kw,
    )


def _example2_protocols():
    example2 = preset_parts("example2")
    model = example2.model
    full = AgentModel(a=model.a, b=model.b, c=np.eye(model.n))
    return {
        "P6": (model, build_protocol("P6", model, example2.gains)),
        "P5": (full, build_protocol("P5", full, example2.gains)),
    }


EXAMPLE2_PROTOCOLS = _example2_protocols()


def p6_scenario(n_agents=3, horizon=15.0, seed=2):
    """example2's observer-based P6 on a seeded random graph."""
    model, proto = EXAMPLE2_PROTOCOLS["P6"]
    return Scenario(
        name="p6", model=model, graph=generate_graph("random", n_agents, roots=[1], seed=seed),
        protocol=proto, x_r0=np.ones(model.n),
        x0=np.random.default_rng(seed).uniform(-0.5, 0.5, (n_agents, model.n)),
        dt=0.01, horizon=horizon,
    )


def step_entries(loop):
    """Entries of a loop's RK4 step matrix [Phi | Gamma]."""
    sc = loop.scenario
    return _step_entries(sc.dim, sc.graph.n * sc.model.m)


def materialized_agents(model, proto):
    """The most agents a loop of ``model`` and realization ``proto`` can
    have and still step through its ``step_operator``."""
    n, width = model.n, model.n + proto.controller_state_dim
    N = 1
    while _step_entries(n + (N + 1) * width, (N + 1) * model.m) < PER_AGENT_MIN_ENTRIES:
        N += 1
    return N


def test_rk4_fourth_order_on_exponential():
    f = lambda t, z: -z
    errs = []
    for dt in (0.1, 0.05):
        _, zs = rk4(f, np.array([1.0]), dt, int(round(1.0 / dt)))
        errs.append(abs(zs[-1, 0] - np.exp(-1.0)))
    # halving dt must cut the error by about 2^4
    assert errs[0] / errs[1] > 12.0


def test_rk4_record_every_thins_consistently():
    f = lambda t, z: -z
    t_all, z_all = rk4(f, np.array([1.0]), 0.1, 10)
    t_thin, z_thin = rk4(f, np.array([1.0]), 0.1, 10, record_every=5)
    assert np.array_equal(t_thin, t_all[::5])
    assert np.array_equal(z_thin, z_all[::5])


@pytest.mark.parametrize("record_every", [1, 7])
def test_recorded_times_are_the_steps_times_dt_bitwise(record_every):
    # 1003 steps: thinned by 7, the last step is not a multiple of 7 and
    # is recorded on its own
    steps, dt = 1003, 0.013
    idx = list(range(0, steps + 1, record_every))
    if idx[-1] != steps:
        idx.append(steps)
    times, _ = rk4(lambda t, z: -z, np.array([1.0]), dt, steps, record_every)
    assert times.tobytes() == np.array([k * dt for k in idx]).tobytes()
    # a thinning beyond the last step, and beyond an int64, keeps the ends
    times, _ = rk4(lambda t, z: -z, np.array([1.0]), dt, steps, 10**30)
    assert times.tolist() == [0.0, steps * dt]


def test_stacked_dimensions():
    sc = rotation_scenario(n_agents=4)
    loop = assemble(sc)
    n, N = 2, 4
    dim = n + N * n + N * sc.protocol.controller_state_dim
    assert sc.dim == dim
    assert sc.record_shape == (sc.recorded_steps, 1 + dim)
    assert sc.initial_state().shape == (dim,)
    # the loop holds its assembled arrays and nothing the scenario decides
    assert [f.name for f in fields(ClosedLoop)] == ["scenario", "gain_t", "f_c", "lbar_t"]
    assert [name for name in vars(ClosedLoop) if not name.startswith("__")] == []


def test_equilibrium_stays_put():
    # all agents start on the reference with controllers at rest
    sc = rotation_scenario(n_agents=3)
    sc = Scenario(
        name=sc.name,
        model=sc.model,
        graph=sc.graph,
        protocol=sc.protocol,
        x_r0=sc.x_r0,
        x0=np.tile(sc.x_r0, (3, 1)),
        dt=sc.dt,
        horizon=1.0,
    )
    rec = integrate(assemble(sc))
    assert np.max(np.abs(rec.x - rec.x_r[:, None, :])) < 1e-12
    assert np.max(np.abs(signals(rec)["u"])) < 1e-12


@pytest.mark.parametrize("record_every", [1, 3, 7, 1000])
def test_integrate_fills_a_given_state_matrix(record_every):
    sc = rotation_scenario(horizon=0.5, record_every=record_every)
    loop = assemble(sc)
    states = np.full(sc.record_shape, np.nan)
    rec = integrate(loop, states)
    alone = integrate(assemble(sc))
    assert len(alone.times) == sc.recorded_steps == states.shape[0]
    for view in (rec.x_r, rec.x, rec.xc):
        assert np.shares_memory(view, states)
    assert np.array_equal(states, alone.x_r.base)
    with pytest.raises(ValidationError, match="state matrix must be"):
        integrate(loop, np.empty((states.shape[0] + 1, states.shape[1])))


def test_exosystem_reference_matches_stacked_run():
    sc = rotation_scenario()
    loop = assemble(sc)
    n = sc.model.n
    # agents never feed the exosystem: the step's reference rows are zero
    # outside the reference block, exactly
    op = step_operator(loop)
    assert not np.any(op.p[:n, n:])
    rec = integrate(loop)
    ref = exosystem_reference(sc.model.a, sc.x_r0, rec.times)
    # the same RK4 on the same grid, its polynomial of dt a rounded as a
    # matrix instead of stage by stage
    assert np.max(np.abs(rec.x_r - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_simulate_deterministic():
    a = integrate(assemble(rotation_scenario(seed=5)))
    b = integrate(assemble(rotation_scenario(seed=5)))
    for field in ("times", "x_r", "x"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for name, got in signals(a).items():
        assert np.array_equal(got, signals(b)[name]), name
    assert np.array_equal(proof_coordinates(a)[0], proof_coordinates(b)[0])


def test_recorded_inputs_respect_saturation_bounds():
    sig = signals(integrate(assemble(rotation_scenario(seed=3))))
    assert np.all(sig["sat_u"] >= -1.0) and np.all(sig["sat_u"] <= 1.0)
    assert np.max(np.abs(sig["sat_u"] - np.clip(sig["u"], -1, 1))) == 0.0


def test_full_state_error_dynamics_oracle():
    # single rooted agent: e = x - x_r - chi obeys de/dt = (a - iota) e
    sc = rotation_scenario(n_agents=1, dt=0.002, horizon=1.0)
    rec = integrate(assemble(sc))
    a_cl = sc.model.a - np.eye(2)
    e, _ = proof_coordinates(rec)
    _, e_ref = rk4(lambda t, e: a_cl @ e, e[0, 0], sc.dt, len(rec.times) - 1)
    assert np.max(np.abs(e[:, 0, :] - e_ref)) < 1e-9


def eager_signals(rec):
    """The controller signals as ``integrate`` once computed and stored them."""
    sc = rec.scenario
    n, proto, xc = sc.model.n, sc.protocol, rec.xc
    chi = np.einsum("kj,tij->tik", proto.h_c, xc) if proto.uses_observer else xc
    xhat = xc[:, :, :n] if proto.uses_observer else None
    u = np.einsum("kj,tij->tik", proto.f_c, xc)
    sat_u = saturate(u)
    xtilde = rec.x - rec.x_r[:, None, :]
    e = xtilde - chi
    ebar = None
    if proto.uses_observer:
        lbar = laplacian(sc.graph).Lbar
        ebar = np.einsum("ij,tjk->tik", lbar, xtilde) - xhat
    return {"chi": chi, "xhat": xhat, "u": u, "sat_u": sat_u, "e": e, "ebar": ebar}


def _saturating_p1():
    sc = rotation_scenario(seed=3)
    return replace(sc, x0=8.0 * sc.x0)


@pytest.mark.parametrize("make", [_saturating_p1, lambda: p6_scenario(horizon=4.0)], ids=["P1", "P6"])
def test_record_is_the_state_matrix_and_signals_derive_bitwise(make):
    sc = make()
    rec = integrate(assemble(sc))
    assert [f.name for f in fields(TrajectoryRecord)] == ["states", "scenario"]
    # times, x_r, x and xc are views into the one matrix the integrator
    # filled, per row the time and then the state
    states = rec.states
    dim = sc.dim
    assert states.shape == (rec.times.size, 1 + dim)
    for view in (rec.times, rec.x_r, rec.x, rec.xc):
        assert view.base is states and np.shares_memory(view, states)
    # the whole record's signals (_signal_columns) and proof coordinates
    sig = signals(rec)
    e, ebar = proof_coordinates(rec)
    derived = {**sig, "e": e, "ebar": ebar}
    for name, want in eager_signals(rec).items():
        got = derived.get(name)
        if want is None:
            assert got is None, name
        else:
            assert np.array_equal(got, want), name
    assert np.any(np.abs(sig["u"]) > 1.0)  # the clip is exercised
    # export derives the signals per block: each block, the ragged last
    # one included, gives the rows of the whole-run signals, also after
    # the pickle round trip that carries it to a worker process, and it
    # carries the three protocol fields the signals derive from, not the
    # rest of the realization, the scenario or its graph
    names = [name for name in ("x", "chi", "xhat", "u", "sat_u") if name in sig]
    N, n = sc.graph.n, sc.model.n
    for rows in (_EXPORT_ROWS, 100):
        blocks = list(_time_blocks(rec, rows))
        assert len(blocks[-1][3].array) < rows // N
        start = 0
        for block in blocks:
            proto = sc.protocol
            fields_sent = (proto.uses_observer, proto.h_c, proto.f_c)
            assert all(a is b for a, b in zip(block[0], fields_sent, strict=True))
            assert block[1:3] == (N, n)
            stop = start + len(block[3].array)
            for copy in (block, pickle.loads(pickle.dumps(block))):
                protocol, _, _, block_rows = copy
                times, x_r, x, xc = _columns(block_rows.array, N, n)
                assert np.array_equal(times, rec.times[start:stop])
                assert np.array_equal(x_r, rec.x_r[start:stop])
                columns = _signal_columns(protocol, x, xc)
                assert list(columns) == names
                for name, got in columns.items():
                    assert np.array_equal(got, sig[name][start:stop]), (name, start)
            start = stop
        assert start == len(rec.times)


def test_trajectory_round_trip(tmp_path):
    # example2's observer-based P6 (xhat present) on a run longer than
    # one export block
    sc = p6_scenario()
    N, n = sc.graph.n, sc.model.n
    rec = integrate(assemble(sc))
    sig = signals(rec)
    T = rec.times.shape[0]
    assert "xhat" in sig and T > _EXPORT_ROWS // N
    path = tmp_path / "traj.csv"
    export_trajectory(rec, path)
    cols = read_trajectory(path)
    want = {
        "t": np.repeat(rec.times, N),
        "agent": np.tile(np.arange(1.0, N + 1.0), T),
    }
    for name in ("x", "chi", "xhat", "u", "sat_u"):
        arr = sig[name]
        want.update({f"{name}{j}": arr[:, :, j].reshape(-1) for j in range(arr.shape[2])})
    want.update({f"xr{j}": np.repeat(rec.x_r[:, j], N) for j in range(n)})
    # every column comes back bit-exact through the 17-digit format
    assert list(cols) == list(want)
    for name, values in want.items():
        assert np.array_equal(cols[name], values), name


def test_scenario_validation():
    sc = rotation_scenario()
    with pytest.raises(ValidationError, match="dt"):
        Scenario(
            name="x", model=sc.model, graph=sc.graph, protocol=sc.protocol,
            x_r0=sc.x_r0, x0=sc.x0, dt=0.0, horizon=1.0,
        )
    with pytest.raises(ValidationError, match="dt"):
        Scenario(
            name="x", model=sc.model, graph=sc.graph, protocol=sc.protocol,
            x_r0=sc.x_r0, x0=sc.x0, dt=0.2, horizon=1.0,
        )
    with pytest.raises(ValidationError, match="window"):
        Scenario(
            name="x", model=sc.model, graph=sc.graph, protocol=sc.protocol,
            x_r0=sc.x_r0, x0=sc.x0, dt=0.01, horizon=1.0, window=2.0,
        )
    with pytest.raises(ValidationError):
        Scenario(
            name="x", model=sc.model, graph=sc.graph, protocol=sc.protocol,
            x_r0=sc.x_r0, x0=np.zeros((2, 2)), dt=0.01, horizon=1.0,  # wrong agent count
        )

    # 5 s at dt 0.08 rounds to 62 steps, 4.96 s; the default 5 s window
    # does not fit
    with pytest.raises(ValidationError, match=r"analysis\.window 5 s .* 4\.96 s .*sim\.horizon 5, sim\.dt 0\.08"):
        replace(sc, dt=0.08, horizon=5.0, window=None)
    assert replace(sc, dt=0.08, horizon=5.0, window=4.96).steps == 62
    # 10 steps of 0.09 s record 0.8999999999999999 s: a 0.9 s window is
    # inside the allowance of 1e-12 s
    rec = integrate(assemble(replace(sc, dt=0.09, horizon=0.9, window=None)))
    assert rec.times[-1] - rec.times[0] < 0.9
    assert sync_metrics(rec).window == 0.9
    # every setting a run is scored by, and its length and thinning, are
    # checked where they are stated, each error naming its document field
    paths = {"window": r"analysis\.window", "tol": r"analysis\.tol",
             "horizon": r"sim\.horizon", "record_every": r"sim\.record_every"}
    for field, value in [
        ("window", 0.0), ("window", -1.0), ("window", math.nan),
        ("tol", 0.0), ("tol", -1.0), ("tol", math.inf), ("tol", math.nan),
        ("horizon", math.nan), ("horizon", math.inf), ("horizon", -1.0),
        ("record_every", 0), ("record_every", 2.5), ("record_every", math.nan), ("record_every", 2.0),
    ]:
        with pytest.raises(ValidationError, match=f"^{paths[field]} must"):
            replace(sc, **{field: value})


@pytest.mark.filterwarnings("ignore:overflow")
def test_integration_error_reports_time_of_blowup():
    # state magnitudes near the float ceiling overflow inside the stage
    # arithmetic within a few steps
    with pytest.raises(IntegrationError) as err:
        rk4(lambda t, z: 10.0 * z, np.array([1e307]), 0.1, 500)
    assert err.value.t is not None and 0.0 < err.value.t <= 50.0


def _kind_protocols():
    """(model, realization) of every protocol kind: the rotation for the
    neutrally stable kinds, example1's double integrator and example2's
    mixed model for the others."""
    b = np.array([[0.0], [1.0]])
    rot_full = AgentModel(a=ROTATION, b=b, c=np.eye(2))
    rot_partial = AgentModel(a=ROTATION, b=b, c=np.array([[1.0, 0.0]]))
    example1 = preset_parts("example1")
    di = example1.model
    di_full = AgentModel(a=di.a, b=di.b, c=np.eye(di.n))
    kinds = {
        "P1": (rot_full, build_protocol("P1", rot_full, synthesize_gains(rot_full, "P1"))),
        "P2": (rot_partial, build_protocol("P2", rot_partial, synthesize_gains(rot_partial, "P2"))),
        "P3": (di_full, build_protocol("P3", di_full, example1.gains)),
        "P4": (di, build_protocol("P4", di, example1.gains)),
    }
    return {**kinds, **EXAMPLE2_PROTOCOLS}


KIND_PROTOCOLS = _kind_protocols()


def drawn_scenario(kind, family, n_agents, dt, steps, record_every, scale, seed):
    """A run of ``kind`` on a seeded ``family`` graph from states drawn in
    [-scale, scale]; the generator that drew them, for the caller's draws."""
    model, proto = KIND_PROTOCOLS[kind]
    n, n_c = model.n, proto.controller_state_dim
    rng = np.random.default_rng(seed)
    sc = Scenario(
        name="eq", model=model, graph=generate_graph(family, n_agents, roots=[1], seed=seed),
        protocol=proto, x_r0=rng.uniform(-scale, scale, n),
        x0=rng.uniform(-scale, scale, (n_agents, n)),
        controller0=rng.uniform(-scale, scale, (n_agents, n_c)),
        dt=dt, horizon=steps * dt, record_every=record_every,
    )
    return sc, rng


def assert_matches_stage_wise_rk4(loop, times, got, rng):
    """The recorded ``times`` and states ``got`` of a run of ``loop`` are
    the times of ``rk4`` on the scenario's own ``vector_field``, its states
    within 1e-12 of max|z|, and score the same verdicts and convergence
    times."""
    sc = loop.scenario
    want_times, ref = rk4(vector_field(sc), sc.initial_state(), sc.dt, sc.steps, sc.record_every)
    assert np.array_equal(times, want_times)
    assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * np.max(np.abs(ref)))
    # verdicts at the scenario's tolerance and at one set by a recorded
    # error of the reference run, with a window of the drawn length
    errors = sync_metrics(TrajectoryRecord(np.column_stack([times, ref]), sc)).max_error
    drawn = errors[rng.integers(errors.size)] * (1 + 1e-6)
    window = rng.uniform(0.1, 1.0) * (times[-1] - times[0])
    for scored in (sc, replace(sc, tol=drawn, window=window)):
        a = sync_metrics(TrajectoryRecord(np.column_stack([times, got]), scored))
        b = sync_metrics(TrajectoryRecord(np.column_stack([times, ref]), scored))
        assert (a.converged, a.convergence_time) == (b.converged, b.convergence_time)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_PROTOCOLS)),
    family=st.sampled_from(["random", "path", "star"]),
    size=st.floats(0.0, 1.0),
    # up to the 0.01 s of the benchmark: at 0.03 s RK4 is unstable on some
    # of these networks (its polynomial of dt (M + G U) has spectral
    # radius 4-9), and both runs then amplify their rounding errors
    dt=st.floats(0.001, 0.01),
    steps=st.integers(1, 150),
    record_every=st.integers(1, 20),
    scale=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**16),
)
def test_materialized_step_matches_stage_wise_rk4(
    kind, family, size, dt, steps, record_every, scale, seed
):
    n_agents = 1 + int(size * (materialized_agents(*KIND_PROTOCOLS[kind]) - 1))
    sc, rng = drawn_scenario(kind, family, n_agents, dt, steps, record_every, scale, seed)
    loop = assemble(sc)
    assert step_entries(loop) < PER_AGENT_MIN_ENTRIES
    rec = integrate(loop)
    assert_matches_stage_wise_rk4(loop, rec.times, rec.states[:, 1:], rng)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_PROTOCOLS)),
    family=st.sampled_from(["random", "path", "star"]),
    size=st.floats(0.0, 1.0),
    dt=st.floats(0.001, 0.01),
    steps=st.integers(1, 100),
    record_every=st.sampled_from([1, 7]),
    scale=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**16),
)
@example(kind="P6", family="star", size=0.0, dt=0.01, steps=30, record_every=7, scale=1.0, seed=0)
@example(kind="P1", family="path", size=1.0, dt=0.001, steps=20, record_every=1, scale=5.0, seed=1)
def test_per_agent_steps_match_stage_wise_rk4(
    kind, family, size, dt, steps, record_every, scale, seed
):
    # from one agent to twice the most the materialized step takes: below
    # the threshold the kernel is called here, as integrate would not
    n_agents = 1 + int(size * (2 * materialized_agents(*KIND_PROTOCOLS[kind]) - 1))
    sc, rng = drawn_scenario(kind, family, n_agents, dt, steps, record_every, scale, seed)
    loop = assemble(sc)
    z0 = sc.initial_state()
    trajectory = simulation._agent_steps(loop, z0, dt, steps)
    states = np.empty((-(-steps // record_every) + 1, z0.size))
    times, got = simulation._record(trajectory, z0, dt, steps, record_every, states)
    assert_matches_stage_wise_rk4(loop, times, got, rng)


def blowup_loop(kind, n_agents):
    """A loop of ``kind`` on a seeded random graph started near the float
    ceiling, where its products overflow."""
    model, proto = KIND_PROTOCOLS[kind]
    signs = np.random.default_rng(0).choice([-1.0, 1.0], (n_agents, model.n))
    return assemble(Scenario(
        name="blowup", model=model, graph=generate_graph("random", n_agents, roots=[1], seed=0),
        protocol=proto, x_r0=np.full(model.n, -1e308), x0=1e308 * signs,
        dt=0.01, horizon=1.0,
    ))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("kind", ["P1", "P6"])
def test_materialized_step_reports_time_of_blowup(kind):
    loop = blowup_loop(kind, 3)
    assert step_entries(loop) < PER_AGENT_MIN_ENTRIES
    with pytest.raises(IntegrationError) as err:
        integrate(loop)
    assert err.value.t is not None and 0.0 < err.value.t <= loop.scenario.horizon


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_per_agent_step_reports_time_of_blowup():
    loop = blowup_loop("P6", materialized_agents(*KIND_PROTOCOLS["P6"]) + 1)
    assert step_entries(loop) >= PER_AGENT_MIN_ENTRIES
    with pytest.raises(IntegrationError) as err:
        integrate(loop)
    assert err.value.t is not None and 0.0 < err.value.t <= loop.scenario.horizon


def test_no_loop_integrates_through_rk4_or_the_vector_field(monkeypatch):
    # the stage-wise RK4 and the row-major vector field are the tests'
    # references, not the package's
    for name in ("rk4", "_stage_steps"):
        assert not hasattr(simulation, name), name
    for name in ("vector_field", "rates", "inputs", "_split"):
        assert not hasattr(ClosedLoop, name), name
    # the largest example2 P6 network below the threshold and the
    # smallest at or above it
    below = materialized_agents(*EXAMPLE2_PROTOCOLS["P6"])
    small = assemble(p6_scenario(n_agents=below, horizon=0.05))
    large = assemble(p6_scenario(n_agents=below + 1, horizon=0.05))
    assert step_entries(small) < PER_AGENT_MIN_ENTRIES <= step_entries(large)
    kernel = simulation._agent_steps
    calls = []

    def counted(loop, *args):
        calls.append(loop)
        return kernel(loop, *args)

    monkeypatch.setattr(simulation, "_agent_steps", counted)
    integrate(small)
    integrate(large)
    assert calls == [large]


def test_no_oracle_but_block_rates_reads_the_loops_arrays():
    # the references are built from the scenario alone, so a fault in
    # assemble's gain^T or [Lbar | -iota]^T sits on one side of each
    # comparison, not on both
    with open(os.path.join(os.path.dirname(__file__), "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = ("gain_t", "lbar_t")
    readers = {
        getattr(node, "name", None)
        for node in tree.body
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute) and inner.attr in names
        or isinstance(inner, ast.Constant) and inner.value in names
    }
    assert readers <= {"block_rates"}, readers


class _Kernel(Exception):
    pass


@pytest.mark.parametrize(
    "kind, n_agents, dim, kernel",
    [
        # reproduce example2's two networks
        ("P6", 3, 70, "step_operator"),
        ("P6", 10, 217, "step_operator"),
        # the rotation's P1 and example1's P4: past the bound in entries
        # (74.9k and 74.6k) at a smaller dim than P6's N = 10, and below
        # it (65.9k)
        ("P1", 45, 182, "step_operator"),
        ("P1", 48, 194, "_agent_steps"),
        ("P4", 35, 212, "_agent_steps"),
        ("P1", 75, 302, "_agent_steps"),
        ("P4", 60, 362, "_agent_steps"),
        # the scale-n sweep's four sizes
        ("P6", 25, 532, "_agent_steps"),
        ("P6", 50, 1057, "_agent_steps"),
        ("P6", 100, 2107, "_agent_steps"),
        ("P6", 150, 3157, "_agent_steps"),
    ],
)
def test_kernel_is_chosen_by_the_step_matrix_entries(monkeypatch, kind, n_agents, dim, kernel):
    model, proto = KIND_PROTOCOLS[kind]
    loop = assemble(Scenario(
        name="kernel", model=model, graph=generate_graph("random", n_agents, roots=[1], seed=0),
        protocol=proto, x_r0=np.zeros(model.n), x0=np.zeros((n_agents, model.n)),
        dt=0.01, horizon=0.01,
    ))
    assert loop.scenario.dim == dim

    def chosen(name):
        def stop(*args):
            raise _Kernel(name)
        return stop

    for name in ("_agent_steps", "step_operator"):
        monkeypatch.setattr(simulation, name, chosen(name))
    with pytest.raises(_Kernel) as err:
        integrate(loop)
    assert err.value.args == (kernel,)


def identity_columns(loop):
    """M, G, U as the package's per-agent stage gives them on identity
    columns: its rates of the identity states at zero inputs and of zero
    states at the identity inputs, and the first pre-activations of
    ``step_operator``, which steps that stage from the identity."""
    dim, N, m = loop.scenario.dim, loop.scenario.graph.n, loop.scenario.model.m
    nm = N * m
    return (
        block_rates(loop, np.eye(dim), np.zeros((dim, N, m))).T,
        block_rates(loop, np.zeros((nm, dim)), np.eye(nm).reshape(nm, N, m)).T,
        step_operator(loop).w[:nm],
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(EXAMPLE2_PROTOCOLS)),
    family=st.sampled_from(["random", "path", "star"]),
    n_agents=st.integers(1, 40),
    extra_roots=st.sets(st.integers(2, 40), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_operator_matches_dense_kron_reference(kind, family, n_agents, extra_roots, seed):
    model, proto = EXAMPLE2_PROTOCOLS[kind]
    n = model.n
    roots = [1] + [r for r in extra_roots if r <= n_agents]
    graph = generate_graph(family, n_agents, roots=roots, seed=seed)
    sc = Scenario(
        name="op", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(n), x0=np.zeros((n_agents, n)),
    )
    loop = assemble(sc)
    want = dense_kron_operators(sc)
    dim = want[0].shape[0]
    assert all(np.array_equal(g, w) for g, w in zip(identity_columns(loop), want))

    # states large enough that some inputs saturate and some do not
    z = np.random.default_rng(seed).uniform(-2.0, 2.0, dim)
    m_mat, g_mat, u_mat = want
    field = m_mat @ z + g_mat @ np.clip(u_mat @ z, -1.0, 1.0)
    err = np.max(np.abs(block_rates(loop, z) - field))
    assert err <= 1e-12 * np.max(np.abs(field))


@pytest.mark.parametrize("kind", sorted(KIND_PROTOCOLS))
@pytest.mark.parametrize("n_agents", [1, 4, 10])
def test_step_operator_is_bitwise_the_sum_of_kept_stages(kind, n_agents):
    # summed in place into one array, the step matrix keeps every bit of
    # the sum over the four kept k_i of the per-agent stage
    model, proto = KIND_PROTOCOLS[kind]
    rng = np.random.default_rng(n_agents)
    sc = Scenario(
        name="p", model=model, graph=generate_graph("random", n_agents, roots=[1], seed=n_agents),
        protocol=proto, x_r0=np.zeros(model.n), x0=rng.uniform(-1, 1, (n_agents, model.n)),
        dt=float(rng.uniform(0.001, 0.01)), horizon=1.0, window=0.5,
    )
    loop = assemble(sc)
    got, want = step_operator(loop).p, step_matrix_of_stages(sc, block_stage_rates(loop))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(KIND_PROTOCOLS))
@pytest.mark.parametrize("family", ["random", "path", "star"])
@pytest.mark.parametrize("size", ["1", "4", "largest"])
def test_step_operator_is_the_dense_rk4_polynomial(kind, family, size):
    # one step of the per-agent stage on the identity columns against
    # RK4's polynomial of the np.kron M, G, built without ``assemble``:
    # the two round differently, by at most 2.8e-17 of max|p| in these
    # cases; the first pre-activations are U itself, up to the sign of
    # zero (np.kron writes 0 x f_c < 0 as -0.0)
    model, proto = KIND_PROTOCOLS[kind]
    n_agents = materialized_agents(model, proto) if size == "largest" else int(size)
    rng = np.random.default_rng(n_agents)
    sc = Scenario(
        name="p", model=model, graph=generate_graph(family, n_agents, roots=[1], seed=n_agents),
        protocol=proto, x_r0=np.zeros(model.n), x0=rng.uniform(-1, 1, (n_agents, model.n)),
        dt=float(rng.uniform(0.001, 0.01)), horizon=1.0, window=0.5,
    )
    loop = assemble(sc)
    assert step_entries(loop) < PER_AGENT_MIN_ENTRIES
    op = step_operator(loop)
    want = step_matrix_of_stages(sc, dense_stage_rates(sc))
    assert op.p.shape == want.shape
    assert np.max(np.abs(op.p - want)) <= 1e-14 * np.max(np.abs(want))
    u_mat = dense_kron_operators(sc)[2]
    assert np.array_equal(op.w[: u_mat.shape[0]], u_mat)


def test_operator_sums_each_entry_in_the_kron_order():
    # a diagonal entry of M's controller block is a_c + Lbar_ii d_x h_c,
    # with Lbar_ii = L_ii + iota_i; at two rooted agents of in-degree 1
    # its terms are 0.4 and 2 x 0.1, and the two-product form's
    # (a_c + iota d_x h_c) + L_ii d_x h_c, in either order, rounds
    # differently
    assert 0.4 + 2 * 0.1 != (0.4 + 0.1) + 0.1
    model, proto = EXAMPLE2_PROTOCOLS["P5"]
    eye = np.eye(proto.controller_state_dim)
    proto = replace(proto, a_c=0.4 * eye, h_c=eye, d_c=0.1 * eye)
    graph = CommGraph(n=2, weights=[[0.0, 1.0], [1.0, 0.0]], root_flags=[1, 1])
    sc = Scenario(
        name="order", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(model.n), x0=np.zeros((2, model.n)),
    )
    loop = assemble(sc)
    got = identity_columns(loop)
    assert all(np.array_equal(g, w) for g, w in zip(got, dense_kron_operators(sc)))
    assert got[0][model.n * 3, model.n * 3] == 0.4 + 2 * 0.1


@st.composite
def rooted_digraphs(draw, max_n=12):
    """Rooted digraphs of up to ``max_n`` nodes with dyadic weights k / 4,
    k = 1 .. 16: every node but the first hears from an earlier one, more
    edges are drawn at random, the first node and any others are roots,
    and the labels are shuffled."""
    n = draw(st.integers(1, max_n))
    weight = st.integers(1, 16).map(lambda k: k / 4)
    weights = np.zeros((n, n))
    for i in range(1, n):
        weights[i, draw(st.integers(0, i - 1))] = draw(weight)
    node = st.integers(0, n - 1)
    for i, j, w in draw(st.lists(st.tuples(node, node, weight), max_size=2 * n)):
        if i != j:
            weights[i, j] = w
    flags = np.array([1] + draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)), dtype=int)
    order = np.array(draw(st.permutations(range(n))), dtype=int)
    return CommGraph(n=n, weights=weights[np.ix_(order, order)], root_flags=flags[order])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_PROTOCOLS)),
    graph=rooted_digraphs(),
    batch=st.sampled_from([(), (1,), (3,)]),
    seed=st.integers(0, 2**16),
)
def test_rates_match_the_two_product_form(kind, graph, batch, seed):
    # one Lbar product in place of the L and Lbar products and the
    # root-flag terms regroups each controller rate's sum: the two agree
    # within 1e-14 of the largest rate (2000 draws gave at most 5.0e-16).
    # The two-product form, the reference every integration and
    # step-operator test compares against, is in turn the equations
    # written agent by agent, grouped differently: within 1e-14 again
    # (2000 draws gave at most 1.1e-15)
    model, proto = KIND_PROTOCOLS[kind]
    N = graph.n
    sc = Scenario(
        name="two", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(model.n), x0=np.zeros((N, model.n)),
    )
    loop = assemble(sc)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, batch + (sc.dim,))
    s = saturate(rng.uniform(-2.0, 2.0, batch + (N, model.m)))
    want = two_product_rates(sc)(z, s)
    got = block_rates(loop, z, s)
    assert got.shape == want.shape == batch + (sc.dim,)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    got = vector_field(sc)(0.0, z)
    want = np.reshape([per_agent_field(sc, member) for member in z.reshape(-1, sc.dim)], z.shape)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def per_agent_field(sc, z):
    """dz/dt one agent at a time, with the network signals from
    ``compute_network_signals`` (zeta_hat a plain-Laplacian combination)
    and the root-flag couplings of ``root_blocks``."""
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, N, n_c = model.n, graph.n, proto.controller_state_dim
    x_r, x, xc = z[:n], z[n: n + N * n].reshape(N, n), z[n + N * n:].reshape(N, n_c)
    sat_u = np.clip([proto.f_c @ xc[i] for i in range(N)], -1.0, 1.0)
    xi = [proto.h_c @ xc[i] for i in range(N)]
    if proto.uses_observer:
        xi = np.hstack([xi, sat_u])
    signals = compute_network_signals(
        proto.kind, graph, x @ model.c.T, model.c @ x_r, xi, state_dim=n
    )
    zeta_bar, zeta_hat = signals.zeta_bar, signals.zeta_hat()
    root_state, root_input = root_blocks(model, proto)
    dx, dxc = [], []
    for i in range(N):
        dx.append(model.a @ x[i] + model.b @ sat_u[i])
        dxc.append(
            proto.a_c @ xc[i] + proto.b_c @ sat_u[i] + proto.c_c @ zeta_bar[i]
            + proto.d_c @ zeta_hat[i]
            + graph.root_flags[i] * (root_input @ sat_u[i] - root_state @ xc[i])
        )
    return np.concatenate([model.a @ x_r, np.ravel(dx), np.ravel(dxc)])


@pytest.mark.parametrize("kind", ["P6", "P5"])
@pytest.mark.parametrize("family, n_agents", [("random", 150), ("path", 400)])
def test_vector_field_matches_per_agent_equations(kind, family, n_agents):
    # dims 3157 and 8407: past where the dense np.kron reference fits
    model, proto = EXAMPLE2_PROTOCOLS[kind]
    graph = generate_graph(family, n_agents, roots=[1, n_agents // 2], seed=n_agents)
    sc = Scenario(
        name="big", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(model.n), x0=np.zeros((n_agents, model.n)),
    )
    loop = assemble(sc)
    assert step_entries(loop) >= PER_AGENT_MIN_ENTRIES
    z = np.random.default_rng(n_agents).uniform(-2.0, 2.0, sc.dim)
    want = per_agent_field(sc, z)
    u = z[model.n + n_agents * model.n:].reshape(n_agents, -1) @ proto.f_c.T
    assert np.any(np.abs(u) > 1.0) and np.any(np.abs(u) < 1.0)
    err = np.max(np.abs(block_rates(loop, z) - want))
    assert err <= 1e-12 * np.max(np.abs(want))


def test_closed_loop_holds_no_network_sized_operator():
    # a seeded N = 200 loop: the per-agent blocks and [Lbar | -iota],
    # counted as the benchmark's tracer counts array fields
    # (a sparse operator by its data, indices and index pointers)
    loop = assemble(p6_scenario(n_agents=200, horizon=1.0))
    total = 0
    for value in vars(loop).values():
        if hasattr(value, "indptr"):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        elif hasattr(value, "nbytes"):
            total += value.nbytes
    assert total < 2 * 2**20


def test_scenario_rejects_a_record_larger_than_memory():
    # N = 400 with 1e7 recorded steps: about 670 GB of states, more than
    # any machine; the check needs no allocation to say so
    model, proto = EXAMPLE2_PROTOCOLS["P6"]
    graph = generate_graph("path", 400, roots=[1], seed=0)
    big = dict(
        name="big", model=model, graph=graph, protocol=proto,
        x_r0=np.zeros(model.n), x0=np.zeros((400, model.n)), dt=0.01, horizon=1e5,
    )
    with pytest.raises(
        ValidationError,
        match=r"recorded states would take 673 GB .* raise sim\.record_every \(1\), "
        r"shorten sim\.horizon \(100000\) or lengthen sim\.dt \(0\.01\)",
    ):
        Scenario(**big)
    # thinned to one recorded step in 10^5, the same run fits
    assert Scenario(**big, record_every=10**5).recorded_steps == 101


def per_value_export(record, path):
    """The CSV writer's byte contract, spelled out one value at a time."""
    T, N, n = record.x.shape
    blocks = [(name, a, a.shape[2]) for name, a in signals(record).items()]
    cols = ["t", "agent"] + [f"{nm}{j}" for nm, _, w in blocks for j in range(w)]
    cols += [f"xr{j}" for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(T):
            xr = [format(float(v), ".17g") for v in record.x_r[k]]
            for i in range(N):
                row = [format(float(record.times[k]), ".17g"), str(i + 1)]
                row += [format(float(v), ".17g") for _, a, _ in blocks for v in a[k, i]]
                fh.write(",".join(row + xr) + "\n")


@contextmanager
def through_a_pool(rec):
    """``rec`` with its states copied into a ``SharedMatrix`` whose export
    a fresh two-worker pool, forked after it, formats, as it does for a
    record of an open ``run_cases`` block."""
    shared = SharedMatrix(*rec.states.shape)
    shared.array[:] = rec.states
    with process_map(2) as pmap:
        shared.pmap = pmap
        yield replace(rec, states=shared)


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e16, 1e17,
    1.0, -1.0, 0.1, 1 / 3, 2.0**53, -(2.0**53) - 2.0, 123456789012345.0,
    1.7976931348623157e308,
    # an exact tie at the 17th digit (rounded half to even), and a double
    # below 10^-14 whose 17 digits round up to it
    1e15 + 0.25, 1e-14,
]


@pytest.mark.parametrize("boundary", ["one step", "block - 1", "block", "block + 1"])
@pytest.mark.parametrize("n_agents", [1, 3, _EXPORT_ROWS // 3 + 1])
# A failing file runs to MBs: report the first differing line, and skip
# shrinking, which would rewrite both files hundreds of times.
@settings(max_examples=6, phases=[Phase.explicit, Phase.generate])
@given(
    n=st.integers(1, 3),
    m=st.sampled_from([1, 3]),
    with_xhat=st.booleans(),
    pool=st.lists(
        st.sampled_from(SPECIAL_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_block_export_matches_per_value_writer(
    tmp_path_factory, n_agents, boundary, n, m, with_xhat, pool, seed
):
    # T sits on either side of the writer's block boundary; the largest
    # network fits only two time steps in a block
    per_block = max(1, _EXPORT_ROWS // n_agents)
    T = {"one step": 1, "block - 1": max(1, per_block - 1), "block": per_block,
         "block + 1": per_block + 1}[boundary]
    rng = np.random.default_rng(seed)
    pool = np.array(pool)

    def draw(*shape):
        return rng.choice(pool, size=shape)

    # a stand-in realization: xhat is the first n controller states (when
    # present), chi the last n, and each input one of the drawn columns
    n_c = 2 * n if with_xhat else n
    protocol = SimpleNamespace(
        uses_observer=with_xhat,
        h_c=np.eye(n_c)[n_c - n:],
        f_c=np.eye(n_c)[[k % n_c for k in range(m)]],
    )
    times, x_r, x, xc = draw(T), draw(T, n), draw(T, n_agents, n), draw(T, n_agents, n_c)
    rec = TrajectoryRecord(
        np.column_stack([times, x_r, x.reshape(T, -1), xc.reshape(T, -1)]),
        SimpleNamespace(protocol=protocol, model=SimpleNamespace(n=n), graph=SimpleNamespace(n=n_agents)),
    )
    tmp = tmp_path_factory.mktemp("export")
    export_trajectory(rec, tmp / "block.csv")
    with through_a_pool(rec) as shared:
        export_trajectory(shared, tmp / "pooled.csv")
    per_value_export(rec, tmp / "oracle.csv")
    want = (tmp / "oracle.csv").read_bytes().splitlines(keepends=True)
    # in process and in worker processes, the same bytes as the oracle
    for name in ("block.csv", "pooled.csv"):
        got = (tmp / name).read_bytes().splitlines(keepends=True)
        assert len(got) == len(want), name
        for line, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"{name} line {line}"


@pytest.mark.parametrize("where", ["in process", "pooled"])
def test_export_appends_each_part_file_and_leaves_none(tmp_path, where):
    # blocks are formatted into part files next to the CSV, which the
    # caller appends to it
    rec = integrate(assemble(p6_scenario(horizon=4.0)))
    assert len(list(_time_blocks(rec))) > 1
    if where == "in process":
        export_trajectory(rec, tmp_path / "run.csv")
    else:
        with through_a_pool(rec) as shared:
            export_trajectory(shared, tmp_path / "run.csv")
    per_value_export(rec, tmp_path / "oracle.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["oracle.csv", "run.csv"]


def test_a_failed_export_leaves_no_part_file(tmp_path, monkeypatch):
    rec = integrate(assemble(p6_scenario(horizon=4.0)))
    real, written = simulation._write_block, []

    def fail_on_the_second_block(item):
        if written:
            raise OSError("disk full")
        written.append(real(item))
        return written[-1]

    monkeypatch.setattr(simulation, "_write_block", fail_on_the_second_block)
    with pytest.raises(OSError, match="disk full"):
        export_trajectory(rec, tmp_path / "run.csv")
    assert written and os.listdir(tmp_path) == ["run.csv"]


def test_a_block_whose_part_file_is_gone_creates_nothing(tmp_path):
    # the caller makes each part file; the formatting call only opens it,
    # so one that runs after its export was removed fails and adds no file
    block = next(_time_blocks(integrate(assemble(p6_scenario(horizon=1.0)))))
    with pytest.raises(FileNotFoundError):
        simulation._write_block((str(tmp_path / "gone"), block))
    assert os.listdir(tmp_path) == []
