"""Acceptance checklist: every release-gating property at its stated tolerance.

Each criterion test emits one ``[PASS]``/``[FAIL]`` line into the
terminal summary (see conftest) and then asserts the criterion as
stated. Criterion 1 is expected to fail: the bundled example1 settings
start agents up to five units from the reference, and with its bundled
gains the protocol does not converge inside the 30 s horizon. The
companion long-horizon test runs the identical configuration (model,
gains, graphs, seed and start box) for 200 s and shows it converging on
both networks. What it shows is that this protocol with these gains
needs more than 30 s, not that unit-bounded inputs cannot cover the
distance in time. The criterion is kept red rather than quietly
retuned.
"""

import json
import time

import numpy as np

from satsync.agents import AgentModel, mixed_decompose, saturate
from satsync.analysis import rho_cases, run_cases, size_cases, sync_metrics
from satsync.cli import main
from satsync.gains import compute_Lambda, design_K_mixed, solve_P_neutral
from satsync.graphs import check_rootset, generate_graph, laplacian, parse_graph
from satsync.presets import GRAPH_A, GRAPH_B, preset_scenario
from satsync.protocols import build_protocol
from satsync.scenario import build_scenario, parse_scenario_doc
from satsync.simulation import Scenario, assemble, integrate

from oracles import (
    compute_network_signals,
    lyapunov_certificate_P1,
    lyapunov_trace_P3,
    preset_parts,
    proof_coordinates,
    rk4,
    saturation_potential,
    signals,
    v_trace_violation,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
DOUBLE_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DOUBLE_B = np.array([[0.0], [1.0]])


def _verdict(log, num, ok, detail):
    log.append(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _preset_run(name, graph_doc, **sim_overrides):
    doc = preset_scenario(name)
    doc["graph"] = graph_doc
    if sim_overrides:
        doc["sim"] = {**doc["sim"], **sim_overrides}
    sc = build_scenario(parse_scenario_doc(json.dumps(doc).encode()))
    started = time.perf_counter()
    rec = integrate(assemble(sc))
    wall = time.perf_counter() - started
    return sync_metrics(rec), wall


def rotation_full_model():
    return AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2))


def double_full_model():
    return AgentModel(a=DOUBLE_A, b=DOUBLE_B, c=np.eye(2))


def _scenario(model, kind, graph, seed=1, ic_scale=1.0, rho=1.0, **sim):
    doc = {
        "name": f"{kind.lower()}-case",
        "model": {"a": model.a.tolist(), "b": model.b.tolist(), "c": model.c.tolist()},
        "graph": graph,
        "protocol": {"kind": kind, "rho": rho},
        "sim": {"seed": seed, "ic_scale": ic_scale, **sim},
    }
    return build_scenario(parse_scenario_doc(json.dumps(doc).encode()))


def test_c01_example1_tracking_at_bundled_settings(acceptance_log):
    results = []
    for label, graph in (("3-node", GRAPH_A), ("10-node", GRAPH_B)):
        report, wall = _preset_run("example1", graph)
        results.append((label, report, wall))
    runtime_ok = all(wall < 10.0 for _, _, wall in results)
    converged = all(rep.converged for _, rep, _ in results)
    detail = "; ".join(
        f"{label}: {'converged at %.1f s' % rep.convergence_time if rep.converged else 'final error %.3g after 30 s' % rep.max_error[-1]}"
        f" ({wall:.1f} s wall)"
        for label, rep, wall in results
    )
    ok = converged and runtime_ok
    _verdict(acceptance_log, 1, ok, f"example1 on both networks -- {detail}")
    assert runtime_ok, "runtime budget exceeded"
    assert converged, (
        "example1 does not converge in its bundled 30 s horizon from its "
        "+/-5 start box, though a bang-bang minimum-time bound puts every "
        "agent within reach in 11.3 s or less: the protocol and its gains set "
        "the time, not the saturation limit; the long-horizon companion test "
        f"shows the identical configuration converging -- {detail}"
    )


def test_example1_converges_given_longer_horizon(acceptance_log):
    # identical model, gains, graphs, seed, and start box; only the horizon
    # grows to cover the saturation-limited approach phase
    results = []
    for label, graph in (("3-node", GRAPH_A), ("10-node", GRAPH_B)):
        report, _ = _preset_run("example1", graph, horizon=200.0)
        results.append((label, report))
    detail = "; ".join(
        f"{label}: converged at {rep.convergence_time:.1f} s" if rep.converged
        else f"{label}: still {rep.max_error[-1]:.3g} away at 200 s"
        for label, rep in results
    )
    ok = all(rep.converged for _, rep in results)
    _verdict(acceptance_log, "1-companion", ok, f"example1 with a 200 s horizon -- {detail}")
    assert ok, detail


def test_c02_example2_tracking_on_both_networks(acceptance_log):
    results = []
    for label, graph in (("3-node", GRAPH_A), ("10-node", GRAPH_B)):
        report, wall = _preset_run("example2", graph)
        results.append((label, report, wall))
    runtime_ok = all(wall < 60.0 for _, _, wall in results)
    converged = all(rep.converged for _, rep, _ in results)
    detail = "; ".join(
        f"{label}: conv at {rep.convergence_time:.1f} s ({wall:.1f} s wall)"
        if rep.converged else f"{label}: final error {rep.max_error[-1]:.3g}"
        for label, rep, wall in results
    )
    ok = converged and runtime_ok
    _verdict(acceptance_log, 2, ok, f"example2 on both networks -- {detail}")
    assert ok, detail


CONTROLLER_FIELDS = (
    "a_c", "b_c", "c_c", "d_c", "f_c", "h_c", "u_gain",
)


def test_c03_one_controller_fits_every_network_size(acceptance_log):
    example1 = preset_parts("example1")
    model = example1.model
    # the sweep replaces the graph and the initial states case by case
    base = Scenario(
        name="c03", model=model, graph=parse_graph(GRAPH_A),
        protocol=build_protocol("P4", model, example1.gains),
        x_r0=np.zeros(model.n), x0=np.zeros((3, model.n)),
        dt=1e-3, horizon=120.0, seed=1, record_every=10,
    )
    with run_cases(size_cases(base, [3, 10, 25])) as runs:
        pairs = list(runs)
    cases = [case for case, _ in pairs]
    reports = [run.report for _, run in pairs]
    bit_identical = all(
        np.array_equal(getattr(cases[0].protocol, f), getattr(c.protocol, f))
        for c in cases[1:] for f in CONTROLLER_FIELDS
    )
    converged = all(r.converged for r in reports)
    detail = ", ".join(
        f"n={c.graph.n}: {'conv at %.1f s' % r.convergence_time if r.converged else 'no'}"
        for c, r in zip(cases, reports)
    )
    ok = bit_identical and converged
    _verdict(
        acceptance_log, 3, ok,
        f"fixed gains over random rooted graphs -- {detail}; "
        f"controller matrices bit-identical: {bit_identical}",
    )
    assert bit_identical
    assert converged, detail


def test_c04_loop_gain_margin_is_unbounded(acceptance_log):
    rhos = [1.0, 10.0, 100.0]

    ex1 = _scenario(preset_parts("example1").model, "P4", GRAPH_A, horizon=60.0)
    with run_cases(rho_cases(ex1, rhos)) as runs:
        ex1_runs = list(runs)

    p1 = _scenario(
        rotation_full_model(), "P1", GRAPH_A, horizon=400.0, record_every=10
    )
    with run_cases(rho_cases(p1, rhos)) as runs:
        p1_runs = list(runs)

    details = []
    ok = True
    for label, runs in (("double-integrator", ex1_runs), ("oscillator", p1_runs)):
        for rho, (_, run) in zip(rhos, runs):
            rep = run.report
            ok &= rep.converged
            details.append(
                f"{label} rho={rho:g}: "
                + (f"conv at {rep.convergence_time:.1f} s" if rep.converged else "no")
            )
    _verdict(acceptance_log, 4, ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_c05_energy_certificates_decrease_stepwise(acceptance_log):
    # v_trace_violation forgives 1e-9 (1 + V) per step (oracles.V_TRACE_SLACK)
    p1 = _scenario(rotation_full_model(), "P1", GRAPH_A, ic_scale=0.5, horizon=30.0)
    rec1 = integrate(assemble(p1))
    cert = lyapunov_certificate_P1(p1.model, p1.graph, 1.0, traj=rec1)
    viol1 = v_trace_violation(cert.v_trace)

    p3 = _scenario(double_full_model(), "P3", GRAPH_A, ic_scale=0.5, horizon=40.0)
    rec3 = integrate(assemble(p3))
    v3 = lyapunov_trace_P3(p3.model, p3.graph, 1.0, rec3)
    viol3 = v_trace_violation(v3)

    ok = viol1 <= 0.0 and viol3 <= 0.0
    _verdict(
        acceptance_log, 5, ok,
        f"worst step increase beyond slack: oscillator certificate {viol1:.3g}, "
        f"double-integrator energy {viol3:.3g} (both must be <= 0)",
    )
    assert viol1 <= 0.0
    assert viol3 <= 0.0


def test_c06_recorded_proof_coordinates_match_their_dynamics(acceptance_log):
    tol = 1e-6

    # controller-error coordinates of a full-state run decouple into
    # a block dynamics driven by the expanded Laplacian
    p3 = _scenario(double_full_model(), "P3", GRAPH_A, ic_scale=0.5, horizon=10.0)
    rec = integrate(assemble(p3))
    e, _ = proof_coordinates(rec)
    lbar = laplacian(p3.graph).Lbar
    n, N = 2, p3.graph.n
    m_e = np.kron(np.eye(N), p3.model.a) - np.kron(lbar, np.eye(n))
    e0 = e[0].reshape(-1)
    _, e_ref = rk4(lambda t, e: m_e @ e, e0, p3.dt, len(rec.times) - 1)
    dev_e = np.max(np.abs(e.reshape(len(rec.times), -1) - e_ref))

    # observer errors of a partial-state run evolve agent-by-agent under
    # the output-injection matrix
    ex1 = _scenario(preset_parts("example1").model, "P4", GRAPH_A, ic_scale=1.0, horizon=10.0)
    rec4 = integrate(assemble(ex1))
    _, ebar = proof_coordinates(rec4)
    f = ex1.protocol.gains.f
    a_obs = ex1.model.a - f @ ex1.model.c
    m_eb = np.kron(np.eye(ex1.graph.n), a_obs)
    eb0 = ebar[0].reshape(-1)
    _, eb_ref = rk4(lambda t, e: m_eb @ e, eb0, ex1.dt, len(rec4.times) - 1)
    dev_eb = np.max(np.abs(ebar.reshape(len(rec4.times), -1) - eb_ref))

    ok = dev_e <= tol and dev_eb <= tol
    _verdict(
        acceptance_log, 6, ok,
        f"controller-error replay deviation {dev_e:.3g}, "
        f"observer-error replay deviation {dev_eb:.3g} (tol {tol:g})",
    )
    assert dev_e <= tol
    assert dev_eb <= tol


def _random_neutral(rng):
    pairs = int(rng.integers(0, 3))
    zeros = int(rng.integers(1 if pairs == 0 else 0, 3))
    n = 2 * pairs + zeros
    a = np.zeros((n, n))
    for j in range(pairs):
        w = float(rng.uniform(0.2, 5.0))
        a[2 * j, 2 * j + 1] = w
        a[2 * j + 1, 2 * j] = -w
    t = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
    return t @ a @ np.linalg.inv(t)


def _random_mixed(rng):
    q = int(rng.integers(1, 3))
    singles = int(rng.integers(0, 2))
    oscpairs = int(rng.integers(1, 3))
    m = q + singles
    n = 2 * q + singles + 2 * oscpairs
    a = np.zeros((n, n))
    for j in range(q):
        a[j, q + j] = 1.0  # position fed by its velocity
    base = 2 * q + singles
    for j in range(oscpairs):
        w = float(rng.uniform(0.3, 4.0))
        a[base + 2 * j, base + 2 * j + 1] = w
        a[base + 2 * j + 1, base + 2 * j] = -w
    b = np.zeros((n, m))
    b[q:2 * q, :q] = np.eye(q)  # velocities driven by the first inputs
    if singles:
        b[2 * q:2 * q + singles, q:] = np.eye(singles)
    b[base:] = rng.uniform(-1.0, 1.0, (2 * oscpairs, m))
    t = rng.standard_normal((n, n)) + (n + 2) * np.eye(n)
    return t @ a @ np.linalg.inv(t), t @ b


def _mixed_conditions(a, b):
    d = mixed_decompose(a, b, np.eye(a.shape[0]))
    k = design_K_mixed(d)
    n = a.shape[0]
    at = np.zeros((n, n))
    at[:2 * d.q, :2 * d.q] = d.a_s
    at[d.m + d.q:, d.m + d.q:] = d.a_omega
    lam = compute_Lambda(d, np.eye(d.q))
    residual = np.linalg.norm(k @ at + d.b_tilde.T @ lam)
    gram = k @ d.b_tilde + d.b_tilde.T @ k.T
    lam_max = np.linalg.eigvalsh(0.5 * (gram + gram.T)).max()
    return residual, lam_max


def test_c07_gain_conditions_hold_over_seeded_families(acceptance_log):
    rng = np.random.default_rng(2024)
    worst_p = 0.0
    for _ in range(100):
        a = _random_neutral(rng)
        p = solve_P_neutral(a)
        lam = np.linalg.eigvalsh(p @ a + a.T @ p).max()
        worst_p = max(worst_p, lam / max(np.linalg.norm(a, 2), 1e-30))
    p_ok = worst_p <= 1e-8

    model2 = preset_parts("example2").model
    worst_res, worst_lam = 0.0, -np.inf
    d2 = mixed_decompose(model2.a, model2.b, model2.c, gamma_x=np.eye(7))
    k2 = design_K_mixed(d2)
    n = 7
    at = np.zeros((n, n))
    at[:2 * d2.q, :2 * d2.q] = d2.a_s
    at[d2.m + d2.q:, d2.m + d2.q:] = d2.a_omega
    lam2 = compute_Lambda(d2, np.eye(d2.q))
    worst_res = np.linalg.norm(k2 @ at + d2.b_tilde.T @ lam2)
    gram = k2 @ d2.b_tilde + d2.b_tilde.T @ k2.T
    worst_lam = np.linalg.eigvalsh(0.5 * (gram + gram.T)).max()
    for _ in range(20):
        a, b = _random_mixed(rng)
        residual, lam_max = _mixed_conditions(a, b)
        worst_res = max(worst_res, residual)
        worst_lam = max(worst_lam, lam_max)
    k_ok = worst_res <= 1e-8 and worst_lam < 0.0

    ok = p_ok and k_ok
    _verdict(
        acceptance_log, 7, ok,
        f"neutral weight: worst relative positive eigenvalue {worst_p:.3g} "
        f"(<= 1e-8); mixed feedback: worst equality residual {worst_res:.3g} "
        f"(<= 1e-8), worst input-dissipation eigenvalue {worst_lam:.3g} (< 0)",
    )
    assert p_ok
    assert k_ok


def test_c08_rooted_graphs_give_stable_couplings(acceptance_log):
    rng = np.random.default_rng(99)
    rooted = 0
    worst_re = np.inf
    row_sums_exact = True
    worst_equiv = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 26))
        n_roots = int(rng.integers(1, min(3, n) + 1))
        roots = sorted(int(r) + 1 for r in rng.choice(n, size=n_roots, replace=False))
        g = generate_graph("random", n, roots=roots, seed=7000 + trial)
        pair = laplacian(g)
        row_sums_exact &= bool(np.all(pair.L.sum(axis=1) == 0.0))
        if not check_rootset(g):
            continue
        rooted += 1
        worst_re = min(worst_re, np.linalg.eigvals(pair.Lbar).real.min())
        if trial % 5 == 0:
            y = rng.standard_normal((n, 2))
            y_r = rng.standard_normal(2)
            xi = rng.standard_normal((n, 2))
            sig = compute_network_signals("P1", g, y, y_r, xi)
            direct_bar = np.zeros_like(y)
            direct_hat = np.zeros_like(xi)
            for i in range(n):
                for j in range(n):
                    direct_bar[i] += g.weights[i, j] * (y[i] - y[j])
                    direct_hat[i] += g.weights[i, j] * (xi[i] - xi[j])
                direct_bar[i] += g.root_flags[i] * (y[i] - y_r)
            worst_equiv = max(
                worst_equiv,
                np.max(np.abs(sig.zeta_bar - direct_bar)),
                np.max(np.abs(sig.zeta_hat_1 - direct_hat)),
            )
    ok = rooted >= 90 and worst_re > 0.0 and row_sums_exact and worst_equiv <= 1e-12
    _verdict(
        acceptance_log, 8, ok,
        f"{rooted}/100 graphs rooted, min Re eigenvalue {worst_re:.3g} (> 0); "
        f"row sums exact: {row_sums_exact}; worst matrix-vs-neighbor-sum "
        f"difference {worst_equiv:.3g} (<= 1e-12)",
    )
    assert ok


def test_c09_saturation_behaves_and_is_respected(acceptance_log):
    sc = build_scenario(parse_scenario_doc(json.dumps(
        {"model": {"preset": "example1"}, "sim": {"horizon": 6.0, "dt": 0.01}}
    ).encode()))
    sat_u = signals(integrate(assemble(sc)))["sat_u"]
    bounds_ok = bool(np.all(sat_u >= -1.0) and np.all(sat_u <= 1.0))

    rng = np.random.default_rng(13)
    u = rng.uniform(-5, 5, size=(500, 3))
    v = rng.uniform(-5, 5, size=(500, 3))
    s = saturate(u)
    props_ok = (
        np.array_equal(saturate(s), s)
        and np.array_equal(saturate(-u), -s)
        and bool(np.all(np.abs(s - saturate(v)) <= np.abs(u - v) + 1e-15))
    )

    h = 1e-7
    grad_dev = 0.0
    flat = rng.uniform(-3, 3, size=60)
    for k in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        grad = (saturation_potential(up) - saturation_potential(dn)) / (2 * h)
        grad_dev = max(grad_dev, abs(grad - 2.0 * saturate(flat[k:k + 1])[0]))
    grad_ok = grad_dev <= 1e-6

    ok = bounds_ok and props_ok and grad_ok
    _verdict(
        acceptance_log, 9, ok,
        f"recorded inputs within [-1, 1]: {bounds_ok}; idempotent/odd/"
        f"1-Lipschitz: {props_ok}; potential gradient deviation {grad_dev:.3g} "
        f"(<= 1e-6)",
    )
    assert ok


def test_c10_verification_rejects_each_broken_ingredient(acceptance_log, tmp_path):
    base = preset_scenario("example1")
    controls = {}

    rootless = json.loads(json.dumps(base))
    rootless["graph"] = {"n": 3, "edges": GRAPH_A["edges"], "roots": []}
    controls["empty root set"] = rootless

    no_f = json.loads(json.dumps(base))
    no_f["protocol"]["gains"]["f"] = [[0.0], [0.0]]
    controls["zero observer gain"] = no_f

    no_k2 = json.loads(json.dumps(base))
    no_k2["protocol"]["gains"]["k"] = [[-10.0, 0.0]]  # velocity block zeroed
    controls["zero velocity feedback"] = no_k2

    bad_rho = json.loads(json.dumps(base))
    bad_rho["protocol"]["rho"] = -1.0
    controls["nonpositive loop gain"] = bad_rho

    outcomes = {}
    for label, doc in controls.items():
        path = tmp_path / f"{label.replace(' ', '-')}.json"
        path.write_text(json.dumps(doc))
        outcomes[label] = main(["verify", "--scenario", str(path)])
    ok = all(rc == 1 for rc in outcomes.values())
    detail = ", ".join(f"{label}: exit {rc}" for label, rc in outcomes.items())
    _verdict(acceptance_log, 10, ok, f"verify rejects every control -- {detail}")
    assert ok, detail
