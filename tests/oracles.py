"""Reference implementations the tests compare the package against,
and the code that only the tests use.

Each reference computes a quantity the package computes another way
(or no longer computes at all), in the plainest form: the two diffusive
network signals from the Laplacians; the closed loop's right-hand side
in its two-product form (one product each with L and Lbar, and the
root-flag couplings on their own) and its dense M, G, U by ``np.kron``,
both built from the realization and the graph alone, never from
``assemble``'s arrays; stage-wise RK4 on any right-hand side; the
reference trajectory integrated alone; the expanded-Laplacian spectrum
test; the random graph generator as it drew with ``Generator.choice``;
and whole-record scoring and step building. ``block_rates`` and
``block_stage_rates`` are no references: they run the package's own
per-agent stage, the side the references are held against.

The code only the tests use is kept out of the package: the
presets' parsed models and gains, a record's controller signals and
proof coordinates, the energy certificates of the full-state static
protocols (P1 on neutrally stable agents, P3 on chained integrators)
and their step-to-step check, the saturation potential, a definiteness
test, and reading a trajectory CSV or writing a graph file back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from satsync import simulation
from satsync.agents import ModelClass, saturate
from satsync.errors import ValidationError
from satsync.gains import design_K_double, solve_P_neutral
from satsync.graphs import _WEIGHT_GRID, CommGraph, check_rootset, laplacian
from satsync.linalg import EIG_TOL, _square, solve_lyapunov
from satsync.presets import preset_scenario
from satsync.protocols import KINDS
from satsync.scenario import parse_scenario_doc, serialize_graph
from satsync.simulation import _signal_columns


@dataclass(frozen=True)
class NetworkSignals:
    """Stacked diffusive signals, one row per agent.

    ``zeta_hat_1``/``zeta_hat_2`` are the state/input components of
    zeta_hat for partial-state kinds; full-state kinds put the whole
    signal in ``zeta_hat_1`` and leave ``zeta_hat_2`` as None.
    """

    zeta_bar: np.ndarray
    zeta_hat_1: np.ndarray
    zeta_hat_2: np.ndarray | None

    def zeta_hat(self):
        if self.zeta_hat_2 is None:
            return self.zeta_hat_1
        return np.hstack([self.zeta_hat_1, self.zeta_hat_2])


def compute_network_signals(kind, graph, y, y_r, xi, state_dim=None):
    """Evaluate the two diffusive signals for a stacked network snapshot.

    ``y`` is (N, q_out) stacked agent outputs, ``y_r`` the reference
    output, ``xi`` the (N, xi_dim) stacked exchanged values. For
    partial-state kinds ``state_dim`` (the agent state dimension n)
    locates the split of zeta_hat into its state and input components.

    zeta_bar row i is the expanded-Laplacian weighting of the output
    errors, sum_j lbar_ij (y_j - y_r) -- identical to the neighbor-sum
    form sum_j a_ij (y_i - y_j) + iota_i (y_i - y_r). zeta_hat row i is
    the plain-Laplacian weighting sum_j a_ij (xi_i - xi_j).
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown protocol kind {kind!r}")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    y_r = np.asarray(y_r, dtype=float).reshape(-1)
    if y.shape[0] != graph.n or xi.shape[0] != graph.n:
        raise ValidationError(
            f"need one row per agent: y has {y.shape[0]}, xi has {xi.shape[0]}, "
            f"graph has {graph.n}"
        )
    if y.shape[1] != y_r.shape[0]:
        raise ValidationError(
            f"y rows have length {y.shape[1]} but y_r has length {y_r.shape[0]}"
        )
    pair = laplacian(graph)
    zeta_bar = pair.Lbar @ (y - y_r)
    zeta_hat = pair.L @ xi
    if kind in ("P1", "P3", "P5"):  # the full-state kinds
        return NetworkSignals(zeta_bar=zeta_bar, zeta_hat_1=zeta_hat, zeta_hat_2=None)
    if state_dim is None:
        raise ValidationError("partial-state kinds need state_dim to split zeta_hat")
    if not 0 < state_dim < xi.shape[1]:
        raise ValidationError(
            f"state_dim {state_dim} does not split xi of width {xi.shape[1]}"
        )
    return NetworkSignals(
        zeta_bar=zeta_bar,
        zeta_hat_1=zeta_hat[:, :state_dim],
        zeta_hat_2=zeta_hat[:, state_dim:],
    )


def root_blocks(model, proto):
    """The root-flag couplings ``(root_state, root_input)`` of a
    realization, built per exchange kind as realizations once carried
    them: a root agent adds ``root_input sat(u) - root_state x_c`` to
    its controller's rate.

    They are asserted to equal -d_x h_c and d_u (d_c = [d_x | d_u] split
    at the state part of xi), which is what lets the package fold them
    and the L terms into one product with Lbar = L + diag(iota).
    """
    n, m, n_c = model.n, model.m, proto.controller_state_dim
    if proto.uses_observer:
        root_state = np.zeros((n_c, n_c))
        root_state[n:, n:] = np.eye(n)
        root_input = np.zeros((n_c, m))
        root_input[:n, :] = model.b
    else:
        root_state, root_input = np.eye(n_c), np.zeros((n_c, m))
    q = proto.h_c.shape[0]
    d_state, d_input = proto.d_c[:, :q], proto.d_c[:, q:]
    if not d_input.size:
        d_input = np.zeros((n_c, m))
    assert np.array_equal(root_state, -(d_state @ proto.h_c))
    assert np.array_equal(root_input, d_input)
    return root_state, root_input


def _stage_steps(f, z, dt, steps):
    """The state after each classical RK4 step of dz/dt = f(t, z)."""
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        t = k * dt
        k1 = f(t, z)
        k2 = f(t + half, z + half * k1)
        k3 = f(t + half, z + half * k2)
        k4 = f(t + dt, z + dt * k3)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield z


def rk4(f, z0, dt, steps, record_every=1):
    """Classical 4th-order fixed-step integration of dz/dt = f(t, z),
    stage by stage.

    Returns (times, states) with states[k] the state at times[k]; the
    initial and final states are always recorded, intermediates every
    ``record_every`` steps, through ``simulation._record``, which aborts
    with the offending time if the state stops being finite.
    """
    z = np.asarray(z0, dtype=float).copy()
    states = np.empty((-(-steps // record_every) + 1, z.size))
    return simulation._record(_stage_steps(f, z, dt, steps), z, dt, steps, record_every, states)


def block_rates(loop, z, s=None):
    """dz/dt of the package's per-agent stage (``simulation._Block``) at
    states ``z`` and saturated inputs ``s``, which may carry the same
    leading batch axes before their dim and N x m. Without ``s`` the
    inputs are the saturated pre-activations f_c Xc, as ``_agent_steps``
    sets them."""
    n, N = loop.scenario.model.n, loop.scenario.graph.n
    lead, dim = z.shape[:-1], z.shape[-1]
    B = int(np.prod(lead, dtype=int))
    block = simulation._Block(loop, B)
    simulation._load(block.stage, np.ascontiguousarray(z.reshape(B, dim).T), n)
    if s is None:
        saturate(np.dot(loop.f_c, block.xc, out=block.s), out=block.s)
    else:
        m = s.shape[-1]
        block.s.reshape(m, B, N + 1)[:, :, :N] = s.reshape(B, N, m).transpose(2, 0, 1)
    out = np.empty((dim, B))
    for part, value in simulation._views(block.rates(), out, n):
        value[...] = part
    return out.T.reshape(lead + (dim,))


def two_product_rates(sc):
    """The closed loop's dz/dt at states ``z`` and saturated inputs
    ``s`` in its two-product form,

        dXc/dt = Xc a_c^T + S b_c^T + iota (S root_input^T - Xc root_state^T)
                 + L (Xc (d_x h_c)^T + S d_u^T) + Lbar X (c_c C)^T
                 - iota x_r^T (c_c C)^T,

    as a function ``rates(z, s)`` of scenario ``sc``, built from its
    realization and graph alone; ``z`` and ``s`` may carry the same
    leading batch axes."""
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, N, n_c = model.n, graph.n, proto.controller_state_dim
    root_state, root_input = root_blocks(model, proto)
    q = proto.h_c.shape[0]
    d_state, d_input = proto.d_c[:, :q], root_input  # d_u, asserted above
    dh = d_state @ proto.h_c
    pair = laplacian(graph)
    iota = graph.root_flags.astype(float)[:, None]
    cc = proto.c_c @ model.c

    def rates(z, s):
        lead = z.shape[:-1]
        x_r = z[..., :n]
        x = z[..., n: n + N * n].reshape(lead + (N, n))
        xc = z[..., n + N * n:].reshape(lead + (N, n_c))
        dx = x @ model.a.T + s @ model.b.T
        dxc = (
            xc @ proto.a_c.T + s @ proto.b_c.T
            + iota * (s @ root_input.T - xc @ root_state.T)
            + pair.L @ (xc @ dh.T + s @ d_input.T)
            + pair.Lbar @ (x @ cc.T)
            - iota * (x_r @ cc.T)[..., None, :]
        )
        return np.concatenate(
            [x_r @ model.a.T, dx.reshape(lead + (-1,)), dxc.reshape(lead + (-1,))], axis=-1
        )

    return rates


def vector_field(sc):
    """dz/dt = f(t, z) of scenario ``sc``, for ``rk4``: ``two_product_rates``
    at the saturated inputs sat(Xc f_c^T) of the realization's f_c."""
    rates, f_c = two_product_rates(sc), sc.protocol.f_c
    N, start = sc.graph.n, sc.model.n * (sc.graph.n + 1)

    def field(t, z):
        xc = z[..., start:].reshape(z.shape[:-1] + (N, -1))
        return rates(z, saturate(xc @ f_c.T))

    return field


def exosystem_reference(a, x_r0, times):
    """Reference trajectory on the same grid the stacked run uses.

    The exosystem inside the stack is autonomous, so integrating it
    alone with the same scheme and steps reproduces the stacked x_r
    column.
    """
    a = np.asarray(a, dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        return np.tile(np.asarray(x_r0, dtype=float), (len(times), 1))
    dt = times[1] - times[0]
    _, states = rk4(lambda t, z: a @ z, x_r0, dt, len(times) - 1)
    return states


def expanded_spectrum_check(graph, tol=EIG_TOL):
    """True iff every eigenvalue of the expanded Laplacian has Re > tol."""
    pair = laplacian(graph)
    vals = np.linalg.eigvals(pair.Lbar)
    return bool(vals.real.min() > tol)


def random_graph_by_choice(n, roots, seed=0, extra_edge_prob=0.2):
    """``generate_graph("random", ...)`` as written with ``rng.choice``:
    a parent drawn from the sorted attached set per non-root node, then
    one uniform draw per missing edge."""
    roots = sorted(set(int(r) for r in roots))
    flags = np.zeros(n, dtype=int)
    flags[[r - 1 for r in roots]] = 1
    weights = np.zeros((n, n))
    rng = np.random.default_rng(seed)
    attached = set(r - 1 for r in roots)
    for i in range(n):
        if i in attached:
            continue
        parent = int(rng.choice(sorted(attached)))
        weights[i, parent] = float(rng.choice(_WEIGHT_GRID))
        attached.add(i)
    for i in range(n):
        for j in range(n):
            if i == j or weights[i, j] > 0:
                continue
            if rng.random() < extra_edge_prob:
                weights[i, j] = float(rng.choice(_WEIGHT_GRID))
    return CommGraph(n=n, weights=weights, root_flags=flags)


def sync_errors_whole(traj):
    """``max_error`` and ``pairwise_error`` of a whole record at once, as
    ``analysis.sync_metrics`` computed them before it scored in blocks:
    temporaries of the record's full T x N x n."""
    deviation = traj.x - traj.x_r[:, None, :]
    max_error = np.linalg.norm(deviation, axis=-1).max(axis=1)
    pairwise = np.zeros_like(max_error)
    for i in range(traj.x.shape[1] - 1):
        gaps = np.linalg.norm(traj.x[:, i:i + 1, :] - traj.x[:, i + 1:, :], axis=-1)
        np.maximum(pairwise, gaps.max(axis=1), out=pairwise)
    return max_error, pairwise


def step_matrix_of_stages(sc, stage_rates):
    """``simulation.step_operator(loop).p`` of a loop of scenario ``sc``,
    summed from kept stages: each stage's k_i kept, then
    z + dt/6 (k1 + 2 k2 + 2 k3 + k4), on the identity columns z of
    [z; s1; s2; s3; s4].

    ``stage_rates(i, stage)`` is k_i at the stage states (columns), with
    stage i's inputs the identity on its own slots: that of
    ``dense_stage_rates`` or of ``block_stage_rates``.
    """
    n, N, dt = sc.model.n, sc.graph.n, sc.dt
    dim, nm = n + N * (n + sc.protocol.controller_state_dim), N * sc.model.m
    z = np.eye(dim, dim + 4 * nm)
    stage, ks = z, []
    for i, step in enumerate((0.5 * dt, 0.5 * dt, dt, None)):
        k = stage_rates(i, stage)
        ks.append(k)
        if step is not None:
            stage = z + step * k
    k1, k2, k3, k4 = ks
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dense_kron_operators(sc):
    """M, G, U of ``dz/dt = M z + G sat(U z)`` for scenario ``sc``,
    written out block by block with dense ``np.kron``."""
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, m, N = model.n, model.m, graph.n
    n_c = proto.controller_state_dim
    pair = laplacian(graph)
    iota = graph.root_flags.astype(float).reshape(N, 1)
    dim = n + N * n + N * n_c
    r, x, c = slice(0, n), slice(n, n + N * n), slice(n + N * n, dim)
    eye = np.eye(N)
    cc_c = proto.c_c @ model.c
    d_state = proto.d_c[:, : proto.h_c.shape[0]]
    d_input = proto.d_c[:, proto.h_c.shape[0]:]

    m_mat = np.zeros((dim, dim))
    m_mat[r, r] = model.a
    m_mat[x, x] = np.kron(eye, model.a)
    m_mat[c, x] = np.kron(pair.Lbar, cc_c)
    m_mat[c, r] = -np.kron(iota, cc_c)
    m_mat[c, c] = np.kron(eye, proto.a_c) + np.kron(pair.Lbar, d_state @ proto.h_c)
    g_mat = np.zeros((dim, N * m))
    g_mat[x, :] = np.kron(eye, model.b)
    g_mat[c, :] = np.kron(eye, proto.b_c)
    if d_input.size:
        g_mat[c, :] += np.kron(pair.Lbar, d_input)
    u_mat = np.zeros((N * m, dim))
    u_mat[:, c] = np.kron(eye, proto.f_c)
    return m_mat, g_mat, u_mat


def dense_stage_rates(sc):
    """k_i = M stage + G on stage i's slots, with the dense M and G of
    ``dense_kron_operators``: the step's polynomial as ``step_operator``
    once formed it."""
    m_mat, g_mat, _ = dense_kron_operators(sc)
    dim, nm = g_mat.shape

    def stage_rates(i, stage):
        k = m_mat @ stage
        k[:, dim + i * nm: dim + (i + 1) * nm] += g_mat
        return k

    return stage_rates


def block_stage_rates(loop):
    """k_i by the package's per-agent stage, one block member per column."""
    N, m = loop.scenario.graph.n, loop.scenario.model.m
    nm = N * m

    def stage_rates(i, stage):
        dim, members = stage.shape
        s = np.zeros((members, nm))
        s[dim + i * nm: dim + (i + 1) * nm] = np.eye(nm)
        return np.ascontiguousarray(block_rates(loop, stage.T, s.reshape(members, N, m)).T)

    return stage_rates


def preset_parts(name):
    """The bundled preset ``name`` parsed: its model, gains and graph
    are those of ``preset_parts(name).model`` and so on."""
    return parse_scenario_doc(preset_scenario(name))


def signals(traj):
    """A record's controller signals, [time, agent, component] each, as
    the trajectory export derives them: x, chi, xhat (observer kinds
    only), u and sat_u."""
    return _signal_columns(traj.scenario.protocol, traj.x, traj.xc)


def proof_coordinates(traj):
    """A record's proof coordinates (e, ebar): e = x_i - x_r - chi_i, and
    for partial-state kinds ebar, the expanded-Laplacian mix of the state
    errors minus xhat (None for full-state kinds)."""
    sig = signals(traj)
    deviation = traj.x - traj.x_r[:, None, :]
    e = deviation - sig["chi"]
    if "xhat" not in sig:
        return e, None
    lbar = laplacian(traj.scenario.graph).Lbar
    return e, np.einsum("ij,tjk->tik", lbar, deviation) - sig["xhat"]


# Energy growth per step, relative to 1 + V, that v_trace_violation forgives
V_TRACE_SLACK = 1e-9


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


def v_trace_violation(v_trace):
    """Worst step-to-step energy growth beyond the integration allowance.

    Returns max_k of V[k+1] - V[k] - V_TRACE_SLACK*(1 + V[k]); a nonpositive
    value means the trace is nonincreasing up to the allowance. Traces
    with fewer than two samples trivially return 0.0.
    """
    v = np.asarray(v_trace, dtype=float)
    if v.size < 2:
        return 0.0
    growth = v[1:] - v[:-1] - V_TRACE_SLACK * (1.0 + v[:-1])
    return float(growth.max())


def _require_certificate_setup(model, graph, rho, wanted, label):
    if model.classification.model_class is not wanted:
        raise ValidationError(f"certificate requires a {label} model")
    if not np.array_equal(model.c, np.eye(model.n)):
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
    track = _tracking_block(model, graph)
    total = track.shape[0]
    p_bar = solve_lyapunov(track, gamma * np.eye(total))
    defect = track.T @ p_bar + p_bar @ track + gamma * np.eye(total)
    residual = float(np.linalg.eigvalsh(0.5 * (defect + defect.T)).max())
    v_trace = None
    if traj is not None:
        dev = traj.x - traj.x_r[:, None, :]
        agent_term = np.einsum("tia,ab,tib->t", dev, p, dev)
        e_flat = proof_coordinates(traj)[0].reshape(len(traj.times), -1)
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

    track = _tracking_block(model, graph)
    gamma = 1.0 + rho / eps * np.linalg.norm(k, 2) ** 2 * np.linalg.norm(track, 2) ** 2
    p_big = solve_lyapunov(track, gamma * np.eye(track.shape[0]))

    dev = traj.x - traj.x_r[:, None, :]
    vel_dev = dev[:, :, vel]
    agent_term = rho * np.einsum("tia,ab,tib->t", vel_dev, p_d, vel_dev)
    e_flat = proof_coordinates(traj)[0].reshape(len(traj.times), -1)
    error_term = np.einsum("ta,ab,tb->t", e_flat, p_big, e_flat)
    # batched form of saturation_potential, one scalar per sample
    mag = np.abs(signals(traj)["u"])
    psi = np.where(mag <= 1.0, 0.5 * mag * mag, mag - 0.5)
    input_term = 2.0 * psi.sum(axis=(1, 2))
    return agent_term + error_term + input_term


def saturation_potential(u):
    """Energy stored in the saturated input: 2 * sum_k int_0^{u_k} sat(s) ds.

    Quadratic inside the linear band, linear outside; nonnegative and
    zero only at u = 0. Its gradient is 2*sat(u), which is what makes it
    the right potential term for Lyapunov bookkeeping of saturated
    inputs.
    """
    u = np.abs(np.asarray(u, dtype=float))
    psi = np.where(u <= 1.0, 0.5 * u * u, u - 0.5)
    return float(2.0 * psi.sum())


def is_negative_definite(a):
    """True iff the symmetric part of ``a`` has all eigenvalues < -EIG_TOL.

    Definiteness of a non-symmetric matrix is judged through its
    symmetric part, which is what quadratic-form arguments see.
    """
    a = _square(a)
    sym = 0.5 * (a + a.T)
    return bool(np.linalg.eigvalsh(sym).max() < -EIG_TOL)


def read_trajectory(path):
    """Read an exported trajectory back as {column name: 1-D array}."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValidationError(
            f"{path}: {len(header)} columns in header, {data.shape[1]} in data"
        )
    return {name: data[:, j] for j, name in enumerate(header)}


def save_graph(graph, path):
    """Write a graph file that ``scenario.load_graph`` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_graph(graph), fh, indent=2)
        fh.write("\n")
