"""Stacked closed loop and fixed-step integration.

The full network state is one vector

    z = (x_r | x_1 .. x_N | xc_1 .. xc_N)

holding the reference exosystem, the agent states, and the controller
states. Everything the agents exchange is diffusive, so the closed loop
is the protocol's per-agent equations (see ``ClosedLoop``): one product
of the stacked per-agent rows with the local and root blocks, and one
product each with the Laplacian L and the expanded Laplacian Lbar, which
is all the graph contributes: N x N times N x n_c per call, where the
Kronecker-product operator the equations factor into,

    dz/dt = M z + G sat(U z),

multiplies each Laplacian entry by a whole block of the realization.
Below ``PER_AGENT_MIN_DIM`` state components ``assemble`` materializes
M, G and U from the same equations. ``sat`` is applied componentwise to
the stacked inputs inside every integrator stage -- the model is
continuous time and the saturation lives inside the plant, so there is
no zero-order hold anywhere.

Integration is classical fixed-step RK4. No adaptivity: the right-hand
side is globally Lipschitz (saturation only flattens it), determinism
and bitwise reproducibility matter more here than step-size cleverness.
A per-agent loop takes RK4's four stages through ``rk4`` and
``ClosedLoop.vector_field``. A materialized loop takes the same step in
one piece: every stage is affine in z and in its own saturated input
s_i, so

    z+ = Phi z + Gamma [s1; s2; s3; s4],
    s_i = sat(A_i z + C_i [s1 .. s_{i-1}]),

with Phi RK4's stability polynomial of dt M (Hairer, Norsett & Wanner,
*Solving ODEs I*, section IV.2). ``integrate`` builds this
``step_operator`` once per run and then spends one product with the
stacked A_i, four saturations with three small products, and one
product with [Phi | Gamma] per step. It rounds differently from the
stage-wise sum: its states stay within about 1e-13 of max|z| of
``rk4``'s on stable steps, and reruns are still bitwise identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import saturate
from .errors import IntegrationError, ValidationError
from .graphs import check_rootset, laplacian

__all__ = [
    "Scenario",
    "ClosedLoop",
    "TrajectoryRecord",
    "assemble",
    "rk4",
    "StepOperator",
    "step_operator",
    "integrate",
    "simulate",
    "export_trajectory",
    "read_trajectory",
    "DEFAULT_DT",
    "DEFAULT_HORIZON",
    "MAX_STEPS",
    "PER_AGENT_MIN_DIM",
]

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 30.0
# Fixed-step integration; dt above 0.1 would be meaningless for the
# oscillatory dynamics here, and the step count is capped outright.
MAX_DT = 0.1
MAX_STEPS = 10_000_000
# Closed loops with at least this many state components apply the
# per-agent equations; smaller ones are materialized and step through
# ``step_operator``. Per step of 800 at dt 0.01, the materialized step
# (its build included) against the per-agent RK4, example2's P6 on seeded
# random graphs (min of 5 interleaved rounds, 2 BLAS threads, 2-vCPU
# x86-64 host; us):
#
#   dim   materialized (build)   per-agent
#   217     42 (7 ms)              140
#   280     65 (10 ms)             139
#   322    102 (15 ms)             136
#   343    118 (17 ms)             155
#   364    153 (21 ms)             143
#   532    354 (54 ms)             147
#
# The step's [Phi | Gamma] has dim x (dim + 4 N m) entries, so kinds with
# more inputs per state cross over earlier: P1 on the rotation (m = 1,
# n = 2) ties at dim 302 (168 vs 158 us), P4 on example1 loses at 362
# (170 vs 152 us). The per-agent step costs about 140 us whatever N up to
# here, most of it numpy call overhead; past here its dense Laplacians
# cost O(N^2) whatever the edge count, so long sparse graphs lose: path
# N = 150, 400, 1000 take 130, 555 and 2761 us per right-hand side,
# against 52, 113 and 289 us for the sparse Kronecker operator it
# replaced.
PER_AGENT_MIN_DIM = 350
# Trajectory export formats about this many CSV rows (whole time steps
# of N rows each) per block, one pool task; a pooled export holds at most
# two blocks per worker in flight, and the CSV kernel formats a block 128
# rows at a time (``_g17.ROWS``). reproduce example2 --dt 0.01 in 2
# workers (medians of 4, 2-vCPU x86-64 host), rows per block: wall s and
# peak RSS MB: 256 2.30 58.3, 512 2.13 59.5, 1024 1.93 60.5, 2048 1.93
# 64.0, 4096 2.01 70.8.
_EXPORT_ROWS = 1024


@dataclass
class Scenario:
    """One fully resolved simulation: who, over what graph, from where.

    ``x0`` rows are per-agent initial states; ``controller0`` rows are
    per-agent controller initial states (zeros when omitted -- the
    synchronization claim holds for every controller start, zero is
    merely the neutral choice). ``seed`` records how random initial
    conditions were drawn by whoever built the scenario; it is carried
    for the record and not consumed here.
    """

    name: str
    model: object
    graph: object
    protocol: object
    x_r0: np.ndarray
    x0: np.ndarray
    controller0: np.ndarray | None = None
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    seed: int | None = None
    record_every: int = 1
    tol: float = 1e-2
    window: float | None = None  # defaults to min(5 s, horizon)

    def __post_init__(self):
        n, n_c = self.model.n, self.protocol.controller_state_dim
        N = self.graph.n
        if not check_rootset(self.graph):
            raise ValidationError(
                "graph fails the root-set reachability condition"
            )
        if not 0 < self.dt <= MAX_DT:
            raise ValidationError(f"dt must be in (0, {MAX_DT}], got {self.dt}")
        if self.horizon < self.dt:
            raise ValidationError(
                f"horizon {self.horizon} shorter than one step {self.dt}"
            )
        if self.horizon / self.dt > MAX_STEPS:
            raise ValidationError(
                f"horizon/dt = {self.horizon / self.dt:.3g} exceeds {MAX_STEPS} steps"
            )
        if self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")
        # the state matrix a run records must fit in the machine
        dim = n + N * (n + n_c)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if self.recorded_steps * dim * 8 > memory:
            raise ValidationError(
                f"the recorded states would take {self.recorded_steps * dim * 8 / 1e9:.3g} GB "
                f"({self.recorded_steps} steps of {dim} states), more than this "
                f"machine's {memory / 1e9:.3g} GB of memory: raise sim.record_every "
                f"({self.record_every}), shorten sim.horizon ({self.horizon:g}) or "
                f"lengthen sim.dt ({self.dt:g})"
            )
        if self.window is None:
            self.window = min(5.0, self.horizon)
        if not 0 < self.window <= self.horizon:
            raise ValidationError(
                f"window must be in (0, horizon], got {self.window}"
            )
        # the run records steps * dt seconds, which rounding can put just
        # below the horizon; allow what sync_metrics allows
        span = self.steps * self.dt
        if self.window > span + 1e-12:
            raise ValidationError(
                f"analysis.window {self.window:g} s exceeds the simulated span of "
                f"{self.steps} steps of {self.dt:g} s = {span:g} s "
                f"(sim.horizon {self.horizon:g}, sim.dt {self.dt:g})"
            )
        self.x_r0 = np.asarray(self.x_r0, dtype=float).reshape(-1)
        if self.x_r0.shape != (n,):
            raise ValidationError(f"x_r0 must have length {n}, got {self.x_r0.shape}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (N, n):
            raise ValidationError(f"x0 must be {N}x{n}, got {self.x0.shape}")
        if self.controller0 is None:
            self.controller0 = np.zeros((N, n_c))
        self.controller0 = np.asarray(self.controller0, dtype=float)
        if self.controller0.shape != (N, n_c):
            raise ValidationError(
                f"controller0 must be {N}x{n_c}, got {self.controller0.shape}"
            )
        for nm in ("x_r0", "x0", "controller0"):
            if not np.all(np.isfinite(getattr(self, nm))):
                raise ValidationError(f"{nm} has non-finite entries")

    @property
    def steps(self):
        return int(round(self.horizon / self.dt))

    @property
    def recorded_steps(self):
        """Time steps a run records: every ``record_every``-th and the last."""
        return -(-self.steps // self.record_every) + 1


@dataclass
class ClosedLoop:
    """The stacked closed loop as the protocol's per-agent equations.

    With the agent states ``X`` (N x n), the controller states ``Xc``
    (N x n_c) and the saturated inputs ``S`` (N x m) as rows per agent,
    and ``d_c = [d_x | d_u]`` split at the state part of xi,

        U       = Xc f_c^T
        dx_r/dt = a x_r
        dX/dt   = X a^T + S b^T
        dXc/dt  = Xc a_c^T + S b_c^T + iota (S root_input^T - Xc root_state^T)
                  + L (Xc h_c^T d_x^T + S d_u^T)              (d_c zeta_hat)
                  + Lbar X (c_c C)^T - iota x_r^T (c_c C)^T   (c_c zeta_bar)

    The per-agent blocks are one product ``[X | Xc | S] @ gain``; the
    graph enters through one product each with ``lap`` (L) and ``lbar``
    (Lbar), and through the root flags ``iota``. ``m_mat``, ``g_mat``
    and ``u_mat``, when set (see ``assemble``), are the same equations
    as dense matrices, dz/dt = m_mat z + g_mat sat(u_mat z), and
    ``integrate`` steps such a loop through its ``step_operator``.
    """

    scenario: Scenario
    lap: np.ndarray
    lbar: np.ndarray
    iota: np.ndarray  # N x 1
    exo: np.ndarray  # x_r -> [dx_r | (c_c C) x_r]
    gain: np.ndarray  # [X | Xc | S] -> [dX | local | root | into L | into Lbar]
    f_t: np.ndarray  # f_c^T
    m_mat: np.ndarray | None = None
    g_mat: np.ndarray | None = None
    u_mat: np.ndarray | None = None

    def inputs(self, z):
        """The controllers' unsaturated inputs U: N x m after z's leading axes."""
        return self._split(z)[2] @ self.f_t

    def rates(self, z, s):
        """dz/dt at states ``z`` and saturated inputs ``s``; linear in both.

        ``z`` may carry leading batch axes, ``s`` the same ones before
        its N x m.
        """
        x_r, x, xc = self._split(z)
        n, n_c = x.shape[-1], xc.shape[-1]
        w = np.concatenate([x, xc, s], axis=-1) @ self.gain
        r = x_r @ self.exo
        out = np.empty(z.shape)
        _, dx, dxc = self._split(out)
        out[..., :n] = r[..., :n]
        dx[...] = w[..., :n]
        # summed as (local + iota root) + L (.) + Lbar (.), so that each
        # entry of a materialized M or G is rounded as its Kronecker sum
        np.multiply(self.iota, w[..., n + n_c: n + 2 * n_c] - r[..., None, n:], out=dxc)
        dxc += w[..., n: n + n_c]
        dxc += self.lap @ w[..., n + 2 * n_c: n + 3 * n_c]
        dxc += self.lbar @ w[..., n + 3 * n_c:]
        return out

    def vector_field(self, t, z):
        return self.rates(z, saturate(self.inputs(z)))

    def _split(self, z):
        n, N = self.exo.shape[0], self.lap.shape[0]
        lead = z.shape[:-1]
        return (
            z[..., :n],
            z[..., n: n + N * n].reshape(lead + (N, n)),
            z[..., n + N * n:].reshape(lead + (N, -1)),
        )

    def initial_state(self):
        sc = self.scenario
        return np.concatenate(
            [sc.x_r0, sc.x0.reshape(-1), sc.controller0.reshape(-1)]
        )

    @property
    def dim(self):
        """Size of the stacked state z."""
        n, N = self.exo.shape[0], self.lap.shape[0]
        return n + N * (n + self.f_t.shape[0])

    @property
    def record_shape(self):
        """(recorded steps, state size) of the matrix ``integrate`` fills."""
        return self.scenario.recorded_steps, self.dim


def assemble(scenario):
    """Build the closed loop of a scenario: its per-agent blocks and graph.

    Below ``PER_AGENT_MIN_DIM`` state components the equations are also
    materialized as dense M, G, U by applying them to identity columns.
    Each entry is then a block entry or its product with a graph entry,
    or a sum of those in the order ``(a_c - iota root_state) + L d_x h_c``,
    so the matrices equal the ``np.kron`` products of the same blocks
    entry for entry.
    """
    sc = scenario
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, m, N = model.n, model.m, graph.n
    n_c = proto.controller_state_dim
    pair = laplacian(graph)
    q = proto.h_c.shape[0]  # state part of the exchanged xi
    d_state, d_input = proto.d_c[:, :q], proto.d_c[:, q:]
    if not d_input.size:
        d_input = np.zeros((n_c, m))
    cc_t = (proto.c_c @ model.c).T
    zero = np.zeros
    gain = np.block(
        [
            [model.a.T, zero((n, 3 * n_c)), cc_t],
            [zero((n_c, n)), proto.a_c.T, -proto.root_state.T, (d_state @ proto.h_c).T, zero((n_c, n_c))],
            [model.b.T, proto.b_c.T, proto.root_input.T, d_input.T, zero((m, n_c))],
        ]
    )
    loop = ClosedLoop(
        scenario=sc,
        lap=pair.L,
        lbar=pair.Lbar,
        iota=graph.root_flags.astype(float).reshape(N, 1),
        exo=np.hstack([model.a.T, cc_t]),
        gain=gain,
        f_t=proto.f_c.T,
    )
    dim = loop.dim
    if dim < PER_AGENT_MIN_DIM:
        # row j of rates(e_j) is column j of M. The matrices are kept in
        # C order: M z on a transposed view sums in another order, and
        # the run directories' bytes would change with it
        eye = np.eye(dim)
        loop.m_mat = np.ascontiguousarray(loop.rates(eye, zero((dim, N, m))).T)
        loop.g_mat = np.ascontiguousarray(
            loop.rates(zero((N * m, dim)), np.eye(N * m).reshape(N * m, N, m)).T
        )
        loop.u_mat = np.ascontiguousarray(loop.inputs(eye).reshape(dim, N * m).T)
    return loop


class StepOperator(NamedTuple):
    """One RK4 step of a materialized closed loop: z+ = p [z; s1; s2; s3; s4].

    The saturated stage inputs are s1 = sat(w1 z) and, for i = 2, 3, 4,
    s_i = sat(w_i z + c[i - 2] [s1 .. s_{i-1}]), with w1 .. w4 the
    consecutive N m row blocks of ``w`` (4 N m x dim). ``p`` is
    [Phi | Gamma] (dim x (dim + 4 N m)), Phi being RK4's stability
    polynomial of dt M.
    """

    w: np.ndarray
    c: tuple
    p: np.ndarray


def step_operator(loop):
    """The RK4 step of a loop's materialized M, G, U at its scenario's dt.

    ``rk4``'s stage recurrence is applied to the identity columns of
    [z; s1; s2; s3; s4], each stage's saturated input taken as an
    unknown: every stage state is then affine in z and in the inputs of
    the stages before it, and each row of ``u_mat`` times a stage state
    is that stage's pre-activation.
    """
    m_mat, g_mat, u_mat = loop.m_mat, loop.g_mat, loop.u_mat
    dim, nm = m_mat.shape[0], u_mat.shape[0]
    dt = loop.scenario.dt
    z = np.eye(dim, dim + 4 * nm)
    stage, ks, pre = z, [], []
    for i, step in enumerate((0.5 * dt, 0.5 * dt, dt, None)):
        pre.append(u_mat @ stage)
        k = m_mat @ stage
        k[:, dim + i * nm: dim + (i + 1) * nm] += g_mat
        ks.append(k)
        if step is not None:
            stage = z + step * k
    k1, k2, k3, k4 = ks
    return StepOperator(
        w=np.vstack([a[:, :dim] for a in pre]),
        c=tuple(a[:, dim: dim + i * nm] for i, a in enumerate(pre) if i),
        p=z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
    )


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


def _operator_steps(op, z, steps):
    """The state after each step of a ``StepOperator`` from z, as a view
    into one of two buffers [z; s1; s2; s3; s4] that the steps take in turn."""
    w, c, p = op
    dim, nm = w.shape[1], w.shape[0] // 4
    # w z lands in the input slots, and stage i's pre-activation is then
    # [c_i | I] times the slots up to its own: one product, no sum
    c = [np.hstack([c_i, np.eye(nm)]) for c_i in c]
    pre = np.empty(nm)

    def views(v):
        inputs = [v[dim + i * nm: dim + (i + 1) * nm] for i in range(4)]
        return v, v[:dim], v[dim:], inputs, [v[dim: dim + i * nm] for i in (2, 3, 4)]

    now, nxt = views(np.empty(p.shape[1])), views(np.empty(p.shape[1]))
    now[1][:] = z
    for _ in range(steps):
        v, z, slots, inputs, upto = now
        # np.dot: the same BLAS products as matmul, with less overhead per call
        np.dot(w, z, out=slots)
        saturate(inputs[0], out=inputs[0])
        for c_i, s, s_i in zip(c, upto, inputs[1:]):
            saturate(np.dot(c_i, s, out=pre), out=s_i)
        np.dot(p, v, out=nxt[1])
        now, nxt = nxt, now
        yield now[1]


def _record(trajectory, z0, dt, steps, record_every, states):
    """Record z0 and the states ``trajectory`` yields, one per step of
    dt, as ``rk4`` returns them."""
    if not 0 < dt <= MAX_DT:
        raise ValidationError(f"dt must be in (0, {MAX_DT}], got {dt}")
    if steps > MAX_STEPS:
        raise ValidationError(f"{steps} steps exceed the {MAX_STEPS} cap")
    rec_idx = list(range(0, steps + 1, record_every))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)
    times = np.array([k * dt for k in rec_idx])
    shape = (len(rec_idx), z0.size)
    if states is None:
        states = np.empty(shape)
    elif states.shape != shape:
        raise ValidationError(f"state matrix must be {shape}, got {states.shape}")
    states[0] = z0
    out = 1
    for k, z in enumerate(trajectory, 1):
        if not np.isfinite(z).all():
            raise IntegrationError(f"state became non-finite at t = {k * dt:.6g}", t=k * dt)
        if k == rec_idx[out]:
            states[out] = z
            out += 1
    return times, states


def rk4(f, z0, dt, steps, record_every=1, states=None):
    """Classical 4th-order fixed-step integration of dz/dt = f(t, z).

    Returns (times, states) with states[k] the state at times[k]; the
    initial and final states are always recorded, intermediates every
    ``record_every`` steps. A ``states`` matrix given is filled in
    place; else a new one is made. Aborts with the offending time if
    the state stops being finite.
    """
    z = np.asarray(z0, dtype=float).copy()
    return _record(_stage_steps(f, z, dt, steps), z, dt, steps, record_every, states)


# The controller signals of any span of time steps: TrajectoryRecord's
# properties and the export's blocks evaluate the same expressions.
def _chi(protocol, xc):
    return np.einsum("kj,tij->tik", protocol.h_c, xc) if protocol.uses_observer else xc


def _xhat(protocol, x, xc):
    return xc[:, :, : x.shape[2]] if protocol.uses_observer else None


def _u(protocol, xc):
    return np.einsum("kj,tij->tik", protocol.f_c, xc)


@dataclass
class TrajectoryRecord:
    """The recorded states of one run; the controller signals derive from them.

    ``x_r`` [time, component], ``x`` and ``xc`` [time, agent, component]
    are views into the one state matrix ``rk4`` fills. ``chi``, ``xhat``,
    ``u``, ``sat_u`` and the proof coordinates ``e`` (x_i - x_r - chi_i)
    and ``ebar`` (partial-state kinds: the expanded-Laplacian mix of state
    errors minus xhat) are computed from them on every read.
    """

    times: np.ndarray
    x_r: np.ndarray
    x: np.ndarray
    xc: np.ndarray
    scenario: Scenario

    @classmethod
    def of_states(cls, scenario, times, states):
        """The record whose states[k] (z at times[k]) ``states`` holds."""
        n, N, T = scenario.model.n, scenario.graph.n, len(times)
        return cls(
            times=times,
            x_r=states[:, :n],
            x=states[:, n: n + N * n].reshape(T, N, n),
            xc=states[:, n + N * n:].reshape(T, N, scenario.protocol.controller_state_dim),
            scenario=scenario,
        )

    @property
    def chi(self):
        return _chi(self.scenario.protocol, self.xc)

    @property
    def xhat(self):
        return _xhat(self.scenario.protocol, self.x, self.xc)

    @property
    def u(self):
        return _u(self.scenario.protocol, self.xc)

    @property
    def sat_u(self):
        return saturate(self.u)

    @property
    def e(self):
        return self.x - self.x_r[:, None, :] - self.chi

    @property
    def ebar(self):
        if not self.scenario.protocol.uses_observer:
            return None
        lbar = laplacian(self.scenario.graph).Lbar
        return np.einsum("ij,tjk->tik", lbar, self.x - self.x_r[:, None, :]) - self.xhat


def integrate(loop, states=None):
    """Run a closed loop over its scenario horizon; wrap the recorded states.

    A materialized loop steps through its ``step_operator``, built here;
    any other through ``rk4`` of its ``vector_field``. ``states``, a
    matrix of ``loop.record_shape``, receives the states in place when
    given (see ``rk4``).
    """
    sc = loop.scenario
    z0 = loop.initial_state()
    if loop.m_mat is None:
        times, states = rk4(loop.vector_field, z0, sc.dt, sc.steps, sc.record_every, states)
    else:
        trajectory = _operator_steps(step_operator(loop), z0, sc.steps)
        times, states = _record(trajectory, z0, sc.dt, sc.steps, sc.record_every, states)
    return TrajectoryRecord.of_states(sc, times, states)


def simulate(scenario):
    """assemble + integrate in one call."""
    return integrate(assemble(scenario))


def _time_blocks(record, rows=_EXPORT_ROWS):
    """The record as consecutive blocks of whole time steps, about ``rows``
    CSV rows each; the last one may be shorter.

    A block is ``(protocol, times, x_r, x, xc)``, the states as views:
    all its rows read. The graph stays out, so a block pickled for a
    worker process carries O(N) data, not the N x N weights.
    """
    steps = max(1, rows // record.x.shape[1])
    states = (record.times, record.x_r, record.x, record.xc)
    protocol = record.scenario.protocol
    return (
        (protocol, *(a[k: k + steps] for a in states))
        for k in range(0, len(record.times), steps)
    )


def _signal_columns(protocol, x, xc):
    """The CSV's per-agent column groups of some time steps, in order."""
    columns = {"x": x, "chi": _chi(protocol, xc)}
    xhat = _xhat(protocol, x, xc)
    if xhat is not None:
        columns["xhat"] = xhat
    u = _u(protocol, xc)
    columns.update(u=u, sat_u=saturate(u))
    return columns


def _format_block(block):
    """The CSV rows of a block from ``_time_blocks``, as bytes."""
    # imported here: its tables are built at import, off the start-up path
    from ._g17 import format_rows

    protocol, times, x_r, x, xc = block
    T, N, n = x.shape
    shape = (T, N)
    values = np.concatenate(
        [
            np.broadcast_to(times[:, None, None], shape + (1,)),
            np.broadcast_to(np.arange(1.0, N + 1.0)[None, :, None], shape + (1,)),
            *_signal_columns(protocol, x, xc).values(),
            np.broadcast_to(x_r[:, None, :], shape + (n,)),
        ],
        axis=2,
        dtype=float,
    )
    return format_rows(values.reshape(T * N, -1))


def export_trajectory(record, path, pmap=map):
    """Write one row per (time, agent): t, agent, x, chi, xhat?, u,
    sat_u, xr -- comma separated, header first, 17 significant digits.

    The rows are formatted in blocks of whole time steps (see
    ``_format_block``) through ``pmap``, the builtin ``map`` or a
    ``parallel.process_map`` pool, and written in block order, so the
    bytes do not depend on where a block was formatted. Each value is
    exactly ``'%.17g' % v``, the same conversion as ``format(v, ".17g")``
    (see ``_g17``), and the agent index, a float here, prints as its
    integer.
    """
    n = record.x.shape[2]
    first = _signal_columns(record.scenario.protocol, record.x[:1], record.xc[:1])
    cols = ["t", "agent"]
    cols += [f"{name}{j}" for name, a in first.items() for j in range(a.shape[2])]
    cols += [f"xr{j}" for j in range(n)]
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for text in pmap(_format_block, _time_blocks(record)):
            fh.write(text)


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
