"""Stacked closed loop and fixed-step integration.

The full network state is one vector

    z = (x_r | x_1 .. x_N | xc_1 .. xc_N)

holding the reference exosystem, the agent states, and the controller
states. Everything the agents exchange is diffusive, so the closed loop
is the protocol's per-agent equations (see ``ClosedLoop``): one product
of the stacked per-agent rows with the local blocks, and one product
with the expanded Laplacian Lbar and the root flags, which is all the
graph contributes: N x (N + 1) times (N + 1) x n_c per call, where the
Kronecker-product operator the equations factor into,

    dz/dt = M z + G sat(U z),

multiplies each Laplacian entry by a whole block of the realization.
``sat`` is applied componentwise to the stacked inputs inside every
integrator stage -- the model is continuous time and the saturation
lives inside the plant, so there is no zero-order hold anywhere.

Integration is classical fixed-step RK4. No adaptivity: the right-hand
side is globally Lipschitz (saturation only flattens it), determinism
and bitwise reproducibility matter more here than step-size cleverness.
Once the [Phi | Gamma] below has ``PER_AGENT_MIN_ENTRIES`` entries,
``integrate`` takes RK4's four stages through ``_agent_steps``: the
per-agent equations on the stage rows held transposed, components as
rows and agents as columns, in buffers made once per run, so a stage is
three products, a saturation and a few elementwise sums in ``rk4``'s
order (within about 1e-14 of max|z| of ``rk4`` of
``ClosedLoop.vector_field``, which stays the stage-wise reference).
Below that, it takes the same step in one piece: every stage of the
dense M, G, U is affine in z and in its own saturated input s_i, so

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

import errno
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import saturate
from .errors import IntegrationError, ValidationError
from .graphs import _physical_memory, check_rootset, laplacian
from .parallel import Rows, SharedMatrix

__all__ = [
    "Scenario",
    "ClosedLoop",
    "TrajectoryRecord",
    "assemble",
    "rk4",
    "StepOperator",
    "step_operator",
    "integrate",
    "export_trajectory",
    "DEFAULT_DT",
    "DEFAULT_HORIZON",
    "MAX_STEPS",
    "PER_AGENT_MIN_ENTRIES",
]

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 30.0
# Fixed-step integration; dt above 0.1 would be meaningless for the
# oscillatory dynamics here, and the step count is capped outright.
MAX_DT = 0.1
MAX_STEPS = 10_000_000
# ``integrate`` steps a closed loop through its ``step_operator`` while
# the step's [Phi | Gamma], dim x (dim + 4 N m) entries, has fewer than
# this many, and through ``_agent_steps`` from here up. Per step of 800
# at dt 0.01, the materialized step (its build included) against the
# per-agent one, on seeded random graphs (min of 12 interleaved rounds,
# 1 BLAS thread, 2-vCPU x86-64 host; us):
#
#   kind  N   dim   entries   materialized (build)   per-agent
#   P6    9   196     59584     23 (3 ms)               28
#   P6   10   217     73129     29 (4 ms)               29
#   P6   11   238     88060     31 (4 ms)               28
#   P6   13   280    122080     41 (6 ms)               27
#   P6   16   343    183505     75 (11 ms)              29
#   P1   40   162     52164     22 (2 ms)               26
#   P1   45   182     65884     26 (3 ms)               27
#   P1   48   194     74884     31 (4 ms)               28
#   P1   50   202     81204     32 (4 ms)               28
#   P4   30   182     54964     22 (3 ms)               27
#   P4   33   200     66400     28 (3 ms)               27
#   P4   35   212     74624     27 (4 ms)               28
#   P4   38   230     87860     32 (5 ms)               27
#
# (P6 is example2's, P1 the rotation's, P4 example1's.) The per-agent
# step costs about 28 us whatever N up to here, most of it numpy call
# overhead, while the materialized one grows with its entries: a kind
# with more inputs per state crosses over at a smaller dim, at about the
# same entries. The two tie from about 65k entries to 75k; the bound sits
# just above reproduce example2's N = 10 (73129), whose run keeps its
# materialized bytes, and P4 at N = 33 and 35 are its wrong choices,
# about 1 us a step each. Past here the per-agent dense Lbar costs
# O(N^2) whatever the edge count, so long sparse graphs lose: path
# N = 150, 400, 1000 take 55, 218 and 1393 us per right-hand side (2
# BLAS threads, min of 2 x 5), against 52, 113 and 289 us for the
# sparse Kronecker operator it replaced.
PER_AGENT_MIN_ENTRIES = 74_000
# Trajectory export formats about this many CSV rows (whole time steps
# of N rows each) per block, one pool task; a pooled export has at most
# two blocks per worker in flight, each a part file until it is appended,
# and the CSV kernel formats a block 128 rows at a time (``_g17.ROWS``),
# each piece written to the part file as it comes. reproduce example2
# --dt 0.01 in 2 workers (medians of 4, 2-vCPU x86-64 host), rows per
# block: wall s and peak RSS MB: 256 2.30 58.3, 512 2.13 59.5, 1024 1.93
# 60.5, 2048 1.93 64.0, 4096 2.01 70.8.
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
        # the state matrix a run records, a time and the states per step,
        # must fit in the machine
        dim = n + N * (n + n_c)
        memory = _physical_memory()
        if self.recorded_steps * (1 + dim) * 8 > memory:
            raise ValidationError(
                f"the recorded states would take {self.recorded_steps * (1 + dim) * 8 / 1e9:.3g} GB "
                f"({self.recorded_steps} steps of a time and {dim} states), more than this "
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
        dXc/dt  = Xc a_c^T + S b_c^T
                  + Lbar (X (c_c C)^T + Xc h_c^T d_x^T + S d_u^T)
                  - iota x_r^T (c_c C)^T

    that is, c_c zeta_bar + d_c zeta_hat with both signals Lbar
    combinations. The reference joins the agent rows as one row more,
    x_r with no controller state or input: the per-agent blocks are then
    one product ``[X | Xc | S; x_r | 0 | 0] @ gain``, whose last row
    holds dx_r and (c_c C) x_r, and the graph enters through one product
    with ``lbar``, Lbar with the negated root flags as its last column.
    ``step_operator`` forms the dense M, G, U of a small loop from
    ``rates`` and ``inputs``.
    """

    scenario: Scenario
    lbar: np.ndarray  # [Lbar | -iota], N x (N + 1)
    gain: np.ndarray  # [X | Xc | S] -> [dX | local | into Lbar]
    f_t: np.ndarray  # f_c^T

    def inputs(self, z):
        """The controllers' unsaturated inputs U: N x m after z's leading axes."""
        return self._split(z)[2] @ self.f_t

    def rates(self, z, s):
        """dz/dt at states ``z`` and saturated inputs ``s``; linear in both.

        ``z`` may carry leading batch axes, ``s`` the same ones before
        its N x m.
        """
        x_r, x, xc = self._split(z)
        N, n = x.shape[-2:]
        n_c = xc.shape[-1]
        rows = np.zeros(z.shape[:-1] + (N + 1, self.gain.shape[0]))
        rows[..., :N, :n] = x
        rows[..., :N, n: n + n_c] = xc
        rows[..., :N, n + n_c:] = s
        rows[..., N, :n] = x_r
        w = rows @ self.gain
        out = np.empty(z.shape)
        _, dx, dxc = self._split(out)
        out[..., :n] = w[..., N, :n]
        dx[...] = w[..., :N, :n]
        # summed as [Lbar | -iota] (.) + local: on identity columns each
        # entry of the dense M or G is its Kronecker sum of at most two
        # nonzero terms, a_c + Lbar_ij d_x h_c, rounded once
        np.matmul(self.lbar, w[..., n + n_c:], out=dxc)
        dxc += w[..., :N, n: n + n_c]
        return out

    def vector_field(self, t, z):
        return self.rates(z, saturate(self.inputs(z)))

    def _split(self, z):
        n, N = self.scenario.model.n, self.lbar.shape[0]
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
        n, N = self.scenario.model.n, self.lbar.shape[0]
        return n + N * (n + self.f_t.shape[0])

    @property
    def record_shape(self):
        """(recorded steps, 1 + state size) of the matrix ``integrate``
        fills: per step its time, then the state z."""
        return self.scenario.recorded_steps, 1 + self.dim


def assemble(scenario):
    """Build the closed loop of a scenario: its per-agent blocks and graph."""
    sc = scenario
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, m, N = model.n, model.m, graph.n
    n_c = proto.controller_state_dim
    q = proto.h_c.shape[0]  # state part of the exchanged xi
    d_state, d_input = proto.d_c[:, :q], proto.d_c[:, q:]
    if not d_input.size:
        d_input = np.zeros((n_c, m))
    cc_t = (proto.c_c @ model.c).T
    zero = np.zeros
    gain = np.block(
        [
            [model.a.T, zero((n, n_c)), cc_t],
            [zero((n_c, n)), proto.a_c.T, (d_state @ proto.h_c).T],
            [model.b.T, proto.b_c.T, d_input.T],
        ]
    )
    return ClosedLoop(
        scenario=sc,
        lbar=np.hstack([laplacian(graph).Lbar, -graph.root_flags.astype(float).reshape(N, 1)]),
        gain=gain,
        f_t=proto.f_c.T,
    )


class StepOperator(NamedTuple):
    """One RK4 step of a closed loop's dense M, G, U: z+ = p [z; s1; s2; s3; s4].

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
    """The RK4 step of a loop's dense M, G, U at its scenario's dt.

    M, G and U are the loop's equations on identity columns: each entry
    a block entry, its product with a graph entry, or their sum
    ``a_c + Lbar_ij d_x h_c`` (``b_c + Lbar_ij d_u`` in G), so they
    equal the ``np.kron`` products of the same blocks, Lbar's among them,
    entry for entry. ``rk4``'s
    stage recurrence is then applied to the identity columns of
    [z; s1; s2; s3; s4], each stage's saturated input an unknown: every
    stage state is affine in z and in the inputs of the stages before
    it, and U times a stage state is that stage's pre-activation.
    """
    dim, N, m = loop.dim, loop.lbar.shape[0], loop.f_t.shape[1]
    nm = N * m
    # row j of rates(e_j) is column j of M. In C order, as M z on a
    # transposed view sums in another order and changes run directories
    eye = np.eye(dim)
    m_mat = np.ascontiguousarray(loop.rates(eye, np.zeros((dim, N, m))).T)
    g_mat = np.ascontiguousarray(
        loop.rates(np.zeros((nm, dim)), np.eye(nm).reshape(nm, N, m)).T
    )
    u_mat = np.ascontiguousarray(loop.inputs(eye).reshape(dim, nm).T)
    dt = loop.scenario.dt
    z = np.eye(dim, dim + 4 * nm)
    # k1 + 2 k2 + 2 k3 + k4 is summed into one array as the stages come,
    # in that order, and the stage and k_i arrays are reused: four arrays
    # of p's size, where keeping k1 .. k4 took nine
    k, total, stage, pre = np.empty_like(z), np.empty_like(z), np.empty_like(z), []
    now = z
    for i, (step, weight) in enumerate(((0.5 * dt, 1.0), (0.5 * dt, 2.0), (dt, 2.0), (None, 1.0))):
        pre.append(u_mat @ now)
        np.matmul(m_mat, now, out=k)
        k[:, dim + i * nm: dim + (i + 1) * nm] += g_mat
        if step is not None:
            np.multiply(k, step, out=stage)
            stage += z
            now = stage
        if i:
            k *= weight  # exact: the weights are 1 and 2
            total += k
        else:
            total[...] = k
    total *= dt / 6.0
    total += z
    return StepOperator(
        w=np.vstack([a[:, :dim] for a in pre]),
        c=tuple(a[:, dim: dim + i * nm] for i, a in enumerate(pre) if i),
        p=total,
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


def _agent_steps(loop, z0, dt, steps):
    """The state after each classical RK4 step of a loop's per-agent
    equations from z0, as a view into one buffer the steps reuse.

    The stage rows [X | Xc | S; x_r | 0 | 0] of ``ClosedLoop.rates`` are
    held transposed, components as rows and the agents then the
    reference as columns, in buffers made once: a stage is the products
    with f_c, with gain^T (its first n + n_c rows are dz/dt, its last
    n_c the input into Lbar) and with lbar^T, which has a zero column
    for the reference, and the same elementwise sums as ``rk4``.
    """
    n, N = loop.scenario.model.n, loop.lbar.shape[0]
    n_c = loop.f_t.shape[0]
    f_c = np.ascontiguousarray(loop.f_t.T)
    gain_t = np.ascontiguousarray(loop.gain.T)
    lbar_t = np.zeros((N + 1, N + 1))
    lbar_t[:, :N] = loop.lbar.T
    width = n + n_c
    rows = np.zeros((width + f_c.shape[0], N + 1))  # [X | Xc | S]^T of a stage
    stage, xc, s = rows[:width], rows[n:width], rows[width:]
    w = np.empty((width + n_c, N + 1))  # gain^T rows: [dX | local] then into Lbar
    k, into = w[:width], w[width:]
    coupled = np.empty((n_c, N + 1))
    z, total, scaled = (np.zeros((width, N + 1)) for _ in range(3))
    z[:n, N] = z0[:n]
    z[:n, :N] = z0[n: n + N * n].reshape(N, n).T
    z[n:, :N] = z0[n + N * n:].reshape(N, n_c).T
    out = np.empty(z0.size)
    out_x = out[n: n + N * n].reshape(N, n).T
    out_xc = out[n + N * n:].reshape(N, n_c).T
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(steps):
        stage[...] = z
        for i, (step, weight) in enumerate(((half, 1.0), (half, 2.0), (dt, 2.0), (None, 1.0))):
            saturate(np.dot(f_c, xc, out=s), out=s)
            np.dot(gain_t, rows, out=w)
            np.dot(into, lbar_t, out=coupled)
            k[n:] += coupled
            if step is not None:
                np.multiply(k, step, out=scaled)
                np.add(z, scaled, out=stage)
            if i:
                k *= weight  # exact: the weights are 1 and 2
                total += k
            else:
                total[...] = k
        np.multiply(total, sixth, out=scaled)
        z += scaled
        out[:n] = z[:n, N]
        out_x[...] = z[:n, :N]
        out_xc[...] = z[n:, :N]
        yield out


def _record(trajectory, z0, dt, steps, record_every, states):
    """Record z0 and the states ``trajectory`` yields, one per step of
    dt, as ``rk4`` returns them."""
    if not 0 < dt <= MAX_DT:
        raise ValidationError(f"dt must be in (0, {MAX_DT}], got {dt}")
    if steps > MAX_STEPS:
        raise ValidationError(f"{steps} steps exceed the {MAX_STEPS} cap")
    # row j holds step min(j record_every, steps): every record_every-th
    # step, then the last. The product converts each step to a float as
    # Python's k * dt does; a record_every beyond the last step keeps its
    # ends only, and need not fit an int64
    index = np.arange(-(-steps // record_every) + 1)
    index *= min(record_every, steps)
    np.minimum(index, steps, out=index)
    times = index * dt
    shape = (times.size, z0.size)
    if states is None:
        states = np.empty(shape)
    elif states.shape != shape:
        raise ValidationError(f"state matrix must be {shape}, got {states.shape}")
    states[0] = z0
    out = 1
    for k, z in enumerate(trajectory, 1):
        if not np.isfinite(z).all():
            raise IntegrationError(f"state became non-finite at t = {k * dt:.6g}", t=k * dt)
        if k % record_every == 0 or k == steps:
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


def _columns(states, N, n):
    """times, x_r, x and xc of some rows of a record's state matrix, as views."""
    T = states.shape[0]
    return (
        states[:, 0],
        states[:, 1: 1 + n],
        states[:, 1 + n: 1 + n + N * n].reshape(T, N, n),
        states[:, 1 + n + N * n:].reshape(T, N, -1),
    )


@dataclass
class TrajectoryRecord:
    """The recorded states of one run.

    ``states`` is the matrix ``integrate`` fills, row k the time t_k and
    the stacked state z at t_k, or the ``parallel.SharedMatrix`` that
    holds it. ``times``, ``x_r`` [time, component], ``x`` and ``xc``
    [time, agent, component] are views into it; the controller signals
    derive from ``x`` and ``xc`` through ``_signal_columns``.
    """

    states: object
    scenario: Scenario

    def _views(self):
        sc = self.scenario
        return _columns(Rows(self.states, 0, None).array, sc.graph.n, sc.model.n)

    @property
    def times(self):
        return self._views()[0]

    @property
    def x_r(self):
        return self._views()[1]

    @property
    def x(self):
        return self._views()[2]

    @property
    def xc(self):
        return self._views()[3]


def _step_entries(dim, inputs):
    """Entries of the RK4 step matrix [Phi | Gamma] of a loop of ``dim``
    states and ``inputs`` (N m) stacked inputs."""
    return dim * (dim + 4 * inputs)


def integrate(loop, states=None):
    """Run a closed loop over its scenario horizon; wrap the recorded states.

    The one place the kernel is chosen: a loop whose step matrix has
    ``PER_AGENT_MIN_ENTRIES`` entries or more steps through
    ``_agent_steps``, its per-agent equations in a component-major
    layout, a smaller one through its ``step_operator``, built here.
    Either yields its states to ``_record``, which thins them and stops
    at the first non-finite one with its step's time. The record is one
    matrix of ``loop.record_shape``, per recorded step its time and then
    its state (see ``rk4``); ``states``, when given, is that matrix,
    filled in place.
    """
    sc = loop.scenario
    z0 = loop.initial_state()
    if states is None:
        states = np.empty(loop.record_shape)
    elif states.shape != loop.record_shape:
        raise ValidationError(f"state matrix must be {loop.record_shape}, got {states.shape}")
    if _step_entries(loop.dim, loop.lbar.shape[0] * loop.f_t.shape[1]) >= PER_AGENT_MIN_ENTRIES:
        trajectory = _agent_steps(loop, z0, sc.dt, sc.steps)
    else:
        trajectory = _operator_steps(step_operator(loop), z0, sc.steps)
    times, _ = _record(trajectory, z0, sc.dt, sc.steps, sc.record_every, states[:, 1:])
    states[:, 0] = times
    return TrajectoryRecord(states, sc)


class _Signals(NamedTuple):
    """What the controller signals of a block derive from: the three
    fields of a protocol realization that ``_signal_columns`` reads."""

    uses_observer: bool
    h_c: np.ndarray
    f_c: np.ndarray


def _time_blocks(record, rows=_EXPORT_ROWS):
    """The record as consecutive blocks of whole time steps, about ``rows``
    CSV rows each; the last one may be shorter.

    A block is ``(signals, N, n, rows)``, ``signals`` the protocol's
    ``_Signals`` and ``rows`` its time steps of the record's state matrix
    as a ``parallel.Rows``; ``_write_block`` reads them. The rest of the
    realization and the graph stay out, and so do the states of a record
    in a ``SharedMatrix``: a block pickled for a worker process carries
    O(1) data, the matrix's key and the row range, and the worker reads
    the rows in its inherited mapping.
    """
    T, N, n = record.x.shape
    steps = max(1, rows // N)
    protocol = record.scenario.protocol
    signals = _Signals(protocol.uses_observer, protocol.h_c, protocol.f_c)
    return ((signals, N, n, Rows(record.states, k, k + steps)) for k in range(0, T, steps))


def _signal_columns(protocol, x, xc):
    """The controller signals of some time steps, as the CSV's per-agent
    column groups in order: ``x``, ``chi``, ``xhat`` (observer kinds
    only), ``u`` and ``sat_u``, each [time, agent, component].

    ``x`` and ``xc`` are the steps' agent and controller states;
    ``protocol`` is a realization, or a block's ``_Signals``.
    """
    if protocol.uses_observer:
        columns = {
            "x": x,
            "chi": np.einsum("kj,tij->tik", protocol.h_c, xc),
            "xhat": xc[:, :, : x.shape[2]],
        }
    else:
        columns = {"x": x, "chi": xc}
    u = np.einsum("kj,tij->tik", protocol.f_c, xc)
    columns.update(u=u, sat_u=saturate(u))
    return columns


def _write_block(item):
    """Write the CSV rows of a block from ``_time_blocks`` into its part
    file; return their byte count.

    ``item`` is ``(part, block)``. The part file exists: it is opened
    without ``O_CREAT``, so a call that runs after its export has
    removed the file fails, and creates nothing.
    """
    # imported here: its tables are built at import, off the start-up path
    from ._g17 import row_chunks

    part, (protocol, N, n, rows) = item
    times, x_r, x, xc = _columns(rows.array, N, n)
    T = len(times)
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
    with open(part, "r+b") as fh:
        for text in row_chunks(values.reshape(T * N, -1)):
            fh.write(text)
        return fh.tell()


# the buffer through which a part file is appended to the CSV, well under
# a block's text
_COPY_CHUNK = 1 << 16


def export_trajectory(record, path):
    """Write one row per (time, agent): t, agent, x, chi, xhat?, u,
    sat_u, xr -- comma separated, header first, 17 significant digits.

    The rows are formatted in blocks of whole time steps (see
    ``_write_block``): a record whose states are in a
    ``parallel.SharedMatrix`` formats them through the matrix's
    ``pmap``, the pool ``analysis.run_cases`` opened for it while that
    is open, any other record in process. Each block is written to a
    part file in a hidden directory next to ``path``, made here before
    the block is sent, and only its byte count comes back: the file is
    then appended to ``path`` in block order, through a buffer of
    ``_COPY_CHUNK`` bytes, and deleted, so this process holds no more
    than that of the CSV text, and the bytes do not depend on where a
    block was formatted. The directory is removed on the way out, also
    when the export fails. Each value is exactly ``'%.17g' % v``, the
    same conversion as ``format(v, ".17g")`` (see ``_g17``), and the
    agent index, a float here, prints as its integer.
    """
    states = record.states
    pmap = states.pmap if isinstance(states, SharedMatrix) else map
    # the column names from zeros of the record's shape: this process
    # reads none of its rows, which a pool's workers format
    _, N, n = record.x.shape
    zeros = np.zeros((1, N, n)), np.zeros((1, N, record.xc.shape[2]))
    first = _signal_columns(record.scenario.protocol, *zeros)
    cols = ["t", "agent"]
    cols += [f"{name}{j}" for name, a in first.items() for j in range(a.shape[2])]
    cols += [f"xr{j}" for j in range(n)]
    parts = tempfile.mkdtemp(prefix=".parts-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        def items():
            for k, block in enumerate(_time_blocks(record)):
                part = os.path.join(parts, str(k))
                os.close(os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600))
                yield part, block

        with open(path, "wb") as fh:
            fh.write((",".join(cols) + "\n").encode())
            for k, size in enumerate(pmap(_write_block, items())):
                part = os.path.join(parts, str(k))
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh, _COPY_CHUNK)
                    if src.tell() != size:
                        raise OSError(errno.EIO, f"{part} holds {src.tell()} of its {size} bytes")
                os.unlink(part)
    finally:
        shutil.rmtree(parts)

