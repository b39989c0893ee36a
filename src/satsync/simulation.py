"""Stacked closed loop and fixed-step integration.

The full network state is one vector

    z = (x_r | x_1 .. x_N | xc_1 .. xc_N)

holding the reference exosystem, the agent states, and the controller
states. Everything the agents exchange is diffusive, so the closed loop
is the protocol's per-agent equations (see ``ClosedLoop``): one product
of the local blocks with the per-agent columns, and one product with
the expanded Laplacian Lbar and the root flags, which is all the graph
contributes, where the Kronecker-product operator they factor into,

    dz/dt = M z + G sat(U z),

multiplies each Laplacian entry by a whole block of the realization.
``sat`` is applied componentwise to the stacked inputs inside every
integrator stage -- the model is continuous time and the saturation
lives inside the plant, so there is no zero-order hold anywhere.

Integration is classical fixed-step RK4. No adaptivity: the right-hand
side is globally Lipschitz (saturation only flattens it), determinism
and bitwise reproducibility matter more here than step-size cleverness.
Its stages are stated once, as in-place steps of a ``_Block`` of states
held components by agents in buffers made once. From
``PER_AGENT_MIN_ENTRIES`` entries of the [Phi | Gamma] below up,
``integrate`` steps the loop's state so (``_agent_steps``). Below, it
takes the same step in one piece: every stage is affine in z and in its
own saturated input s_i, so

    z+ = Phi z + Gamma [s1; s2; s3; s4],
    s_i = sat(A_i z + C_i [s1 .. s_{i-1}]),

with Phi RK4's stability polynomial of dt M (Hairer, Norsett & Wanner,
*Solving ODEs I*, section IV.2), read off one step of the block on the
identity columns of [z; s1; s2; s3; s4] (``step_operator``). A step is
then one product with the stacked A_i, four saturations with three
small products, and one product with [Phi | Gamma]. It rounds
differently from the stage-wise sum: its states stay within about 1e-13
of max|z| of a stage-wise RK4's on stable steps, and reruns are still
bitwise identical.
"""

from __future__ import annotations

import errno
import math
import numbers
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import saturate
from .errors import IntegrationError, ValidationError
from .graphs import _physical_memory, check_rootset, laplacian
from .parallel import SharedMatrix

__all__ = [
    "Scenario",
    "ClosedLoop",
    "TrajectoryRecord",
    "assemble",
    "StepOperator",
    "step_operator",
    "integrate",
    "export_trajectory",
    "DEFAULT_DT",
    "DEFAULT_HORIZON",
    "DEFAULT_TOL",
    "MAX_STEPS",
    "PER_AGENT_MIN_ENTRIES",
]

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 30.0
DEFAULT_TOL = 1e-2
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
#   P6    9   196     59584     16 (1.5 ms)             21
#   P6   10   217     73129     21 (1.8 ms)             21
#   P6   11   238     88060     23 (2.2 ms)             21
#   P6   13   280    122080     31 (4.2 ms)             22
#   P6   16   343    183505     60 (7.0 ms)             22
#   P1   40   162     52164     18 (1.1 ms)             21
#   P1   45   182     65884     20 (1.6 ms)             20
#   P1   48   194     74884     22 (1.6 ms)             21
#   P1   50   202     81204     23 (1.7 ms)             21
#   P4   30   182     54964     16 (1.1 ms)             20
#   P4   33   200     66400     20 (1.4 ms)             20
#   P4   35   212     74624     19 (1.7 ms)             20
#   P4   38   230     87860     23 (2.0 ms)             21
#
# (P6 is example2's, P1 the rotation's, P4 example1's.) The per-agent
# step costs about 21 us whatever N up to here, most of it numpy call
# overhead, while the materialized one grows with its entries: a kind
# with more inputs per state crosses over at a smaller dim, at about the
# same entries. The two tie from about 65k entries to 75k; the bound sits
# just above reproduce example2's N = 10 (73129), whose run keeps its
# materialized bytes, and P4 at N = 35 is its wrong choice, about 1 us
# a step. Past here the per-agent dense Lbar costs
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
    """One fully resolved simulation: who, over what graph, from where,
    and how its run is scored (see ``analysis.sync_metrics``).

    ``x0`` rows are per-agent initial states; ``controller0`` rows are
    per-agent controller initial states (zeros when omitted -- the
    synchronization claim holds for every controller start, zero is
    merely the neutral choice). ``seed`` records how random initial
    conditions were drawn by whoever built the scenario; it is carried
    for the record and not consumed here.

    The run's settings are defaulted and checked here alone, whoever
    builds the scenario; each error names the document field it checks
    (``sim.dt``, ``analysis.window``, ...).
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
    tol: float = DEFAULT_TOL
    window: float | None = None  # defaults to min(5 s, horizon)

    def __post_init__(self):
        n, n_c = self.model.n, self.protocol.controller_state_dim
        N = self.graph.n
        if not check_rootset(self.graph):
            raise ValidationError(
                "graph fails the root-set reachability condition"
            )
        if not 0 < self.dt <= MAX_DT:
            raise ValidationError(f"sim.dt must be in (0, {MAX_DT}], got {self.dt}")
        for path, value in (("sim.horizon", self.horizon), ("analysis.tol", self.tol)):
            if not 0 < value < math.inf:
                raise ValidationError(f"{path} must be positive and finite, got {value}")
        if self.horizon < self.dt:
            raise ValidationError(
                f"sim.horizon {self.horizon} shorter than one step, sim.dt {self.dt}"
            )
        if self.horizon / self.dt > MAX_STEPS:
            raise ValidationError(
                f"sim.horizon/sim.dt = {self.horizon / self.dt:.3g} exceeds {MAX_STEPS} steps"
            )
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ValidationError(
                f"sim.record_every must be an integer >= 1, got {self.record_every!r}"
            )
        # the state matrix a run records must fit in the machine
        steps, cols = self.record_shape
        memory = _physical_memory()
        if steps * cols * 8 > memory:
            raise ValidationError(
                f"the recorded states would take {steps * cols * 8 / 1e9:.3g} GB "
                f"({steps} steps of a time and {cols - 1} states), more than this "
                f"machine's {memory / 1e9:.3g} GB of memory: raise sim.record_every "
                f"({self.record_every}), shorten sim.horizon ({self.horizon:g}) or "
                f"lengthen sim.dt ({self.dt:g})"
            )
        if self.window is None:
            self.window = min(5.0, self.horizon)
        if not 0 < self.window <= self.horizon:
            raise ValidationError(
                f"analysis.window must be in (0, sim.horizon], got {self.window}"
            )
        # the run records steps * dt seconds, which rounding can put just
        # below the horizon; a window that long is allowed
        span = self.steps * self.dt
        if self.window > span + 1e-12:
            raise ValidationError(
                f"analysis.window {self.window:g} s exceeds the simulated span of "
                f"{self.steps} steps of {self.dt:g} s = {span:g} s "
                f"(sim.horizon {self.horizon:g}, sim.dt {self.dt:g})"
            )
        self.x_r0 = np.asarray(self.x_r0, dtype=float).reshape(-1)
        if self.x_r0.shape != (n,):
            raise ValidationError(f"sim.x_r0 must have length {n}, got {self.x_r0.shape}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (N, n):
            raise ValidationError(f"sim.x0 must be {N}x{n}, got {self.x0.shape}")
        if self.controller0 is None:
            self.controller0 = np.zeros((N, n_c))
        self.controller0 = np.asarray(self.controller0, dtype=float)
        if self.controller0.shape != (N, n_c):
            raise ValidationError(
                f"controller0 must be {N}x{n_c}, got {self.controller0.shape}"
            )
        for nm, path in (("x_r0", "sim.x_r0"), ("x0", "sim.x0"), ("controller0", "controller0")):
            if not np.all(np.isfinite(getattr(self, nm))):
                raise ValidationError(f"{path} has non-finite entries")

    @property
    def steps(self):
        return int(round(self.horizon / self.dt))

    @property
    def recorded_steps(self):
        """Time steps a run records: every ``record_every``-th and the last."""
        return -(-self.steps // self.record_every) + 1

    @property
    def dim(self):
        """Size of the stacked state z."""
        n = self.model.n
        return n + self.graph.n * (n + self.protocol.controller_state_dim)

    @property
    def record_shape(self):
        """(recorded steps, 1 + state size) of the matrix ``integrate``
        fills: per step its time, then the state z."""
        return self.recorded_steps, 1 + self.dim

    def initial_state(self):
        """The stacked state z at t = 0."""
        return np.concatenate(
            [self.x_r0, self.x0.reshape(-1), self.controller0.reshape(-1)]
        )


@dataclass
class ClosedLoop:
    """The stacked closed loop as the protocol's per-agent equations.

    With the agent states ``X`` (n x N), the controller states ``Xc``
    (n_c x N) and the saturated inputs ``S`` (m x N) as columns per
    agent, and ``d_c = [d_x | d_u]`` split at the state part of xi,

        U       = f_c Xc
        dx_r/dt = a x_r
        dX/dt   = a X + b S
        dXc/dt  = a_c Xc + b_c S
                  + ((c_c C) X + d_x h_c Xc + d_u S) Lbar^T
                  - (c_c C) x_r iota^T

    that is, c_c zeta_bar + d_c zeta_hat with both signals Lbar
    combinations. The reference joins the agent columns as one column
    more, x_r with no controller state or input: the per-agent blocks are
    then one product ``gain_t @ [X | x_r; Xc | 0; S | 0]``, whose last
    column holds dx_r and (c_c C) x_r, and the graph enters through one
    product with ``lbar_t``, [Lbar | -iota]^T with a zero column for the
    reference. ``_Block`` evaluates them.
    """

    scenario: Scenario
    gain_t: np.ndarray  # [X; Xc; S] -> [dX; local; into Lbar]
    f_c: np.ndarray
    lbar_t: np.ndarray  # [[Lbar | -iota]^T | 0], (N + 1) x (N + 1)


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
    zero = np.zeros
    gain_t = np.block(
        [
            [model.a, zero((n, n_c)), model.b],
            [zero((n_c, n)), proto.a_c, proto.b_c],
            [proto.c_c @ model.c, d_state @ proto.h_c, d_input],
        ]
    )
    lbar_t = np.zeros((N + 1, N + 1))
    lbar_t[:N, :N] = laplacian(graph).Lbar.T
    lbar_t[N, :N] = -graph.root_flags.astype(float)
    return ClosedLoop(scenario=sc, gain_t=gain_t, f_c=np.ascontiguousarray(proto.f_c), lbar_t=lbar_t)


def _views(block, stacked, n):
    """(block view, stacked view) pairs of x_r, X and Xc of B states: in
    ``block`` component-major, [X | x_r; Xc | 0] per state, and in
    ``stacked`` (dim x B) as z, one per column."""
    width, B = block.shape[0], stacked.shape[1]
    N = block.shape[1] // B - 1
    cols = block.reshape(width, B, N + 1)
    return (
        (cols[:n, :, N], stacked[:n]),
        (cols[:n, :, :N], stacked[n: n + N * n].reshape(N, n, B).transpose(1, 2, 0)),
        (cols[n:, :, :N], stacked[n + N * n:].reshape(N, -1, B).transpose(1, 2, 0)),
    )


def _load(block, stacked, n):
    """Copy the states ``stacked`` into ``block`` (see ``_views``)."""
    for part, value in _views(block, stacked, n):
        part[...] = value


class _Block:
    """A loop's per-agent equations on ``members`` states at once (see
    ``_views``), in buffers made once: ``rows`` is a stage, its ``stage``
    states over its saturated inputs ``s`` (m rows, zero at the
    references), and ``rates`` puts its dz/dt in ``k``."""

    def __init__(self, loop, members):
        n, (m, n_c) = loop.scenario.model.n, loop.f_c.shape
        width, N1 = n + n_c, loop.lbar_t.shape[0]
        self.loop = loop
        self.rows = np.zeros((width + m, members * N1))
        self.stage, self.xc, self.s = self.rows[:width], self.rows[n:width], self.rows[width:]
        # gain^T rows: dz/dt, its controller rows local only, then the
        # input into Lbar, as one row of N + 1 per member and component
        self.w = np.empty((width + n_c, members * N1))
        self.k, self.local = self.w[:width], self.w[n:width].reshape(-1, N1)
        self.into = self.w[width:].reshape(-1, N1)
        self.coupled = np.empty_like(self.into)

    def rates(self):
        np.dot(self.loop.gain_t, self.rows, out=self.w)
        np.dot(self.into, self.loop.lbar_t, out=self.coupled)
        np.add(self.local, self.coupled, out=self.local)
        return self.k

    def steps(self, z, dt, count, inputs):
        """Take ``count`` classical RK4 steps of the states ``z`` in
        place, yielding after each. Stage i's inputs are ``inputs(i, s)``,
        given ``s`` holding its pre-activations f_c Xc."""
        f_c, xc, s, stage, rates = self.loop.f_c, self.xc, self.s, self.stage, self.rates
        total = np.empty_like(z)  # k1 + 2 k2 + 2 k3 + k4, summed as they come
        stages = ((0.5 * dt, 1.0), (0.5 * dt, 2.0), (dt, 2.0), (None, 1.0))
        sixth = dt / 6.0
        for _ in range(count):
            stage[...] = z
            for i, (step, weight) in enumerate(stages):
                inputs(i, np.dot(f_c, xc, out=s))
                k = rates()
                if step is not None:
                    np.multiply(k, step, out=stage)
                    stage += z
                if i:
                    k *= weight  # exact: the weights are 1 and 2
                    total += k
                else:
                    total[...] = k
            total *= sixth
            z += total
            yield


class StepOperator(NamedTuple):
    """One RK4 step of a closed loop: z+ = p [z; s1; s2; s3; s4].

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
    """The RK4 step of a loop at its scenario's dt.

    Every stage state is affine in z and in the inputs of the stages
    before it, so ``p`` is one step of a ``_Block`` from the identity
    columns of [z; s1; s2; s3; s4], stage i's inputs the identity on its
    own slots; the stages' pre-activations at the agents are ``w`` and
    ``c``.
    """
    sc = loop.scenario
    n, N, (m, n_c), dim = sc.model.n, sc.graph.n, loop.f_c.shape, sc.dim
    nm = N * m
    members = dim + 4 * nm
    z = np.zeros((n + n_c, members * (N + 1)))
    _load(z, np.eye(dim, members), n)
    pre = np.empty((4, N, m, members))
    # input j of agent a in stage i is member dim + i N m + a m + j
    agent, j = np.divmod(np.arange(nm), m)

    def inputs(i, s):
        s = s.reshape(m, members, N + 1)
        pre[i] = s[:, :, :N].transpose(2, 0, 1)
        s[...] = 0.0
        s[j, dim + i * nm + np.arange(nm), agent] = 1.0

    # the block's buffers go with its steps, before p is made
    for _ in _Block(loop, members).steps(z, sc.dt, 1, inputs):
        pass
    p = np.empty((dim, members))
    for part, value in _views(z, p, n):
        value[...] = part
    pre = pre.reshape(4 * nm, members)
    c = tuple(pre[i * nm: (i + 1) * nm, dim: dim + i * nm] for i in (1, 2, 3))
    return StepOperator(w=np.ascontiguousarray(pre[:, :dim]), c=c, p=p)


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
    equations from z0, as a view into one buffer the steps reuse: the
    steps of a ``_Block`` of one member, each stage's inputs saturated."""
    n = loop.scenario.model.n
    block = _Block(loop, 1)
    z = np.zeros(block.stage.shape)
    _load(z, z0.reshape(-1, 1), n)
    out = np.empty(z0.size)
    views = _views(z, out.reshape(-1, 1), n)
    for _ in block.steps(z, dt, steps, lambda i, s: saturate(s, out=s)):
        for part, value in views:
            value[...] = part
        yield out


def _record(trajectory, z0, dt, steps, record_every, states):
    """Record z0 and the states ``trajectory`` yields, one per step of
    dt, into the rows of ``states``: every ``record_every``-th step and
    the last. Returns (times, states). ``Scenario`` bounds dt and steps."""
    # row j holds step min(j record_every, steps): every record_every-th
    # step, then the last. The product converts each step to a float as
    # Python's k * dt does; a record_every beyond the last step keeps its
    # ends only, and need not fit an int64
    index = np.arange(-(-steps // record_every) + 1)
    index *= min(record_every, steps)
    np.minimum(index, steps, out=index)
    times = index * dt
    states[0] = z0
    out = 1
    for k, z in enumerate(trajectory, 1):
        if not np.isfinite(z).all():
            raise IntegrationError(f"state became non-finite at t = {k * dt:.6g}", t=k * dt)
        if k % record_every == 0 or k == steps:
            states[out] = z
            out += 1
    return times, states


def _columns(states, N, n):
    """times, x_r, x and xc of some rows (or none) of a record's states, as views."""
    T = states.shape[0]
    xc = states[:, 1 + n + N * n:]
    return (
        states[:, 0],
        states[:, 1: 1 + n],
        states[:, 1 + n: 1 + n + N * n].reshape(T, N, n),
        xc.reshape(T, N, xc.shape[1] // N),
    )


@dataclass
class TrajectoryRecord:
    """The recorded states of one run.

    ``states`` is the matrix ``integrate`` fills, row k the time t_k and
    the stacked state z at t_k, or the ``parallel.SharedMatrix`` that
    holds it, which slices alike. ``times``, ``x_r`` [time, component],
    ``x`` and ``xc`` [time, agent, component] are views into it; the
    controller signals derive from ``x`` and ``xc``: ``_csv_columns``.
    """

    states: object
    scenario: Scenario

    def _views(self):
        sc = self.scenario
        return _columns(self.states[:], sc.graph.n, sc.model.n)

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
    ``_agent_steps``, its per-agent equations on a block of one state, a
    smaller one through its ``step_operator``, built here. Either yields
    its states to ``_record``, which thins them and stops at the first
    non-finite one with its step's time. The record is one matrix of
    the scenario's ``record_shape``, per recorded step its time and then
    its state: every ``scenario.record_every``-th step and the last.
    ``states``, when given, is that matrix, filled in place.
    """
    sc = loop.scenario
    z0 = sc.initial_state()
    if states is None:
        states = np.empty(sc.record_shape)
    elif states.shape != sc.record_shape:
        raise ValidationError(f"state matrix must be {sc.record_shape}, got {states.shape}")
    if _step_entries(sc.dim, sc.graph.n * sc.model.m) >= PER_AGENT_MIN_ENTRIES:
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

    A block is ``(signals, N, n, states, steps)``, ``signals`` the
    protocol's ``_Signals`` and ``steps`` a slice of the record's
    ``states``; ``_write_block`` reads them. The rest of the realization
    and the graph stay out, and so do the rows of a record in a
    ``SharedMatrix``: a block pickled for a worker process carries O(1)
    data, the matrix's key and the row range, and the worker reads the
    rows in its inherited mapping.
    """
    sc, states = record.scenario, record.states
    N, n = sc.graph.n, sc.model.n
    steps = max(1, rows // N)
    signals = _Signals(sc.protocol.uses_observer, sc.protocol.h_c, sc.protocol.f_c)
    return ((signals, N, n, states, slice(k, k + steps)) for k in range(0, len(states[:]), steps))


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


def _csv_columns(signals, N, n, states):
    """The CSV's column groups for some rows (or none) of a record's
    states, in order: t, agent, x, chi, xhat (observer kinds only), u,
    sat_u and xr, as their header names and their values [time, agent,
    column]. ``signals`` is a realization or a block's ``_Signals``."""
    times, x_r, x, xc = _columns(states, N, n)
    shape = (len(times), N)
    groups = {
        "t": np.broadcast_to(times[:, None, None], shape + (1,)),
        "agent": np.broadcast_to(np.arange(1.0, N + 1.0)[None, :, None], shape + (1,)),
        **_signal_columns(signals, x, xc),
        "xr": np.broadcast_to(x_r[:, None, :], shape + (n,)),
    }
    names = [f"{g}{j}" for g, a in list(groups.items())[2:] for j in range(a.shape[2])]
    return ["t", "agent", *names], list(groups.values())


def _write_block(item):
    """Write the CSV rows of a block from ``_time_blocks`` into its part
    file; return their byte count.

    ``item`` is ``(part, block)``. The part file exists: it is opened
    without ``O_CREAT``, so a call that runs after its export has
    removed the file fails, and creates nothing.
    """
    # imported here: its tables are built at import, off the start-up path
    from ._g17 import row_chunks

    part, (signals, N, n, states, steps) = item
    _, columns = _csv_columns(signals, N, n, states[steps])
    values = np.concatenate(columns, axis=2, dtype=float)
    with open(part, "r+b") as fh:
        for text in row_chunks(values.reshape(-1, values.shape[2])):
            fh.write(text)
        return fh.tell()


# the buffer through which a part file is appended to the CSV, well under
# a block's text
_COPY_CHUNK = 1 << 16


def export_trajectory(record, path):
    """Write one row per (time, agent), in the columns ``_csv_columns``
    states -- comma separated, header first, 17 significant digits.

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
    # the header from no rows: this process reads none of the record's,
    # which a pool's workers format
    sc = record.scenario
    cols, _ = _csv_columns(sc.protocol, sc.graph.n, sc.model.n, states[:0])
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

