"""Stacked closed-loop assembly and fixed-step integration.

The full network state is one vector

    z = (x_r | x_1 .. x_N | xc_1 .. xc_N)

holding the reference exosystem, the agent states, and the controller
states. Everything the agents exchange is diffusive, so the closed loop
factors exactly as

    dz/dt = M z + G sat(U z)

with M, G, U assembled once from Kronecker products of the Laplacians
with the realization matrices. They are built as sparse (CSR) Kronecker
products and kept sparse for large networks, where a dense M would cost
O(dim^2) memory and time per right-hand-side call; below
``SPARSE_MIN_DIM`` state components they are densified, because a dense
product is faster there. ``sat`` is applied componentwise to the
stacked inputs inside every integrator stage -- the model is continuous
time and the saturation lives inside the plant, so there is no
zero-order hold anywhere.

Integration is classical fixed-step RK4. No adaptivity: the right-hand
side is globally Lipschitz (saturation only flattens it), determinism
and bitwise reproducibility matter more here than step-size cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .agents import saturate
from .errors import IntegrationError, ValidationError
from .graphs import check_rootset, laplacian

__all__ = [
    "Scenario",
    "ClosedLoop",
    "TrajectoryRecord",
    "assemble",
    "rk4",
    "integrate",
    "simulate",
    "exosystem_reference",
    "export_trajectory",
    "read_trajectory",
    "DEFAULT_DT",
    "DEFAULT_HORIZON",
    "MAX_STEPS",
    "SPARSE_MIN_DIM",
]

DEFAULT_DT = 1e-3
DEFAULT_HORIZON = 30.0
# Fixed-step integration; dt above 0.1 would be meaningless for the
# oscillatory dynamics here, and the step count is capped outright.
MAX_DT = 0.1
MAX_STEPS = 10_000_000
# Closed loops with at least this many state components keep M, G, U
# sparse; smaller ones are densified. Per right-hand-side call, dense
# against CSR (example2's P6 on seeded random graphs, best of 5, 2 BLAS
# threads, 2-vCPU x86-64 host): dim 70 9 vs 15 us, 217 17 vs 20 us,
# 280 22 vs 19 us, 322 24 vs 22 us, 406 41 vs 22 us, 532 112 vs 25 us,
# 994 284 vs 46 us. Path graphs cross over at the same place.
SPARSE_MIN_DIM = 256
# Trajectory export formats about this many CSV rows (whole time steps
# of N rows each) per block, about 1.5 MB of transient floats and text;
# a pooled export holds at most two blocks per worker in flight.
# Export speed is flat from 256 to 32768 rows; at 4096 the block raised
# example2's peak RSS by 5.5 MB, at 1024 it leaves the peak unchanged.
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
    """The factored vector field dz/dt = m_mat z + g_mat sat(u_mat z).

    The matrices are dense ndarrays or CSR arrays (see ``assemble``);
    ``vector_field`` is the same expression for both.
    """

    scenario: Scenario
    m_mat: np.ndarray | sp.csr_array
    g_mat: np.ndarray | sp.csr_array
    u_mat: np.ndarray | sp.csr_array

    def vector_field(self, t, z):
        return self.m_mat @ z + self.g_mat @ saturate(self.u_mat @ z)

    def initial_state(self):
        sc = self.scenario
        return np.concatenate(
            [sc.x_r0, sc.x0.reshape(-1), sc.controller0.reshape(-1)]
        )

    @property
    def record_shape(self):
        """(recorded steps, state size) of the matrix ``integrate`` fills."""
        return self.scenario.recorded_steps, self.m_mat.shape[0]


def assemble(scenario):
    """Build the stacked closed loop for a scenario.

    Block rows of M/G: the exosystem runs open loop; agent rows carry
    the shared dynamics plus input injection; controller rows combine
    the realization matrices with the graph Laplacians -- the expanded
    Laplacian against output errors, the plain one against the
    exchanged signals, and each agent's root flag against the
    root-only terms.

    The blocks are sparse Kronecker products in CSR form. Below
    ``SPARSE_MIN_DIM`` state components they are densified, and the
    dense matrices equal ``np.kron`` products of the same blocks
    entry for entry.
    """
    sc = scenario
    model, graph, proto = sc.model, sc.graph, sc.protocol
    n, m, N = model.n, model.m, graph.n
    n_c = proto.controller_state_dim
    pair = laplacian(graph)
    iota = graph.root_flags.astype(float)
    dim = n + N * n + N * n_c

    eye_n = sp.eye_array(N, format="csr")
    roots = sp.diags_array(iota, format="csr")
    lap, lbar = sp.csr_array(pair.L), sp.csr_array(pair.Lbar)

    def kron(a, b):
        return sp.kron(a, b, format="csr")

    # zeta_bar = Lbar (x) C applied to agent states minus iota (x) C x_r.
    cc_c = proto.c_c @ model.c
    # Controller self-coupling: local dynamics, root leak, and the
    # state part of zeta_hat (exchanged xi is h_c xc plus, for
    # partial-state kinds, the saturated input handled under G).
    d_state = proto.d_c[:, : proto.h_c.shape[0]]
    d_input = proto.d_c[:, proto.h_c.shape[0]:]
    m_cc = (
        kron(eye_n, proto.a_c)
        - kron(roots, proto.root_state)
        + kron(lap, d_state @ proto.h_c)
    )
    m_mat = sp.block_array(
        [
            [model.a, None, None],
            [None, kron(eye_n, model.a), None],
            [-kron(iota.reshape(N, 1), cc_c), kron(lbar, cc_c), m_cc],
        ],
        format="csr",
    )

    g_c = kron(eye_n, proto.b_c) + kron(roots, proto.root_input)
    if d_input.size:
        g_c += kron(lap, d_input)
    g_mat = sp.block_array(
        [[sp.csr_array((n, N * m))], [kron(eye_n, model.b)], [g_c]], format="csr"
    )
    u_mat = sp.block_array(
        [[sp.csr_array((N * m, n + N * n)), kron(eye_n, proto.f_c)]], format="csr"
    )

    if dim < SPARSE_MIN_DIM:
        m_mat, g_mat, u_mat = m_mat.toarray(), g_mat.toarray(), u_mat.toarray()
    return ClosedLoop(scenario=sc, m_mat=m_mat, g_mat=g_mat, u_mat=u_mat)


def rk4(f, z0, dt, steps, record_every=1, states=None):
    """Classical 4th-order fixed-step integration of dz/dt = f(t, z).

    Returns (times, states) with states[k] the state at times[k]; the
    initial and final states are always recorded, intermediates every
    ``record_every`` steps. A ``states`` matrix given is filled in
    place; else a new one is made. Aborts with the offending time if
    the state stops being finite.
    """
    if not 0 < dt <= MAX_DT:
        raise ValidationError(f"dt must be in (0, {MAX_DT}], got {dt}")
    if steps > MAX_STEPS:
        raise ValidationError(f"{steps} steps exceed the {MAX_STEPS} cap")
    z = np.asarray(z0, dtype=float).copy()
    rec_idx = list(range(0, steps + 1, record_every))
    if rec_idx[-1] != steps:
        rec_idx.append(steps)
    times = np.array([k * dt for k in rec_idx])
    shape = (len(rec_idx), z.size)
    if states is None:
        states = np.empty(shape)
    elif states.shape != shape:
        raise ValidationError(f"state matrix must be {shape}, got {states.shape}")
    states[0] = z
    out = 1
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        t = k * dt
        k1 = f(t, z)
        k2 = f(t + half, z + half * k1)
        k3 = f(t + half, z + half * k2)
        k4 = f(t + dt, z + dt * k3)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise IntegrationError(
                f"state became non-finite at t = {(k + 1) * dt:.6g}", t=(k + 1) * dt
            )
        if k + 1 == rec_idx[out]:
            states[out] = z
            out += 1
    return times, states


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

    ``states``, a matrix of ``loop.record_shape``, receives the states
    in place when given (see ``rk4``).
    """
    sc = loop.scenario
    times, states = rk4(
        loop.vector_field, loop.initial_state(), sc.dt, sc.steps, sc.record_every, states
    )
    return TrajectoryRecord.of_states(sc, times, states)


def simulate(scenario):
    """assemble + integrate in one call."""
    return integrate(assemble(scenario))


def exosystem_reference(a, x_r0, times):
    """Reference trajectory on the same grid the stacked run uses.

    The exosystem inside the stack is autonomous, so integrating it
    alone with the same scheme and steps reproduces the stacked x_r
    column; this is the standalone oracle for it.
    """
    a = np.asarray(a, dtype=float)
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        return np.tile(np.asarray(x_r0, dtype=float), (len(times), 1))
    dt = times[1] - times[0]
    _, states = rk4(lambda t, z: a @ z, x_r0, dt, len(times) - 1)
    return states


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
    """The CSV rows of a block from ``_time_blocks``, formatted by one ``%``."""
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
    row_fmt = ",".join(["%.17g"] * values.shape[2]) + "\n"
    return row_fmt * (T * N) % tuple(values.reshape(-1).tolist())


def export_trajectory(record, path, pmap=map):
    """Write one row per (time, agent): t, agent, x, chi, xhat?, u,
    sat_u, xr -- comma separated, header first, 17 significant digits.

    The rows are formatted in blocks of whole time steps (see
    ``_format_block``) through ``pmap``, the builtin ``map`` or a
    ``parallel.process_map`` pool, and written in block order, so the
    bytes do not depend on where a block was formatted. ``%.17g`` is
    the same conversion as ``format(v, ".17g")``, and the agent index,
    a float here, prints as its integer.
    """
    n = record.x.shape[2]
    first = _signal_columns(record.scenario.protocol, record.x[:1], record.xc[:1])
    cols = ["t", "agent"]
    cols += [f"{name}{j}" for name, a in first.items() for j in range(a.shape[2])]
    cols += [f"xr{j}" for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
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
