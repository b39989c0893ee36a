"""Reference implementations the tests compare the package against.

Each one computes a quantity the package computes another way (or no
longer computes at all), in the plainest form: the two diffusive network
signals from the Laplacians, the reference trajectory integrated alone,
the expanded-Laplacian spectrum test, and the random graph generator as
it drew with ``Generator.choice``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from satsync.errors import ValidationError
from satsync.graphs import _WEIGHT_GRID, CommGraph, laplacian
from satsync.linalg import EIG_TOL
from satsync.protocols import FULL_STATE_KINDS, KINDS
from satsync.simulation import rk4


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
    if kind in FULL_STATE_KINDS:
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


def step_matrix_of_stages(loop):
    """``simulation.step_operator(loop).p`` as it was first built: each
    stage's k_i kept, then z + dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    dim, N, m = loop.dim, loop.lap.shape[0], loop.f_t.shape[1]
    nm = N * m
    eye = np.eye(dim)
    m_mat = np.ascontiguousarray(loop.rates(eye, np.zeros((dim, N, m))).T)
    g_mat = np.ascontiguousarray(loop.rates(np.zeros((nm, dim)), np.eye(nm).reshape(nm, N, m)).T)
    dt = loop.scenario.dt
    z = np.eye(dim, dim + 4 * nm)
    stage, ks = z, []
    for i, step in enumerate((0.5 * dt, 0.5 * dt, dt, None)):
        k = m_mat @ stage
        k[:, dim + i * nm: dim + (i + 1) * nm] += g_mat
        ks.append(k)
        if step is not None:
            stage = z + step * k
    k1, k2, k3, k4 = ks
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
