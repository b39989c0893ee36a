"""Agent dynamics, the input saturation nonlinearity, and the structural
classification that decides which protocol families can be synthesized.

Every agent in a network shares one linear triple (a, b, c) with the
input passed through a componentwise unit saturation:

    dx/dt = a x + b sat(u),    y = c x.

Three structural classes are supported, checked in this order:

* ``neutrally_stable`` -- (a, b, c) controllable and observable, all
  eigenvalues in the closed left half plane, and every imaginary-axis
  eigenvalue semisimple.
* ``double_integrator`` -- (a, b) is exactly m decoupled
  position/velocity chains in block order, a = [[0, I], [0, 0]] and
  b = [0; I]: positions first, then velocities. Other state orders have
  the mixed structure and are classified so.
* ``mixed`` -- eigenvalue zero with geometric multiplicity equal to the
  input count, Jordan chains of length at most two, and all remaining
  eigenvalues simple and purely imaginary. This is the class where the
  state splits into double-integrator chains, single integrators, and
  undamped oscillators; ``mixed_decompose`` computes that splitting.

Anything else is ``unsupported``: with bounded inputs no globally valid
protocol exists once the open-loop dynamics are exponentially unstable,
and the gain constructions here rely on the structures above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import SynthesisError, ValidationError
from .linalg import CLUSTER_TOL, EIG_TOL, RANK_RTOL, realify_eigenvector

__all__ = [
    "ModelClass",
    "AgentModel",
    "EigenCluster",
    "Classification",
    "MixedDecomposition",
    "saturate",
    "classify",
    "check_controllable_observable",
    "mixed_decompose",
]


class ModelClass(str, enum.Enum):
    NEUTRALLY_STABLE = "neutrally_stable"
    DOUBLE_INTEGRATOR = "double_integrator"
    MIXED = "mixed"
    UNSUPPORTED = "unsupported"


def saturate(v, out=None):
    """Componentwise unit saturation: clip every entry to [-1, 1],
    into ``out`` when given (a float array of ``v``'s shape)."""
    # the array method is np.clip without its dispatch layer
    return np.asarray(v, dtype=float).clip(-1.0, 1.0, out=out)


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster with its multiplicities."""

    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class Classification:
    """Result of :func:`classify`: the class plus its certificates."""

    model_class: ModelClass
    clusters: tuple
    controllable: bool
    observable: bool


def check_controllable_observable(a, b, c):
    """Kalman rank tests, with rank read off singular values at RANK_RTOL*||.||."""
    a, b, c = _check_dims(a, b, c)
    n = a.shape[0]
    ctrl = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    obsv = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(n)])
    return _rank(ctrl) == n, _rank(obsv) == n


def classify(a, b, c):
    """Decide the structural class of (a, b, c) and return certificates.

    The returned clusters group eigenvalues that agree to within the
    clustering tolerance and carry algebraic/geometric multiplicities,
    so callers can read off Jordan structure without recomputing it.
    """
    a, b, c = _check_dims(a, b, c)
    clusters = _eigen_clusters(a)
    ctrl, obsv = check_controllable_observable(a, b, c)

    axis = [cl for cl in clusters if abs(cl.value.real) <= EIG_TOL]
    stable = all(cl.value.real <= EIG_TOL for cl in clusters)
    semisimple = all(cl.geometric == cl.algebraic for cl in axis)
    if ctrl and obsv and stable and semisimple:
        cls = ModelClass.NEUTRALLY_STABLE
    elif _is_double_integrator(a, b):
        cls = ModelClass.DOUBLE_INTEGRATOR
    elif _mixed_structure_error(a, b, clusters) is None:
        cls = ModelClass.MIXED
    else:
        cls = ModelClass.UNSUPPORTED
    return Classification(
        model_class=cls, clusters=tuple(clusters), controllable=ctrl, observable=obsv
    )


@dataclass
class AgentModel:
    """Shared agent triple (a, b, c).

    ``classification`` is what :func:`classify` finds for (a, b, c), and
    ``model_class`` its class.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    model_class: ModelClass = field(init=False)
    classification: Classification = field(init=False, repr=False)

    def __post_init__(self):
        self.a, self.b, self.c = _check_dims(self.a, self.b, self.c)
        self.classification = classify(self.a, self.b, self.c)
        self.model_class = self.classification.model_class

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]

    @property
    def q_out(self):
        return self.c.shape[0]


@dataclass(frozen=True)
class MixedDecomposition:
    """Coordinates splitting a mixed-class a into its canonical blocks.

    In the new coordinates ``xt = gamma_x @ x`` the dynamics matrix is
    blkdiag(a_s, a_f, a_omega): ``a_s = [[0, I_q], [0, 0]]`` holds the q
    position/velocity chains (positions first), ``a_f = 0`` holds the
    m - q single integrators, and ``a_omega`` is skew and holds the
    oscillator pairs. b_tilde is the input matrix seen in those
    coordinates.
    """

    gamma_x: np.ndarray
    a_s: np.ndarray
    a_f: np.ndarray
    a_omega: np.ndarray
    b_tilde: np.ndarray
    m: int
    q: int


def mixed_decompose(a, b, c, gamma_x=None):
    """Split a mixed-class dynamics matrix into its canonical blocks.

    With ``gamma_x=None`` the transformation is built from the
    eigenstructure of ``a``: kernel chains give the position/velocity
    pairs and the single integrators, realified eigenvectors give the
    oscillator planes. A caller that already works in preferred
    coordinates can pass its own ``gamma_x``, which is then validated
    against the same block structure instead.

    Raises
    ------
    SynthesisError
        If ``a`` lacks the mixed structure, the supplied ``gamma_x``
        does not block-diagonalize it, or the transformation is ill
        conditioned (condition number above 1e8).
    """
    a, b, c = _check_dims(a, b, c)
    n, m = a.shape[0], b.shape[1]
    reason = _mixed_structure_error(a, b, _eigen_clusters(a))
    if reason is not None:
        raise SynthesisError(f"dynamics lack the mixed structure: {reason}")
    q = _num_length2_chains(a)

    if gamma_x is None:
        gamma_x = np.linalg.inv(_mixed_basis(a, q, m))
    else:
        gamma_x = np.asarray(gamma_x, dtype=float)
        if gamma_x.shape != (n, n):
            raise ValidationError(f"gamma_x must be {n}x{n}, got {gamma_x.shape}")
    if np.linalg.cond(gamma_x) > 1e8:
        raise SynthesisError("transformation gamma_x is ill conditioned (cond > 1e8)")

    gx_inv = np.linalg.inv(gamma_x)
    at = gamma_x @ a @ gx_inv
    scale = max(1.0, np.linalg.norm(a))
    a_s = np.zeros((2 * q, 2 * q))
    a_s[:q, q:] = np.eye(q)
    a_f = np.zeros((m - q, m - q))
    a_omega = at[m + q:, m + q:]
    target = np.zeros((n, n))
    target[: 2 * q, : 2 * q] = a_s
    target[m + q:, m + q:] = a_omega
    if np.linalg.norm(at - target) > 1e-8 * scale:
        raise SynthesisError(
            "gamma_x does not produce the chain/single/oscillator block form"
        )
    if np.linalg.norm(a_omega + a_omega.T) > 1e-8:
        raise SynthesisError("oscillator block is not skew under gamma_x")
    return MixedDecomposition(
        gamma_x=gamma_x,
        a_s=a_s,
        a_f=a_f,
        a_omega=0.5 * (a_omega - a_omega.T),
        b_tilde=gamma_x @ b,
        m=m,
        q=q,
    )


# -- internals ---------------------------------------------------------------


def _check_dims(a, b, c):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"a must be square, got shape {a.shape}")
    n = a.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise ValidationError(f"b must have shape ({n}, m), got {b.shape}")
    if c.ndim != 2 or c.shape[1] != n:
        raise ValidationError(f"c must have shape (q_out, {n}), got {c.shape}")
    for name, mat in (("a", a), ("b", b), ("c", c)):
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"{name} has non-finite entries")
    return a, b, c


def _rank(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))


def _eigen_clusters(a):
    """Cluster eigenvalues within CLUSTER_TOL and attach multiplicities."""
    vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real))
    groups = []
    for v in vals[order]:
        for g in groups:
            if abs(v - np.mean(g)) <= CLUSTER_TOL:
                g.append(v)
                break
        else:
            groups.append([v])
    n = a.shape[0]
    clusters = []
    for g in groups:
        mean = complex(np.mean(g))
        if abs(mean) <= CLUSTER_TOL:
            mean = 0.0 + 0.0j
        elif abs(mean.real) <= CLUSTER_TOL:
            mean = complex(0.0, mean.imag)
        geo = n - _rank(a - mean * np.eye(n))
        clusters.append(EigenCluster(value=mean, algebraic=len(g), geometric=geo))
    return clusters


def _is_double_integrator(a, b):
    """Exact test for the block form a = [[0, I], [0, 0]], b = [0; I].

    The double-integrator feedback k = [-I | -I]
    (``gains.design_K_double``) reads the states in this order, so a
    relabeling of the chains is not accepted here.
    """
    n, m = a.shape[0], b.shape[1]
    if n != 2 * m:
        return False
    zero, eye = np.zeros((m, m)), np.eye(m)
    block_a = np.block([[zero, eye], [zero, zero]])
    return np.array_equal(a, block_a) and np.array_equal(b, np.vstack([zero, eye]))


def _kernel_dims(a):
    """Dimensions of ker(a), ker(a^2), ker(a^3)."""
    n = a.shape[0]
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return n, n, n
    an = a / scale
    return tuple(n - _rank(np.linalg.matrix_power(an, k)) for k in (1, 2, 3))


def _num_length2_chains(a):
    k1, k2, _ = _kernel_dims(a)
    return k2 - k1


def _mixed_structure_error(a, b, clusters):
    """None if (a, b) has the mixed structure, else a human-readable reason."""
    m = b.shape[1]
    k1, k2, k3 = _kernel_dims(a)
    if k1 != m:
        return f"eigenvalue 0 has geometric multiplicity {k1}, expected {m} (one per input)"
    if k3 != k2:
        return "eigenvalue 0 has a Jordan chain longer than 2"
    for cl in clusters:
        if cl.value == 0:
            continue
        if abs(cl.value.real) > EIG_TOL:
            return f"eigenvalue {cl.value:.3g} is not purely imaginary"
        if cl.algebraic != 1:
            return f"imaginary eigenvalue {cl.value:.3g} is not simple"
    return None


def _mixed_basis(a, q, m):
    """Columns: positions | velocities | singles | oscillator pairs.

    Built so that a maps velocity columns to position columns exactly
    (positions are defined as a @ velocities), kernel columns to zero,
    and each oscillator plane to itself with an exactly skew 2x2 block.
    """
    n = a.shape[0]
    ker1 = _null_basis(a)
    ker2 = _null_basis(a @ a)
    # Velocities: the part of ker(a^2) not already in ker(a).
    proj = ker2 - ker1 @ (ker1.T @ ker2)
    vel = _orth_basis(proj, q)
    pos = a @ vel
    # Singles: the part of ker(a) not spanned by the positions.
    pos_on = _orth_basis(pos, q)
    sing = _orth_basis(ker1 - pos_on @ (pos_on.T @ ker1), m - q)
    cols = [pos, vel, sing]
    vals, vecs = np.linalg.eig(a)
    taken = []
    order = np.argsort(vals.imag)
    for idx in order:
        lam = vals[idx]
        if lam.imag <= CLUSTER_TOL:
            continue
        if any(abs(lam - t) <= CLUSTER_TOL for t in taken):
            continue
        taken.append(lam)
        zr, zi = realify_eigenvector(vecs[:, idx])
        cols.append(np.column_stack([zr, zi]))
    parts = [col for col in cols if col.size]
    basis = np.hstack(parts) if parts else np.zeros((n, 0))
    if basis.shape != (n, n):
        raise SynthesisError(
            f"mixed basis is rank deficient ({basis.shape[1]} of {n} columns)"
        )
    return basis


def _null_basis(mat):
    """Orthonormal basis of the kernel, RANK_RTOL-relative threshold."""
    scale = np.linalg.norm(mat)
    if scale == 0.0:
        return np.eye(mat.shape[1])
    _, sv, vt = np.linalg.svd(mat / scale)
    return vt[sv <= RANK_RTOL, :].T if sv.size else vt.T


def _orth_basis(mat, k):
    """Orthonormal basis (k columns) of the column span of mat."""
    if k == 0:
        return np.zeros((mat.shape[0], 0))
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv.size < k or sv[k - 1] <= RANK_RTOL * sv[0]:
        raise SynthesisError("kernel-chain basis is rank deficient")
    return u[:, :k]
