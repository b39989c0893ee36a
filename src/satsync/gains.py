"""Gain synthesis and verification for the six protocol kinds.

Every protocol is parameterized by a coupling strength ``rho`` and a
small set of matrices, all computable from the agent triple alone:

* ``p``   -- kinds P1/P2: positive definite with ``p a + a' p <= 0``.
* ``f``   -- kinds P2/P4/P6: observer injection with ``a - f c`` Hurwitz.
* ``k``   -- kinds P3/P4: two negative definite blocks ``(k1 k2)``;
  kinds P5/P6: feedback in the decomposed coordinates satisfying an
  equality tied to the block structure and a strict dissipation
  inequality on the input directions.

Which kind needs which gain follows from the one table of kinds, ``_KINDS``.

Synthesis is deterministic. Verification is separate from synthesis on
purpose: scenario files may carry hand-picked gains, and those are
admitted only after passing the same checks the synthesized ones do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .agents import ModelClass, mixed_decompose
from .errors import SynthesisError, ValidationError
from .linalg import (
    EIG_TOL,
    eigenvalues,
    realify_eigenvector,
    solve_filter_riccati,
    solve_lyapunov,
)

__all__ = [
    "GainSet",
    "GainCheck",
    "GainReport",
    "solve_P_neutral",
    "design_F",
    "design_K_double",
    "compute_Lambda",
    "design_K_mixed",
    "kind_spec",
    "verify_gains",
    "synthesize_gains",
]

# Strict definiteness/stability margins pass above this; equality
# residuals pass below 1e-8 (relative).
DEFINITE_TOL = 1e-10
RESIDUAL_TOL = 1e-8
# Least-squares rank cutoff relative to the largest singular value: the
# cutoff of scipy's ``lstsq`` default, so the SVD-based solve (LAPACK
# gelsd in both libraries) keeps the same effective rank.
_LSTSQ_RCOND = np.finfo(float).eps

# The gain matrices a GainSet may carry, in the order a scenario's gains
# are checked, echoed and printed.
GAIN_MATRICES = ("p", "f", "k", "p_d", "gamma_x")

# Each protocol kind: the agent class its feedback is designed for, and
# whether neighbours exchange full states (else outputs only).
_KINDS = {
    "P1": (ModelClass.NEUTRALLY_STABLE, True),
    "P2": (ModelClass.NEUTRALLY_STABLE, False),
    "P3": (ModelClass.DOUBLE_INTEGRATOR, True),
    "P4": (ModelClass.DOUBLE_INTEGRATOR, False),
    "P5": (ModelClass.MIXED, True),
    "P6": (ModelClass.MIXED, False),
}


def kind_spec(kind):
    """(agent class, whether neighbours exchange full states) of a kind."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValidationError(f"unknown protocol kind {kind!r}") from None


@dataclass
class GainSet:
    """Gains for one protocol instance.

    Only the fields a protocol kind consumes need to be present.
    ``gamma_x`` optionally pins the decomposed coordinates a mixed-case
    ``k`` was designed in; without it the canonical decomposition is
    used. ``p_d`` records the velocity weight used when ``k`` came from
    the mixed-case construction.
    """

    rho: float = 1.0
    p: np.ndarray | None = None
    f: np.ndarray | None = None
    k: np.ndarray | None = None
    p_d: np.ndarray | None = None
    gamma_x: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.rho):
            raise ValidationError("rho must be finite")
        self.rho = float(self.rho)
        for name in GAIN_MATRICES:
            val = getattr(self, name)
            if val is None:
                continue
            val = np.asarray(val, dtype=float)
            if val.ndim != 2 or not np.all(np.isfinite(val)):
                raise ValidationError(f"gain {name} must be a finite matrix")
            setattr(self, name, val)


@dataclass(frozen=True)
class GainCheck:
    """One verified condition: its margin and whether it passed."""

    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class GainReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dicts(self):
        """The checks as JSON objects (name, passed, margin, detail), in order."""
        return [asdict(c) for c in self.checks]


def solve_P_neutral(a):
    """Positive definite p with ``p a + a' p <= 0`` for neutrally stable a.

    The state space is split into the Hurwitz part and the
    imaginary-axis part with an ordered Schur form plus a Sylvester
    solve. On the Hurwitz part a Lyapunov equation gives strict
    decrease; on the axis part the realified eigenbasis makes the
    restriction of ``a`` skew, where the identity weight is neutral.
    The two blocks are pulled back through the splitting transformation.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"a must be square, got shape {a.shape}")
    n = a.shape[0]
    vals = eigenvalues(a)
    if vals.real.max() > EIG_TOL:
        raise SynthesisError(
            f"a has an eigenvalue with real part {vals.real.max():.3e} > 0"
        )
    import scipy.linalg

    t, qmat, k = scipy.linalg.schur(
        a, output="real", sort=lambda re, im: re < -EIG_TOL
    )
    # k leading states carry the Hurwitz modes, the rest the axis modes.
    if 0 < k < n:
        x = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], -t[:k, k:])
        z = np.eye(n)
        z[:k, k:] = x
        g = qmat @ z
    else:
        g = qmat
    blocks = np.zeros((n, n))
    if k > 0:
        blocks[:k, :k] = solve_lyapunov(t[:k, :k], np.eye(k))
    if k < n:
        blocks[k:, k:] = _neutral_axis_weight(t[k:, k:])
    g_inv = np.linalg.inv(g)
    p = g_inv.T @ blocks @ g_inv
    p = 0.5 * (p + p.T)
    check = _verify_P(a, p)
    if not check.passed:
        raise SynthesisError(f"constructed p fails verification: {check.detail}")
    return p


def _neutral_axis_weight(a_axis):
    """Weight w > 0 with ``w a + a' w = 0`` for semisimple axis-only a.

    Realifies the eigenbasis r (kernel basis plus one column pair per
    oscillator), in which a acts skew; the weight is (r r')^{-1}.
    """
    n = a_axis.shape[0]
    cols = []
    sv = np.linalg.svd(a_axis, compute_uv=False)
    null_dim = int(np.count_nonzero(sv <= EIG_TOL * max(1.0, sv[0] if sv.size else 1.0)))
    if null_dim:
        _, _, vt = np.linalg.svd(a_axis)
        cols.append(vt[n - null_dim:, :].T)
    vals, vecs = np.linalg.eig(a_axis)
    for idx in np.argsort(vals.imag):
        if vals[idx].imag <= EIG_TOL:
            continue
        zr, zi = realify_eigenvector(vecs[:, idx])
        cols.append(np.column_stack([zr, zi]))
    r = np.hstack(cols) if cols else np.zeros((n, 0))
    if r.shape != (n, n) or np.linalg.cond(r) > 1e8:
        raise SynthesisError(
            "imaginary-axis eigenstructure is defective (not semisimple)"
        )
    w = np.linalg.inv(r @ r.T)
    return 0.5 * (w + w.T)


def design_F(a, c):
    """Observer injection f = y c' from the filter Riccati solution.

    ``a - f c`` is then Hurwitz whenever (a, c) is observable; the
    Riccati route is deterministic and needs no pole-selection choices.
    """
    y = solve_filter_riccati(a, c)
    f = y @ np.asarray(c, dtype=float).T
    check = _verify_F(a, c, f)
    if not check.passed:
        raise SynthesisError(f"constructed f fails verification: {check.detail}")
    return f


def design_K_double(m):
    """Default double-integrator feedback: k = (-I_m  -I_m)."""
    if m < 1:
        raise ValidationError(f"need at least one input, got m={m}")
    return np.hstack([-np.eye(m), -np.eye(m)])


def compute_Lambda(decomp, p_d):
    """Weight matrix blkdiag(0_q, p_d, 0_{m-q}, I) on the decomposed state.

    Zero on positions and single integrators, ``p_d`` on velocities,
    identity on the oscillator pairs.
    """
    q, m = decomp.q, decomp.m
    n = decomp.gamma_x.shape[0]
    p_d = np.asarray(p_d, dtype=float)
    if p_d.shape != (q, q):
        raise ValidationError(f"p_d must be {q}x{q}, got {p_d.shape}")
    if np.linalg.norm(p_d - p_d.T) > RESIDUAL_TOL * max(1.0, np.linalg.norm(p_d)):
        raise ValidationError("p_d must be symmetric")
    if q and np.linalg.eigvalsh(0.5 * (p_d + p_d.T)).min() <= DEFINITE_TOL:
        raise ValidationError("p_d must be positive definite")
    lam = np.zeros((n, n))
    lam[q: 2 * q, q: 2 * q] = p_d
    lam[m + q:, m + q:] = np.eye(n - m - q)
    return lam


def design_K_mixed(decomp):
    """Feedback for the mixed class: equality by least squares, strict
    input dissipation by a projected scaling search.

    The velocity weight p_d is the identity, as ``synthesize_gains``
    records it, so ``lam`` is ``compute_Lambda(decomp, I)``. The base
    solution is the minimum-norm k0 with ``k0 at = -bt' lam`` (at, bt:
    dynamics/input in the decomposed coordinates). Adding rows from the
    left null space of ``at`` preserves the equality; the search scales
    ``-beta bt' pi`` (pi the orthogonal projector onto that null space)
    over a geometric beta grid until ``k bt + bt' k'`` is strictly
    negative definite.
    """
    q, m = decomp.q, decomp.m
    lam = compute_Lambda(decomp, np.eye(q))
    at = _decomposed_a(decomp)
    bt = decomp.b_tilde
    rhs = -(bt.T @ lam)
    k0 = np.linalg.lstsq(at.T, rhs.T, rcond=_LSTSQ_RCOND)[0].T
    scale = max(1.0, np.linalg.norm(rhs))
    if np.linalg.norm(k0 @ at - rhs) > RESIDUAL_TOL * scale:
        raise SynthesisError("equality constraint on k has no solution")
    pi = np.eye(at.shape[0]) - at @ np.linalg.pinv(at)
    pi = 0.5 * (pi + pi.T)
    for expo in range(-4, 11):
        beta = 2.0 ** expo
        k = k0 - beta * (bt.T @ pi)
        gram = k @ bt + bt.T @ k.T
        if np.linalg.eigvalsh(0.5 * (gram + gram.T)).max() <= -RESIDUAL_TOL:
            return k
    raise SynthesisError(
        "no beta in the search grid makes k bt + bt' k' negative definite; "
        "supply k explicitly"
    )


def _decomposed_a(decomp):
    n = decomp.gamma_x.shape[0]
    q, m = decomp.q, decomp.m
    at = np.zeros((n, n))
    at[: 2 * q, : 2 * q] = decomp.a_s
    at[m + q:, m + q:] = decomp.a_omega
    return at


# -- verification ------------------------------------------------------------


def _verify_P(a, p):
    """Check p > 0 symmetric and ``p a + a' p <= RESIDUAL_TOL*||a||``."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.shape != a.shape:
        raise ValidationError(f"p must match a's shape {a.shape}, got {p.shape}")
    check = partial(GainCheck, "p_neutral_weight")
    sym_err = np.linalg.norm(p - p.T)
    if sym_err > RESIDUAL_TOL * max(1.0, np.linalg.norm(p)):
        return check(False, -sym_err, f"p is not symmetric (asymmetry {sym_err:.3e})")
    min_eig = float(np.linalg.eigvalsh(0.5 * (p + p.T)).min())
    if min_eig <= DEFINITE_TOL:
        return check(False, min_eig, f"p is not positive definite (min eig {min_eig:.3e})")
    resid = p @ a + a.T @ p
    max_eig = float(np.linalg.eigvalsh(0.5 * (resid + resid.T)).max())
    bound = RESIDUAL_TOL * max(1.0, np.linalg.norm(a))
    if max_eig > bound:
        return check(
            False, -max_eig,
            f"p a + a' p has positive eigenvalue {max_eig:.3e} (bound {bound:.3e})",
        )
    return check(
        True, min_eig, f"min eig(p) = {min_eig:.3e}, max eig(pa+a'p) = {max_eig:.3e}"
    )


def _verify_F(a, c, f):
    """Check that a - f c is Hurwitz; margin is the stability gap."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (a.shape[0], c.shape[0]):
        raise ValidationError(
            f"f must have shape ({a.shape[0]}, {c.shape[0]}), got {f.shape}"
        )
    margin = -float(eigenvalues(a - f @ c).real.max())
    return GainCheck(
        "f_stabilizes_observer", margin > EIG_TOL, margin,
        f"slowest observer mode at {-margin:.6g}",
    )


def _verify_K_double(k, m):
    """Check k = (k1 k2) with both m x m blocks negative definite."""
    k = np.asarray(k, dtype=float)
    if k.shape != (m, 2 * m):
        raise ValidationError(f"k must have shape ({m}, {2 * m}), got {k.shape}")
    margins = []
    for idx, name in ((0, "k1"), (1, "k2")):
        blk = k[:, idx * m: (idx + 1) * m]
        top = float(np.linalg.eigvalsh(0.5 * (blk + blk.T)).max())
        margins.append((name, -top))
    worst = min(margins, key=lambda nm: nm[1])
    detail = ", ".join(f"{nm}: definiteness margin {mg:.3e}" for nm, mg in margins)
    return GainCheck("k_blocks_negative_definite", worst[1] > DEFINITE_TOL, worst[1], detail)


def _verify_K_mixed(decomp, k, p_d):
    """Check the mixed-case equality and strict inequality for k.

    The equality is checked against the velocity weight ``p_d``, which
    must be q x q and positive definite. Where ``p_d`` is None, the
    weight that minimizes the equality residual is recovered by least
    squares (the equality is linear in p_d) and must itself be positive
    definite.
    """
    k = np.asarray(k, dtype=float)
    n = decomp.gamma_x.shape[0]
    q, m = decomp.q, decomp.m
    if k.shape != (m, n):
        raise ValidationError(f"k must have shape ({m}, {n}), got {k.shape}")
    if p_d is None:
        p_d = _best_p_d(decomp, k)
        indefinite = "no positive definite velocity weight fits the equality (best min eig"
    else:
        p_d = np.asarray(p_d, dtype=float)
        if p_d.shape != (q, q):
            raise ValidationError(f"p_d must be {q}x{q}, got {p_d.shape}")
        indefinite = "the stated velocity weight p_d is not positive definite (min eig"
    pd_min = float(np.linalg.eigvalsh(0.5 * (p_d + p_d.T)).min()) if q else 1.0
    if pd_min <= DEFINITE_TOL:
        return GainCheck(
            "k_mixed_conditions", False, pd_min, f"{indefinite} {pd_min:.3e})"
        )
    lam = compute_Lambda(decomp, p_d)
    at = _decomposed_a(decomp)
    resid = float(np.linalg.norm(k @ at + decomp.b_tilde.T @ lam))
    scale = max(1.0, np.linalg.norm(decomp.b_tilde.T @ lam))
    gram = k @ decomp.b_tilde + decomp.b_tilde.T @ k.T
    ineq_margin = -float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).max())
    return GainCheck(
        "k_mixed_conditions",
        resid <= RESIDUAL_TOL * scale and ineq_margin > DEFINITE_TOL,
        min(ineq_margin, RESIDUAL_TOL * scale - resid),
        f"equality residual {resid:.3e} (scale {scale:.3g}), "
        f"input dissipation margin {ineq_margin:.3e}",
    )


def _best_p_d(decomp, k):
    """Symmetric velocity weight minimizing the equality residual.

    The equality pins k's position columns to ``-bt_vel' p_d``, so p_d
    solves a linear least-squares problem; the symmetrized minimizer is
    returned (exact whenever an exact symmetric solution exists).
    """
    q, m = decomp.q, decomp.m
    if q == 0:
        return np.zeros((0, 0))
    bt_vel = decomp.b_tilde[q: 2 * q, :]
    k_pos = k[:, :q]
    p_d = np.linalg.lstsq(bt_vel.T, -k_pos, rcond=_LSTSQ_RCOND)[0]
    return 0.5 * (p_d + p_d.T)


def verify_gains(model, gains, kind):
    """Run every verification the protocol kind requires.

    Report-only: each condition contributes a :class:`GainCheck` with a
    numerical margin; nothing raises for a failed condition. The gains
    the kind consumes must be present (missing ones raise): ``p`` for
    the neutrally stable class, ``k`` for the others, and ``f`` where
    neighbours exchange outputs.
    """
    model_class, full_state = kind_spec(kind)
    checks = [
        GainCheck(
            name="rho_positive",
            passed=gains.rho > 0,
            margin=gains.rho,
            detail=f"rho = {gains.rho:.6g}"
            if gains.rho > 0
            else "rho must be positive",
        )
    ]
    neutral = model_class is ModelClass.NEUTRALLY_STABLE
    wanted = ("p" if neutral else "k",) + (() if full_state else ("f",))
    missing = [g for g in wanted if getattr(gains, g) is None]
    if missing:
        raise ValidationError(f"kind {kind} needs gains {missing}")

    if neutral:
        checks.append(_verify_P(model.a, gains.p))
    if not full_state:
        checks.append(_verify_F(model.a, model.c, gains.f))
    if model_class is ModelClass.MIXED:
        decomp = mixed_decompose(model.a, model.b, model.c, gamma_x=gains.gamma_x)
        checks.append(_verify_K_mixed(decomp, gains.k, gains.p_d))
    elif model_class is ModelClass.DOUBLE_INTEGRATOR:
        checks.append(_verify_K_double(gains.k, model.m))
    return GainReport(checks=tuple(checks))


def synthesize_gains(model, kind, rho=1.0):
    """Produce the full GainSet a protocol kind needs for this model."""
    model_class, full_state = kind_spec(kind)
    p = f = k = p_d = gamma_x = None
    if model_class is ModelClass.NEUTRALLY_STABLE:
        p = solve_P_neutral(model.a)
    elif model_class is ModelClass.DOUBLE_INTEGRATOR:
        k = design_K_double(model.m)
    else:
        decomp = mixed_decompose(model.a, model.b, model.c)
        p_d = np.eye(decomp.q)
        k = design_K_mixed(decomp)
        gamma_x = decomp.gamma_x
    if not full_state:
        f = design_F(model.a, model.c)
    return GainSet(rho=rho, p=p, f=f, k=k, p_d=p_d, gamma_x=gamma_x)
