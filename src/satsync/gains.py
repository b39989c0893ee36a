"""Gain synthesis and verification for the six protocol kinds.

Every protocol is parameterized by a coupling strength ``rho`` and a
small set of matrices, all computable from the agent triple alone:

* ``p``   -- kinds P1/P2: positive definite with ``p a + a' p <= 0``.
* ``f``   -- kinds P2/P4/P6: observer injection with ``a - f c`` Hurwitz.
* ``k``   -- kinds P3/P4: two negative definite blocks ``(k1 k2)``;
  kinds P5/P6: feedback in the decomposed coordinates satisfying an
  equality tied to the block structure and a strict dissipation
  inequality on the input directions.

Synthesis is deterministic. Verification is separate from synthesis on
purpose: scenario files may carry hand-picked gains, and those are
admitted only after passing the same checks the synthesized ones do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .agents import MixedDecomposition, ModelClass, mixed_decompose
from .errors import SynthesisError, ValidationError
from .linalg import (
    EIG_TOL,
    eigenvalues,
    is_hurwitz,
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
    "verify_P",
    "verify_F",
    "verify_K_double",
    "verify_K_mixed",
    "verify_gains",
    "synthesize_gains",
]

# Strict definiteness/stability margins pass above this; equality
# residuals pass below 1e-8 (relative).
DEFINITE_TOL = 1e-10
RESIDUAL_TOL = 1e-8

# Which gains each protocol kind consumes.
_REQUIRED = {
    "P1": ("p",),
    "P2": ("p", "f"),
    "P3": ("k",),
    "P4": ("k", "f"),
    "P5": ("k",),
    "P6": ("k", "f"),
}


@dataclass
class GainSet:
    """Gains for one protocol instance.

    Only the fields a protocol kind consumes need to be present.
    ``gamma_x`` optionally pins the decomposed coordinates a mixed-case
    ``k`` was designed in; without it the canonical decomposition is
    used. ``lam`` and ``p_d`` record the weighting used when ``k`` came
    from the mixed-case construction.
    """

    rho: float = 1.0
    p: np.ndarray | None = None
    f: np.ndarray | None = None
    k: np.ndarray | None = None
    lam: np.ndarray | None = None
    p_d: np.ndarray | None = None
    gamma_x: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.rho):
            raise ValidationError("rho must be finite")
        self.rho = float(self.rho)
        for name in ("p", "f", "k", "lam", "p_d", "gamma_x"):
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
    vals = eigenvalues(a).values
    if vals.real.max() > EIG_TOL:
        raise SynthesisError(
            f"a has an eigenvalue with real part {vals.real.max():.3e} > 0"
        )
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
    ok, margin, detail = verify_P(a, p)
    if not ok:
        raise SynthesisError(f"constructed p fails verification: {detail}")
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
    ok, margin, detail = verify_F(a, c, f)
    if not ok:
        raise SynthesisError(f"constructed f fails verification: {detail}")
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


def design_K_mixed(decomp, p_d=None):
    """Feedback for the mixed class: equality by least squares, strict
    input dissipation by a projected scaling search.

    The base solution is the minimum-norm k0 with
    ``k0 at = -bt' lam`` (at, bt: dynamics/input in the decomposed
    coordinates). Adding rows from the left null space of ``at``
    preserves the equality; the search scales ``-beta bt' pi`` (pi the
    orthogonal projector onto that null space) over a geometric beta
    grid until ``k bt + bt' k'`` is strictly negative definite.
    """
    q, m = decomp.q, decomp.m
    if p_d is None:
        p_d = np.eye(q)
    lam = compute_Lambda(decomp, p_d)
    at = _decomposed_a(decomp)
    bt = decomp.b_tilde
    rhs = -(bt.T @ lam)
    k0 = scipy.linalg.lstsq(at.T, rhs.T)[0].T
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


def verify_P(a, p, tol=RESIDUAL_TOL):
    """Check p > 0 symmetric and ``p a + a' p <= tol*||a||``."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.shape != a.shape:
        raise ValidationError(f"p must match a's shape {a.shape}, got {p.shape}")
    sym_err = np.linalg.norm(p - p.T)
    if sym_err > tol * max(1.0, np.linalg.norm(p)):
        return False, -sym_err, f"p is not symmetric (asymmetry {sym_err:.3e})"
    min_eig = float(np.linalg.eigvalsh(0.5 * (p + p.T)).min())
    if min_eig <= DEFINITE_TOL:
        return False, min_eig, f"p is not positive definite (min eig {min_eig:.3e})"
    resid = p @ a + a.T @ p
    max_eig = float(np.linalg.eigvalsh(0.5 * (resid + resid.T)).max())
    bound = tol * max(1.0, np.linalg.norm(a))
    if max_eig > bound:
        return False, -max_eig, (
            f"p a + a' p has positive eigenvalue {max_eig:.3e} (bound {bound:.3e})"
        )
    return True, min_eig, f"min eig(p) = {min_eig:.3e}, max eig(pa+a'p) = {max_eig:.3e}"


def verify_F(a, c, f):
    """Check that a - f c is Hurwitz; margin is the stability gap."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (a.shape[0], c.shape[0]):
        raise ValidationError(
            f"f must have shape ({a.shape[0]}, {c.shape[0]}), got {f.shape}"
        )
    margin = -float(eigenvalues(a - f @ c).max_real())
    ok = margin > EIG_TOL
    return ok, margin, f"slowest observer mode at {-margin:.6g}"


def verify_K_double(k, m, tol=RESIDUAL_TOL):
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
    ok = worst[1] > DEFINITE_TOL
    detail = ", ".join(f"{nm}: definiteness margin {mg:.3e}" for nm, mg in margins)
    return ok, worst[1], detail


def verify_K_mixed(decomp, k, p_d=None, tol=RESIDUAL_TOL):
    """Check the mixed-case equality and strict inequality for k.

    With ``p_d`` given, the equality is checked against it. Without it,
    the velocity weight that minimizes the equality residual is
    recovered by least squares (the equality is linear in p_d) and must
    itself be positive definite.
    """
    k = np.asarray(k, dtype=float)
    n = decomp.gamma_x.shape[0]
    q, m = decomp.q, decomp.m
    if k.shape != (m, n):
        raise ValidationError(f"k must have shape ({m}, {n}), got {k.shape}")
    if p_d is None:
        p_d = _best_p_d(decomp, k)
    p_d = np.asarray(p_d, dtype=float)
    pd_min = float(np.linalg.eigvalsh(0.5 * (p_d + p_d.T)).min()) if q else 1.0
    lam = None
    if pd_min > DEFINITE_TOL:
        lam = compute_Lambda(decomp, p_d)
    if lam is None:
        return False, pd_min, (
            f"no positive definite velocity weight fits the equality "
            f"(best min eig {pd_min:.3e})"
        ), p_d
    at = _decomposed_a(decomp)
    resid = float(np.linalg.norm(k @ at + decomp.b_tilde.T @ lam))
    scale = max(1.0, np.linalg.norm(decomp.b_tilde.T @ lam))
    gram = k @ decomp.b_tilde + decomp.b_tilde.T @ k.T
    ineq_margin = -float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).max())
    ok = resid <= tol * scale and ineq_margin > DEFINITE_TOL
    detail = (
        f"equality residual {resid:.3e} (scale {scale:.3g}), "
        f"input dissipation margin {ineq_margin:.3e}"
    )
    return ok, min(ineq_margin, tol * scale - resid), detail, p_d


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
    p_d = scipy.linalg.lstsq(bt_vel.T, -k_pos)[0]
    return 0.5 * (p_d + p_d.T)


def verify_gains(model, gains, kind=None, tol=RESIDUAL_TOL, decomp=None):
    """Run every verification the model class / protocol kind requires.

    Report-only: each condition contributes a :class:`GainCheck` with a
    numerical margin; nothing raises for a failed condition. With
    ``kind`` given, the gains that kind consumes must be present
    (missing ones raise). Without it, whatever is present is checked.
    """
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
    if kind is not None:
        if kind not in _REQUIRED:
            raise ValidationError(f"unknown protocol kind {kind!r}")
        missing = [g for g in _REQUIRED[kind] if getattr(gains, g) is None]
        if missing:
            raise ValidationError(f"kind {kind} needs gains {missing}")
    wanted = _REQUIRED[kind] if kind is not None else ("p", "f", "k")

    if "p" in wanted and gains.p is not None:
        ok, margin, detail = verify_P(model.a, gains.p, tol)
        checks.append(GainCheck("p_neutral_weight", ok, margin, detail))
    if "f" in wanted and gains.f is not None:
        ok, margin, detail = verify_F(model.a, model.c, gains.f)
        checks.append(GainCheck("f_stabilizes_observer", ok, margin, detail))
    if "k" in wanted and gains.k is not None:
        mixed_kind = kind in ("P5", "P6") if kind is not None else (
            model.model_class is ModelClass.MIXED
        )
        if mixed_kind:
            if decomp is None:
                decomp = mixed_decompose(
                    model.a, model.b, model.c, gamma_x=gains.gamma_x
                )
            ok, margin, detail, p_d = verify_K_mixed(decomp, gains.k, gains.p_d, tol)
            checks.append(GainCheck("k_mixed_conditions", ok, margin, detail))
        else:
            ok, margin, detail = verify_K_double(gains.k, model.m, tol)
            checks.append(GainCheck("k_blocks_negative_definite", ok, margin, detail))
    return GainReport(checks=tuple(checks))


def synthesize_gains(model, kind, rho=1.0, p_d=None, decomp=None):
    """Produce the full GainSet a protocol kind needs for this model."""
    if kind not in _REQUIRED:
        raise ValidationError(f"unknown protocol kind {kind!r}")
    p = f = k = lam = gamma_x = None
    if kind in ("P1", "P2"):
        p = solve_P_neutral(model.a)
    if kind in ("P3", "P4"):
        k = design_K_double(model.m)
    if kind in ("P5", "P6"):
        if decomp is None:
            decomp = mixed_decompose(model.a, model.b, model.c)
        if p_d is None:
            p_d = np.eye(decomp.q)
        k = design_K_mixed(decomp, p_d)
        lam = compute_Lambda(decomp, p_d)
        gamma_x = decomp.gamma_x
    if kind in ("P2", "P4", "P6"):
        f = design_F(model.a, model.c)
    return GainSet(rho=rho, p=p, f=f, k=k, lam=lam, p_d=p_d, gamma_x=gamma_x)
