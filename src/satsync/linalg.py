"""Dense linear-algebra kernel: spectra, the Hurwitz test, and the two
matrix-equation solvers (Lyapunov, filter Riccati) that the gain
synthesis sits on.

Everything works on plain ``numpy.ndarray`` values. The tolerances
below are fixed and shared package-wide, so that classification,
synthesis, and verification agree on what counts as zero.

``scipy.linalg`` is imported inside the Schur-based solvers only (here
and in ``gains.solve_P_neutral``). Loading it took 0.35 s of the 0.59 s
``import satsync.cli`` took on a 2-vCPU host, plus about 22 MB, and the
P6 commands call none of them.
"""

from __future__ import annotations

import numpy as np

from .errors import SynthesisError

__all__ = [
    "EIG_TOL",
    "RANK_RTOL",
    "CLUSTER_TOL",
    "eigenvalues",
    "is_hurwitz",
    "solve_lyapunov",
    "solve_filter_riccati",
    "realify_eigenvector",
]

# Spectral predicates (Hurwitz margins, imaginary-axis membership).
EIG_TOL = 1e-9
# Relative singular-value threshold for numerical rank decisions.
RANK_RTOL = 1e-8
# Eigenvalues closer than this are treated as one cluster when counting
# multiplicities.
CLUSTER_TOL = 1e-6
# Most Newton-Kleinman steps polishing a filter Riccati solution.
_NEWTON_STEPS = 10


def _square(a, name="a"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def eigenvalues(a):
    """Eigenvalues of a square real matrix, deterministically ordered.

    Parameters
    ----------
    a : array_like
        Square matrix.

    Returns
    -------
    numpy.ndarray
        The eigenvalues, complex ones in conjugate pairs, sorted by
        (real, imaginary) part for reproducibility.
    """
    a = _square(a)
    vals = np.linalg.eigvals(a)
    return vals[np.lexsort((vals.imag, vals.real))]


def is_hurwitz(a):
    """True iff every eigenvalue of ``a`` has real part < -EIG_TOL."""
    return bool(eigenvalues(a).real.max() < -EIG_TOL)


def solve_lyapunov(a, q):
    """Solve ``a.T @ P + P @ a = -q`` for symmetric P.

    The equation is solved by the Bartels-Stewart method (Schur form of
    ``a``, then a triangular solve), in O(n^3) time and O(n^2) memory.
    ``a`` must be Hurwitz: that is the regime every caller in this
    package is in, and it guarantees a unique symmetric solution,
    positive definite whenever ``q`` is.

    Parameters
    ----------
    a : array_like
        Square Hurwitz matrix.
    q : array_like
        Symmetric right-hand side.

    Returns
    -------
    numpy.ndarray
        Symmetric solution P with residual ``||a.T P + P a + q||``
        at most ``1e-8 * ||q||``.

    Raises
    ------
    SynthesisError
        If ``a`` is not Hurwitz or the residual check fails.
    """
    a = _square(a)
    q = _square(q, "q")
    if a.shape != q.shape:
        raise ValueError(f"shape mismatch: a {a.shape} vs q {q.shape}")
    if not np.allclose(q, q.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(q).max())):
        raise ValueError("q must be symmetric")
    if not is_hurwitz(a):
        raise SynthesisError(
            "Lyapunov equation has no stable solution: matrix is not Hurwitz "
            f"(max Re eig = {eigenvalues(a).real.max():.3e})"
        )
    import scipy.linalg

    p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    p = 0.5 * (p + p.T)
    scale = max(np.linalg.norm(q), 1e-30)
    residual = np.linalg.norm(a.T @ p + p @ a + q)
    if residual > 1e-8 * scale:
        raise SynthesisError(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-8 * ||q||"
        )
    return p


def solve_filter_riccati(a, c):
    """Solve ``a Y + Y a.T - Y c.T c Y + I = 0`` for the stabilizing Y.

    This is the filter-side algebraic Riccati equation; the observer gain
    is recovered as ``F = Y @ c.T`` and makes ``a - F c`` Hurwitz. The
    stabilizing solution comes from the Schur-based solver and is then
    polished by at most ``_NEWTON_STEPS`` Newton-Kleinman iterations
    until the residual is well inside the contract.

    Parameters
    ----------
    a : array_like
        Square system matrix.
    c : array_like
        Output matrix with as many columns as ``a``.

    Returns
    -------
    numpy.ndarray
        Symmetric positive semidefinite Y with residual at most
        ``1e-6`` relative to ``max(1, ||Y||)``.

    Raises
    ------
    SynthesisError
        If (a, c) is not detectable enough for a stabilizing solution.
    """
    a = _square(a)
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[1] != a.shape[0]:
        raise ValueError(f"c must have shape (p, {a.shape[0]}), got {c.shape}")
    n = a.shape[0]

    def _residual(y):
        return a @ y + y @ a.T - y @ c.T @ c @ y + np.eye(n)

    import scipy.linalg

    try:
        y = scipy.linalg.solve_continuous_are(a.T, c.T, np.eye(n), np.eye(c.shape[0]))
    except Exception as exc:  # scipy raises LinAlgError on non-stabilizable data
        raise SynthesisError(f"filter Riccati equation is not solvable: {exc}") from exc
    y = 0.5 * (y + y.T)
    if not is_hurwitz(a - y @ c.T @ c):
        raise SynthesisError("Riccati solution is not stabilizing")
    # Newton-Kleinman refinement; each step solves one Lyapunov equation at
    # the current stabilizing iterate and converges quadratically.
    for _ in range(_NEWTON_STEPS):
        scale = max(1.0, np.linalg.norm(y))
        if np.linalg.norm(_residual(y)) <= 1e-9 * scale:
            break
        a_k = a - y @ c.T @ c
        rhs = np.eye(n) + y @ c.T @ c @ y
        y = solve_lyapunov(a_k.T, rhs)
        y = 0.5 * (y + y.T)
    scale = max(1.0, np.linalg.norm(y))
    residual = np.linalg.norm(_residual(y))
    if residual > 1e-6 * scale:
        raise SynthesisError(
            f"filter Riccati residual {residual:.3e} did not reach 1e-6"
        )
    return y


def realify_eigenvector(vec):
    """Split a complex eigenvector into a well-scaled real column pair.

    For an eigenvector ``z`` of a real matrix at eigenvalue ``i*w`` the
    columns ``(Re z, Im z)`` span an invariant plane on which the matrix
    acts as ``[[0, w], [-w, 0]]`` regardless of the phase of ``z``. The
    phase and scale still matter for conditioning, so this picks the
    phase that makes the two columns orthogonal (principal axes of the
    2x2 Gram matrix) and scales them to geometric-mean norm 1. When the
    invariant plane is already a coordinate plane the result is an exact
    pair of orthonormal columns.
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    zr, zi = vec.real.copy(), vec.imag.copy()
    # Rotate z by exp(i*theta): the Gram matrix of (Re, Im) transforms by
    # conjugation with the rotation, so diagonalizing it picks theta.
    gram = np.array([[zr @ zr, zr @ zi], [zr @ zi, zi @ zi]])
    theta = 0.5 * np.arctan2(-2.0 * gram[0, 1], gram[0, 0] - gram[1, 1])
    rot = np.exp(1j * theta) * vec
    zr, zi = rot.real, rot.imag
    nr, ni = np.linalg.norm(zr), np.linalg.norm(zi)
    if min(nr, ni) <= 1e-14 * max(nr, ni, 1.0):
        raise SynthesisError("eigenvector pair is numerically degenerate")
    scale = 1.0 / np.sqrt(nr * ni)
    return scale * zr, scale * zi
