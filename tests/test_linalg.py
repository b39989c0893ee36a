"""Linear-algebra layer: hand oracles for every solver."""

import numpy as np
import pytest

from satsync.errors import SynthesisError
from satsync.linalg import (
    eigenvalues,
    is_hurwitz,
    realify_eigenvector,
    solve_filter_riccati,
    solve_lyapunov,
)

from oracles import is_negative_definite

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_eigenvalues_of_rotation_are_plus_minus_i():
    vals = eigenvalues(ROTATION)
    got = sorted(vals, key=lambda z: z.imag)
    assert got[0] == pytest.approx(-1j, abs=1e-12)
    assert got[1] == pytest.approx(1j, abs=1e-12)
    assert vals.real.max() == pytest.approx(0.0, abs=1e-12)


def test_hurwitz_classification():
    assert is_hurwitz(np.diag([-1.0, -2.0]))
    assert not is_hurwitz(ROTATION)  # marginal, not strict
    assert not is_hurwitz(np.array([[1e-3]]))


def test_negative_definite_uses_symmetric_part():
    assert is_negative_definite(-np.eye(2))
    # skew part must not rescue an indefinite symmetric part
    assert not is_negative_definite(np.array([[1.0, 5.0], [-5.0, -1.0]]))
    assert not is_negative_definite(np.zeros((2, 2)))


def test_solve_lyapunov_scalar_oracle():
    # a = -2, q = 8: -2p - 2p = -8 so p = 2
    p = solve_lyapunov(np.array([[-2.0]]), np.array([[8.0]]))
    assert p[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_solve_lyapunov_non_symmetric_hand_oracle():
    # a = [[-1, 1], [0, -2]], q = I. With P = [[p, r], [r, s]],
    # a.T P + P a = [[-2p, p - 3r], [p - 3r, 2r - 4s]] = -I gives
    # p = 1/2, r = 1/6, s = 1/3. The transposed equation a P + P a.T = -q
    # has the different solution [[7/12, 1/12], [1/12, 1/4]].
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    p = solve_lyapunov(a, np.eye(2))
    want = np.array([[1 / 2, 1 / 6], [1 / 6, 1 / 3]])
    assert np.allclose(p, want, rtol=0.0, atol=1e-15)


def test_solve_lyapunov_residual_and_definiteness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 6)
        a = rng.standard_normal((n, n)) - (n + 1) * np.eye(n)
        assert is_hurwitz(a)
        q = rng.standard_normal((n, n))
        q = q @ q.T + np.eye(n)
        p = solve_lyapunov(a, q)
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p).min() > 0
        res = np.linalg.norm(a.T @ p + p @ a + q)
        assert res <= 1e-8 * np.linalg.norm(q)


def test_solve_lyapunov_rejects_non_hurwitz():
    with pytest.raises(SynthesisError, match="not Hurwitz"):
        solve_lyapunov(ROTATION, np.eye(2))


def test_solve_lyapunov_rejects_asymmetric_q():
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_filter_riccati_stabilizes_and_satisfies_equation():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.array([[1.0, 0.0]])
    y = solve_filter_riccati(a, c)
    res = a @ y + y @ a.T - y @ c.T @ c @ y + np.eye(2)
    assert np.linalg.norm(res) <= 1e-6 * max(1.0, np.linalg.norm(y))
    f = y @ c.T
    assert is_hurwitz(a - f @ c)


def test_filter_riccati_rejects_undetectable_pair():
    # unobservable unstable mode: c sees only the first state
    a = np.diag([-1.0, 1.0])
    c = np.array([[1.0, 0.0]])
    with pytest.raises(SynthesisError):
        solve_filter_riccati(a, c)


def test_realify_eigenvector_spans_invariant_plane():
    w, v = np.linalg.eig(ROTATION)
    re, im = realify_eigenvector(v[:, 0])
    basis = np.column_stack([re, im])
    # orthogonal columns at geometric-mean norm 1
    assert re @ im == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(re) * np.linalg.norm(im) == pytest.approx(1.0, rel=1e-12)
    # the plane is invariant: A @ span stays in span
    mapped = ROTATION @ basis
    coeffs, *_ = np.linalg.lstsq(basis, mapped, rcond=None)
    assert np.linalg.norm(basis @ coeffs - mapped) < 1e-10
