"""Gain synthesis and verification against the algebraic contracts."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from satsync.agents import AgentModel, mixed_decompose
from satsync.errors import SynthesisError, ValidationError
from satsync.gains import (
    _LSTSQ_RCOND,
    GainSet,
    compute_Lambda,
    design_F,
    design_K_double,
    design_K_mixed,
    solve_P_neutral,
    synthesize_gains,
    verify_gains,
)
from satsync.linalg import is_hurwitz

from oracles import preset_parts

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation_model():
    return AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2))


def random_neutral(rng, max_pairs=2):
    """Random neutrally stable (a, b): oscillators + integrators, conjugated."""
    pairs = int(rng.integers(0, max_pairs + 1))
    zeros = int(rng.integers(1 if pairs == 0 else 0, 3))
    blocks = []
    for _ in range(pairs):
        w = float(rng.uniform(0.3, 4.0))
        blocks.append(np.array([[0.0, w], [-w, 0.0]]))
    n = 2 * pairs + zeros
    a = np.zeros((n, n))
    at = 0
    for blk in blocks:
        a[at:at + 2, at:at + 2] = blk
        at += 2
    t = rng.standard_normal((n, n))
    t += np.sign(np.linalg.det(t) or 1.0) * n * np.eye(n)
    return t @ a @ np.linalg.inv(t)


def test_solve_P_neutral_rotation_oracle():
    p = solve_P_neutral(ROTATION)
    # skew a: p = I satisfies p a + a' p = 0; solver must land on a PD
    # weight with the same vanishing commutator
    assert np.array_equal(p, p.T)
    assert np.linalg.eigvalsh(p).min() > 0
    res = np.linalg.eigvalsh(p @ ROTATION + ROTATION.T @ p).max()
    assert res <= 1e-8 * np.linalg.norm(ROTATION)


def test_solve_P_neutral_seeded_family():
    rng = np.random.default_rng(41)
    for _ in range(25):
        a = random_neutral(rng)
        p = solve_P_neutral(a)
        assert np.linalg.eigvalsh(p).min() > 0
        lam = np.linalg.eigvalsh(p @ a + a.T @ p).max()
        assert lam <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_solve_P_neutral_rejects_unstable():
    with pytest.raises((SynthesisError, ValidationError)):
        solve_P_neutral(np.array([[1.0]]))


def test_design_F_stabilizes_both_demo_models():
    for model in (preset_parts("example1").model, preset_parts("example2").model):
        f = design_F(model.a, model.c)
        assert f.shape == (model.n, model.q_out)
        assert is_hurwitz(model.a - f @ model.c)


def test_design_K_double_blocks():
    k = design_K_double(2)
    assert np.array_equal(k, np.hstack([-np.eye(2), -np.eye(2)]))


def test_compute_Lambda_layout():
    model = preset_parts("example2").model
    d = mixed_decompose(model.a, model.b, model.c)
    p_d = 2.0 * np.eye(d.q)
    lam = compute_Lambda(d, p_d)
    n, m, q = model.n, d.m, d.q
    assert np.array_equal(lam[q:2 * q, q:2 * q], p_d)
    assert np.array_equal(lam[m + q:, m + q:], np.eye(n - m - q))
    assert np.count_nonzero(lam) == q + (n - m - q)


def test_compute_Lambda_rejects_indefinite_p_d():
    model = preset_parts("example2").model
    d = mixed_decompose(model.a, model.b, model.c)
    with pytest.raises(ValidationError, match="positive definite"):
        compute_Lambda(d, -np.eye(d.q))


def test_design_K_mixed_satisfies_both_conditions():
    model = preset_parts("example2").model
    d = mixed_decompose(model.a, model.b, model.c)
    k = design_K_mixed(d)
    at = np.zeros_like(model.a)
    at[:2 * d.q, :2 * d.q] = d.a_s
    at[d.m + d.q:, d.m + d.q:] = d.a_omega
    lam = compute_Lambda(d, np.eye(d.q))
    bt = d.b_tilde
    assert np.linalg.norm(k @ at + bt.T @ lam) <= 1e-8 * max(1.0, np.linalg.norm(bt.T @ lam))
    gram = k @ bt + bt.T @ k.T
    assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).max() < 0


@st.composite
def lstsq_problems(draw):
    """(a, b): full rank, rank r < min(m, n) as a product of thin
    factors, or one singular value at 4 eps relative -- above scipy's
    cutoff, below numpy's default eps * max(m, n) once max(m, n) > 4."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    family = draw(st.sampled_from(["full", "product", "near_cutoff"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhs = rng.standard_normal((m, draw(st.integers(1, 3))))
    if family == "full":
        return rng.standard_normal((m, n)), rhs
    r = draw(st.integers(0, min(m, n) - 1))
    if family == "product":
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n)), rhs
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sv = np.zeros((m, n))
    sv[range(r), range(r)] = np.logspace(0, -3, r)
    sv[r, r] = 4 * np.finfo(float).eps
    return u @ sv @ v.T, rhs


@given(lstsq_problems())
def test_numpy_lstsq_matches_scipy_default_cutoff(problem):
    # design_K_mixed and _best_p_d solve with numpy at _LSTSQ_RCOND; scipy's
    # default cutoff is the oracle for the effective rank and the solution
    a, rhs = problem
    x, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=_LSTSQ_RCOND)
    want, _, want_rank, _ = scipy.linalg.lstsq(a, rhs)
    assert rank == want_rank
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def test_verify_gains_passes_on_synthesized():
    for model, kind in [
        (rotation_model(), "P1"),
        (preset_parts("example1").model, "P4"),
        (preset_parts("example2").model, "P6"),
    ]:
        gains = synthesize_gains(model, kind)
        report = verify_gains(model, gains, kind=kind)
        assert report.passed, [c.detail for c in report.failures()]


def test_verify_gains_fails_on_zero_F():
    model = preset_parts("example1").model
    gains = synthesize_gains(model, "P4")
    broken = GainSet(rho=gains.rho, f=np.zeros_like(gains.f), k=gains.k)
    report = verify_gains(model, broken, kind="P4")
    assert not report.passed
    assert any(c.name == "f_stabilizes_observer" for c in report.failures())


def test_verify_gains_fails_on_zero_velocity_block():
    model = preset_parts("example1").model
    gains = synthesize_gains(model, "P4")
    k = gains.k.copy()
    k[:, model.m:] = 0.0  # no velocity damping
    report = verify_gains(model, GainSet(rho=1.0, f=gains.f, k=k), kind="P4")
    assert not report.passed
    assert any(c.name == "k_blocks_negative_definite" for c in report.failures())


def test_verify_gains_fails_on_nonpositive_rho():
    model = preset_parts("example1").model
    gains = synthesize_gains(model, "P4")
    for rho in (0.0, -1.0):
        report = verify_gains(
            model, GainSet(rho=rho, f=gains.f, k=gains.k), kind="P4"
        )
        assert any(c.name == "rho_positive" and not c.passed for c in report.checks)


def test_verify_gains_requires_kind_gains():
    with pytest.raises(ValidationError, match="needs gains"):
        verify_gains(preset_parts("example1").model, GainSet(rho=1.0), kind="P4")


def test_synthesize_gains_field_coverage():
    wanted = {
        "P1": {"p"},
        "P2": {"p", "f"},
        "P3": {"k"},
        "P4": {"k", "f"},
        "P6": {"k", "f", "p_d", "gamma_x"},
    }
    models = {
        "P1": rotation_model(),
        "P2": AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.array([[1.0, 0.0]])),
        "P3": AgentModel(
            a=np.array([[0.0, 1.0], [0.0, 0.0]]),
            b=np.array([[0.0], [1.0]]),
            c=np.eye(2),
        ),
        "P4": preset_parts("example1").model,
        "P6": preset_parts("example2").model,
    }
    for kind, fields in wanted.items():
        gains = synthesize_gains(models[kind], kind)
        for name in fields:
            assert getattr(gains, name) is not None, (kind, name)


def test_gain_set_validation():
    with pytest.raises(ValidationError, match="finite"):
        GainSet(rho=np.inf)
    with pytest.raises(ValidationError, match="finite matrix"):
        GainSet(rho=1.0, k=np.array([[np.nan, 0.0]]))
