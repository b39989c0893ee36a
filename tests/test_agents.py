"""Agent layer: saturation, class detection, the mixed-block coordinates."""

import numpy as np
import pytest

from satsync.agents import (
    AgentModel,
    ModelClass,
    classify,
    mixed_decompose,
    saturate,
)
from satsync.errors import SynthesisError, ValidationError
from satsync.gains import synthesize_gains
from satsync.protocols import build_protocol

from oracles import saturation_potential

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
DOUBLE_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DOUBLE_B = np.array([[0.0], [1.0]])


def test_saturate_clips_componentwise():
    v = np.array([-3.0, -1.0, -0.2, 0.0, 0.7, 1.0, 42.0])
    assert np.array_equal(saturate(v), np.array([-1.0, -1.0, -0.2, 0.0, 0.7, 1.0, 1.0]))


def test_saturate_is_np_clip_bit_for_bit_also_into_out():
    v = np.array([-np.inf, -3.0, -1.0, -0.0, 0.0, 5e-324, 0.7, 1.0, np.nextafter(1.0, 2.0), np.inf, np.nan])
    want = np.clip(v, -1.0, 1.0).tobytes()
    assert saturate(v).tobytes() == want
    out = np.full_like(v, 7.0)
    assert saturate(v, out=out) is out and out.tobytes() == want
    assert saturate(list(v)).tobytes() == want


def test_saturate_idempotent_odd_lipschitz():
    rng = np.random.default_rng(17)
    u = rng.uniform(-4, 4, size=(200, 3))
    v = rng.uniform(-4, 4, size=(200, 3))
    s = saturate(u)
    assert np.array_equal(saturate(s), s)
    assert np.array_equal(saturate(-u), -s)
    # global 1-Lipschitz bound, componentwise
    assert np.all(np.abs(s - saturate(v)) <= np.abs(u - v) + 1e-15)


def test_saturation_potential_hand_values():
    # 2*integral of sat: quadratic inside the band, affine outside
    assert saturation_potential(np.array([0.0])) == 0.0
    assert saturation_potential(np.array([0.5])) == pytest.approx(0.25)
    assert saturation_potential(np.array([1.0])) == pytest.approx(1.0)
    assert saturation_potential(np.array([2.0])) == pytest.approx(3.0)
    assert saturation_potential(np.array([-2.0])) == pytest.approx(3.0)
    # sums over components
    assert saturation_potential(np.array([0.5, 2.0])) == pytest.approx(3.25)


def test_saturation_potential_gradient_is_twice_sat():
    rng = np.random.default_rng(23)
    u = rng.uniform(-3, 3, size=50)
    h = 1e-7
    for k in range(len(u)):
        up, dn = u.copy(), u.copy()
        up[k] += h
        dn[k] -= h
        grad = (saturation_potential(up) - saturation_potential(dn)) / (2 * h)
        assert abs(grad - 2.0 * saturate(u[k : k + 1])[0]) < 1e-6


def test_classify_neutrally_stable():
    c = classify(ROTATION, np.array([[0.0], [1.0]]), np.eye(2))
    assert c.model_class is ModelClass.NEUTRALLY_STABLE


def test_classify_double_integrator():
    c = classify(DOUBLE_A, DOUBLE_B, np.array([[1.0, 0.0]]))
    assert c.model_class is ModelClass.DOUBLE_INTEGRATOR


def test_classify_flags_unstable_as_unsupported():
    c = classify(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert c.model_class is ModelClass.UNSUPPORTED


def test_classify_reports_uncontrollable():
    # b excites only the first state of a diagonal pair
    a = np.diag([0.0, 0.0])
    b = np.array([[1.0], [0.0]])
    c = classify(a, b, np.eye(2))
    assert not c.controllable
    assert c.model_class is ModelClass.UNSUPPORTED


def test_agent_model_full_coupling_needs_identity_c():
    # the model is the triple alone; a full-state kind checks c = I where
    # it is built (the parse check is in test_scenario)
    with pytest.raises(TypeError):
        AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2), coupling="full")
    model = AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.array([[1.0, 0.0]]))
    gains = synthesize_gains(model, "P1")
    with pytest.raises(ValidationError, match="exchanges full states and needs c = I"):
        build_protocol("P1", model, gains)
    build_protocol("P2", model, synthesize_gains(model, "P2"))


def mixed_canonical():
    # one position/velocity chain, one single integrator, one oscillator pair
    a = np.zeros((5, 5))
    a[0, 1] = 1.0  # chain: position 0 fed by velocity 1
    a[3, 4] = 2.0
    a[4, 3] = -2.0
    b = np.zeros((5, 2))
    b[1, 0] = 1.0  # velocity driven
    b[2, 1] = 1.0  # single integrator driven
    b[3, 1] = 1.0
    b[4, 0] = 1.0
    c = np.eye(5)
    return a, b, c


def test_classify_mixed():
    a, b, c = mixed_canonical()
    assert classify(a, b, c).model_class is ModelClass.MIXED


def test_mixed_decompose_canonical_blocks():
    a, b, c = mixed_canonical()
    d = mixed_decompose(a, b, c)
    assert d.m == 2 and d.q == 1
    assert np.array_equal(d.a_s, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert d.a_f.shape == (1, 1) and d.a_f[0, 0] == 0.0
    assert np.allclose(d.a_omega, -d.a_omega.T)
    # gamma_x really block-diagonalizes a
    at = d.gamma_x @ a @ np.linalg.inv(d.gamma_x)
    n, m, q = 5, d.m, d.q
    target = np.zeros((n, n))
    target[:2 * q, :2 * q] = d.a_s
    target[m + q:, m + q:] = d.a_omega
    assert np.linalg.norm(at - target) < 1e-10


def test_mixed_decompose_survives_similarity():
    a, b, c = mixed_canonical()
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    a2 = t @ a @ np.linalg.inv(t)
    b2 = t @ b
    d = mixed_decompose(a2, b2, c)
    at = d.gamma_x @ a2 @ np.linalg.inv(d.gamma_x)
    assert np.linalg.norm(at[:1, 1:2] - 1.0) < 1e-8  # chain survives


def test_mixed_decompose_rejects_wrong_structure():
    with pytest.raises(SynthesisError, match="mixed structure"):
        mixed_decompose(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]), np.eye(2))


def test_mixed_decompose_rejects_bad_gamma_x():
    a, b, c = mixed_canonical()
    with pytest.raises(SynthesisError, match="block form"):
        mixed_decompose(a, b, c, gamma_x=np.eye(5)[::-1].copy())
