"""Protocol realizations and the diffusive network signals."""

import ast
import os

import numpy as np
import pytest

import satsync
from satsync.agents import AgentModel, ModelClass
from satsync.errors import ValidationError
from satsync.gains import GainSet, kind_spec, synthesize_gains, verify_gains
from satsync.graphs import CommGraph, generate_graph, laplacian
from satsync.protocols import KINDS, build_protocol, compatible_classes

from oracles import compute_network_signals, preset_parts

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def full_rotation_model():
    return AgentModel(a=ROTATION, b=np.array([[0.0], [1.0]]), c=np.eye(2))


def test_compatible_classes_table():
    assert compatible_classes("P1") == (ModelClass.NEUTRALLY_STABLE,)
    assert compatible_classes("P2") == (ModelClass.NEUTRALLY_STABLE,)
    assert compatible_classes("P3") == (ModelClass.DOUBLE_INTEGRATOR,)
    assert compatible_classes("P4") == (ModelClass.DOUBLE_INTEGRATOR,)
    assert ModelClass.MIXED in compatible_classes("P5")
    assert ModelClass.DOUBLE_INTEGRATOR in compatible_classes("P6")
    with pytest.raises(ValidationError):
        compatible_classes("P7")


def test_build_protocol_rejects_wrong_class():
    with pytest.raises(ValidationError):
        build_protocol("P3", full_rotation_model(), synthesize_gains(full_rotation_model(), "P1"))


def test_full_state_realization_matrices():
    model = full_rotation_model()
    gains = synthesize_gains(model, "P1", rho=2.0)
    proto = build_protocol("P1", model, gains)
    n = model.n
    assert np.array_equal(proto.a_c, model.a)
    assert np.array_equal(proto.b_c, model.b)
    assert np.array_equal(proto.c_c, np.eye(n))
    assert np.array_equal(proto.d_c, -np.eye(n))
    assert np.array_equal(proto.h_c, np.eye(n))
    # the input gain carries the loop gain: u = -rho b' p chi
    assert np.allclose(proto.u_gain, -2.0 * model.b.T @ gains.p)
    assert np.array_equal(proto.f_c, proto.u_gain)


def test_partial_state_realization_blocks():
    model = preset_parts("example1").model
    gains = synthesize_gains(model, "P4")
    proto = build_protocol("P4", model, gains)
    n, m = model.n, model.m
    f, k = gains.f, gains.k
    a_obs = model.a - f @ model.c
    # controller state is (xhat, chi); observer runs in the top block
    assert np.array_equal(proto.a_c[:n, :n], a_obs)
    assert np.array_equal(proto.a_c[:n, n:], np.zeros((n, n)))
    assert np.array_equal(proto.a_c[n:, :n], np.eye(n))
    assert np.array_equal(proto.a_c[n:, n:], model.a)
    assert np.array_equal(proto.b_c, np.vstack([np.zeros((n, m)), model.b]))
    assert np.array_equal(proto.c_c, np.vstack([f, np.zeros((n, model.q_out))]))
    assert np.array_equal(proto.h_c, np.hstack([np.zeros((n, n)), np.eye(n)]))
    assert np.allclose(proto.f_c, np.hstack([np.zeros((m, n)), proto.u_gain]))
    assert np.allclose(proto.u_gain, k)  # rho = 1


def test_rho_scales_u_gain_linearly():
    model = preset_parts("example1").model
    for kind, mdl in (("P4", model), ("P6", preset_parts("example2").model)):
        g1 = synthesize_gains(mdl, kind, rho=1.0)
        g5 = synthesize_gains(mdl, kind, rho=5.0)
        p1 = build_protocol(kind, mdl, g1)
        p5 = build_protocol(kind, mdl, g5)
        assert np.allclose(p5.u_gain, 5.0 * p1.u_gain)


def test_network_signals_hand_oracle():
    # 2 nodes, edge 1 -> 2 of weight 3, root at 1
    w = np.zeros((2, 2))
    w[1, 0] = 3.0
    g = CommGraph(n=2, weights=w, root_flags=np.array([1, 0]))
    y = np.array([[1.0], [4.0]])
    y_r = np.array([0.5])
    xi = np.array([[2.0], [6.0]])
    sig = compute_network_signals("P1", g, y, y_r, xi)
    # zeta_bar_1 = iota_1 (y_1 - y_r) = 0.5; zeta_bar_2 = 3 ((y_2-y_r) - (y_1-y_r))
    assert sig.zeta_bar == pytest.approx(np.array([[0.5], [9.0]]))
    # zeta_hat_1 = 0 (no in-edges); zeta_hat_2 = 3 (xi_2 - xi_1) = 12
    assert sig.zeta_hat_1 == pytest.approx(np.array([[0.0], [12.0]]))
    assert sig.zeta_hat_2 is None


def test_network_signals_neighbor_sum_equivalence():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = generate_graph("random", n, roots=[1], seed=500 + trial)
        q = int(rng.integers(1, 4))
        y = rng.standard_normal((n, q))
        y_r = rng.standard_normal(q)
        xi = rng.standard_normal((n, q))
        sig = compute_network_signals("P1", g, y, y_r, xi)
        # direct neighbor sums, agent by agent
        want_bar = np.zeros((n, q))
        want_hat = np.zeros((n, q))
        for i in range(n):
            for j in range(n):
                want_bar[i] += g.weights[i, j] * (y[i] - y[j])
                want_hat[i] += g.weights[i, j] * (xi[i] - xi[j])
            want_bar[i] += g.root_flags[i] * (y[i] - y_r)
        assert np.max(np.abs(sig.zeta_bar - want_bar)) <= 1e-12
        assert np.max(np.abs(sig.zeta_hat_1 - want_hat)) <= 1e-12


def test_network_signals_partial_split():
    model = preset_parts("example1").model
    g = generate_graph("random", 4, roots=[1], seed=2)
    n = model.n
    xi = np.arange(4 * (n + model.m), dtype=float).reshape(4, n + model.m)
    sig = compute_network_signals("P4", g, np.zeros((4, 1)), np.zeros(1), xi, state_dim=n)
    pair = laplacian(g)
    assert np.allclose(sig.zeta_hat_1, pair.L @ xi[:, :n])
    assert np.allclose(sig.zeta_hat_2, pair.L @ xi[:, n:])


def test_network_signals_partial_needs_state_dim():
    g = generate_graph("random", 3, roots=[1], seed=0)
    with pytest.raises(ValidationError, match="state_dim"):
        compute_network_signals("P4", g, np.zeros((3, 1)), np.zeros(1), np.zeros((3, 3)))


def test_kind_listing_is_stable():
    assert KINDS == ("P1", "P2", "P3", "P4", "P5", "P6")
    assert [kind for kind in KINDS if kind_spec(kind)[1]] == ["P1", "P3", "P5"]


def class_models():
    """One model of each class, all with c = I, so every kind can take them."""
    ex2 = preset_parts("example2").model
    return {
        ModelClass.NEUTRALLY_STABLE: full_rotation_model(),
        ModelClass.DOUBLE_INTEGRATOR: AgentModel(
            a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.array([[0.0], [1.0]]), c=np.eye(2)
        ),
        ModelClass.MIXED: AgentModel(a=ex2.a, b=ex2.b, c=np.eye(ex2.n)),
    }


# The checks each kind's gains report, in order: these names reach summary.json.
KIND_CHECKS = {
    "P1": ["rho_positive", "p_neutral_weight"],
    "P2": ["rho_positive", "p_neutral_weight", "f_stabilizes_observer"],
    "P3": ["rho_positive", "k_blocks_negative_definite"],
    "P4": ["rho_positive", "f_stabilizes_observer", "k_blocks_negative_definite"],
    "P5": ["rho_positive", "k_mixed_conditions"],
    "P6": ["rho_positive", "f_stabilizes_observer", "k_mixed_conditions"],
}

KIND_CLASS = {
    "P1": ModelClass.NEUTRALLY_STABLE,
    "P2": ModelClass.NEUTRALLY_STABLE,
    "P3": ModelClass.DOUBLE_INTEGRATOR,
    "P4": ModelClass.DOUBLE_INTEGRATOR,
    "P5": ModelClass.MIXED,
    "P6": ModelClass.MIXED,
}


def test_each_kind_reports_its_checks_in_order():
    models = class_models()
    for kind, names in KIND_CHECKS.items():
        model = models[KIND_CLASS[kind]]
        gains = synthesize_gains(model, kind)
        report = verify_gains(model, gains, kind=kind)
        assert [c.name for c in report.checks] == names, kind
        assert report.passed, kind
        assert [c.name for c in build_protocol(kind, model, gains).gain_report.checks] == names


def test_unknown_kind_is_one_message_everywhere():
    model = full_rotation_model()
    calls = (
        lambda: verify_gains(model, GainSet(), kind="P7"),
        lambda: synthesize_gains(model, "P7"),
        lambda: compatible_classes("P7"),
        lambda: build_protocol("P7", model, GainSet()),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="^unknown protocol kind 'P7'$"):
            call()


def test_build_protocol_accepts_exactly_the_compatible_pairs():
    accepted = {
        ("P1", ModelClass.NEUTRALLY_STABLE),
        ("P2", ModelClass.NEUTRALLY_STABLE),
        ("P3", ModelClass.DOUBLE_INTEGRATOR),
        ("P4", ModelClass.DOUBLE_INTEGRATOR),
        ("P5", ModelClass.MIXED),
        ("P5", ModelClass.DOUBLE_INTEGRATOR),
        ("P6", ModelClass.MIXED),
        ("P6", ModelClass.DOUBLE_INTEGRATOR),
    }
    for model_class, model in class_models().items():
        for kind in KINDS:
            if (kind, model_class) in accepted:
                proto = build_protocol(kind, model, synthesize_gains(model, kind))
                assert proto.uses_observer == (kind in ("P2", "P4", "P6"))
            else:
                with pytest.raises(ValidationError, match=f"kind {kind} needs a"):
                    build_protocol(kind, model, GainSet())


def test_only_the_kind_table_names_a_kind():
    # the scenario documents in presets name kinds as data; docstrings
    # are longer strings and never match
    package_dir = os.path.dirname(satsync.__file__)
    tables, found = 0, []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py") or name == "presets.py":
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        table = set()
        for node in tree.body:
            if name == "gains.py" and isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_KINDS" for t in node.targets
            ):
                table = {id(n) for n in ast.walk(node.value)}
                tables += 1
        found += [
            f"{name}:{node.lineno} {node.value}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in KIND_CHECKS
            and id(node) not in table
        ]
    assert tables == 1, "gains._KINDS not found"
    assert not found, f"kind names outside gains._KINDS: {found}"
