"""Scenario documents: parsing, presets, overrides, the echo round trip."""

import json

import numpy as np
import pytest

from satsync.errors import ValidationError
from satsync.presets import preset_names, preset_scenario
from satsync.scenario import build_scenario, parse_scenario_doc, scenario_echo
from satsync.simulation import assemble, integrate

MINIMAL = {
    "model": {"a": [[0, 1], [-1, 0]], "b": [[0], [1]]},
    "graph": {"n": 2, "edges": [{"from": 1, "to": 2}], "roots": [1]},
    "protocol": {"kind": "P2"},
}


def doc(**changes):
    d = json.loads(json.dumps(MINIMAL))
    for key, val in changes.items():
        d[key] = val
    return d


def test_minimal_document_defaults():
    parts = parse_scenario_doc(doc())
    # the parts carry no setting the document does not state; the
    # Scenario defaults them
    assert sorted(parts.run) == ["name", "x0", "x_r0"]
    assert np.array_equal(parts.run["x_r0"], np.zeros(2))
    assert parts.run["x0"].shape == (2, 2)
    # gains were synthesized because none were given
    assert parts.gains.p is not None and parts.gains.f is not None
    sc = build_scenario(parts)
    assert sc.name == "scenario"
    assert sc.dt == 1e-3
    assert sc.horizon == 30.0
    assert sc.record_every == 1
    assert sc.tol == 1e-2
    assert sc.window == 5.0


def test_full_state_kind_implies_full_coupling():
    d = doc(protocol={"kind": "P1"})  # c defaults to the identity
    assert np.array_equal(parse_scenario_doc(d).model.c, np.eye(2))
    # the rotation for P1, a double integrator for P3 and P5; the check
    # is build_protocol's, which every command reaches
    for kind, a in (("P1", [[0, 1], [-1, 0]]), ("P3", [[0, 1], [0, 0]]), ("P5", [[0, 1], [0, 0]])):
        d = doc(protocol={"kind": kind}, model={"a": a, "b": [[0], [1]], "c": [[1, 0]]})
        parts = parse_scenario_doc(d)
        with pytest.raises(
            ValidationError, match=rf"^model\.c: kind {kind} exchanges full states and needs c = I$"
        ):
            build_scenario(parts)
    d = doc()
    d["model"]["c"] = [[1, 0]]
    assert parse_scenario_doc(d).model.c.shape == (1, 2)


def test_unknown_keys_rejected_with_paths():
    cases = [
        (doc(extra=1), "unknown keys 'extra'"),
        (doc(sim={"dtt": 0.1}), "sim: unknown keys 'dtt'"),
        (doc(model={"a": [[0]], "b": [[1]], "cc": [[1]]}), "model: unknown keys 'cc'"),
        (doc(protocol={"kind": "P2", "gains": {"q": [[1]]}}), "protocol.gains: unknown keys 'q'"),
        (doc(analysis={"tol": 0.1, "x": 2}), "analysis: unknown keys 'x'"),
    ]
    for bad, fragment in cases:
        with pytest.raises(ValidationError, match=fragment.replace("'", "'")):
            parse_scenario_doc(bad)


def test_malformed_values_name_their_field():
    # the parser checks a setting's type, the Scenario its range
    with pytest.raises(ValidationError, match=r"^sim\.dt: expected a number, got '0\.1'$"):
        parse_scenario_doc(doc(sim={"dt": "0.1"}))
    with pytest.raises(ValidationError, match=r"^sim\.dt must be in \(0, 0\.1\], got -1\.0$"):
        build_scenario(parse_scenario_doc(doc(sim={"dt": -1.0})))
    with pytest.raises(ValidationError, match="protocol.kind"):
        parse_scenario_doc(doc(protocol={"kind": "P99"}))
    with pytest.raises(ValidationError, match="model: a must be square"):
        parse_scenario_doc(doc(model={"a": [[0, 1]], "b": [[1]]}))
    with pytest.raises(ValidationError, match="graph"):
        parse_scenario_doc(doc(graph={"n": 2, "edges": [], "roots": [5]}))
    # an integer beyond the float range is rejected at its field, as
    # graph weights are, not left to np.isfinite or float conversion
    huge = 10**400
    for bad, where in ((doc(protocol={"kind": "P2", "rho": huge}), "protocol.rho"),
                       (doc(sim={"horizon": huge}), "sim.horizon"),
                       (doc(sim={"x_r0": [0.0, huge]}), r"sim.x_r0\[1\]"),
                       (doc(sim={"x_r0": [-huge, 0.0]}), r"sim.x_r0\[0\]"),
                       (doc(model={"a": [[0, huge], [-1, 0]], "b": [[0], [1]]}), r"model.a\[0\]\[1\]")):
        with pytest.raises(ValidationError, match=f"^{where}: must be finite, got -?{huge}$"):
            parse_scenario_doc(bad)
    # generated roots are JSON integers, not coerced: [1.9, "3", true] was [1, 3]
    for roots, where in (([1.9, 3], r"\[0\]: expected an integer, got 1\.9"),
                         ([1, "3"], r"\[1\]: expected an integer, got '3'"),
                         ([1, True], r"\[1\]: expected an integer, got True")):
        spec = {"kind": "random", "n": 4, "seed": 2, "roots": roots}
        with pytest.raises(ValidationError, match=r"^graph\.generate\.roots" + where + "$"):
            parse_scenario_doc(doc(graph={"generate": spec}))


def test_required_sections():
    for missing in ("model", "graph", "protocol"):
        bad = doc()
        del bad[missing]
        with pytest.raises(ValidationError, match=missing):
            parse_scenario_doc(bad)


def test_bad_json_bytes():
    with pytest.raises(ValidationError, match="JSON"):
        parse_scenario_doc(b"{nope")
    # nor are bytes that are not UTF-8, or an integer of more digits than
    # Python's int() converts
    with pytest.raises(ValidationError, match="JSON: 'utf-8' codec can't decode"):
        parse_scenario_doc(b'{"name": "caf\xe9"}')
    with pytest.raises(ValidationError, match="JSON: Exceeds the limit"):
        parse_scenario_doc('{"protocol": {"rho": 1' + "0" * 5000 + "}}")


def test_preset_expansion():
    assert preset_names() == ("example1", "example2")
    parts = parse_scenario_doc({"model": {"preset": "example1"}})
    assert parts.run["name"] == "example1"
    assert parts.kind == "P4"
    assert parts.graph.n == 3
    assert parts.run["horizon"] == 30.0
    # user keys merge over the preset
    parts2 = parse_scenario_doc({"model": {"preset": "example1"}, "name": "mine",
                                 "sim": {"dt": 0.01}})
    assert parts2.run["name"] == "mine"
    assert parts2.run["dt"] == 0.01
    assert parts2.run["horizon"] == 30.0


def test_preset_graph_is_replaced_not_merged():
    # a user graph in another form must not inherit the preset's inline keys
    parts = parse_scenario_doc({
        "model": {"preset": "example1"},
        "graph": {"generate": {"kind": "random", "n": 6, "seed": 2}},
    })
    assert parts.graph.n == 6


def test_preset_rejects_inline_mix_and_unknown():
    with pytest.raises(ValidationError, match="preset"):
        parse_scenario_doc({"model": {"preset": "example1", "a": [[0]]}})
    with pytest.raises(ValidationError, match="available"):
        parse_scenario_doc({"model": {"preset": "zzz"}})


def test_preset_scenario_returns_fresh_copies():
    a = preset_scenario("example1")
    a["sim"]["dt"] = 123.0
    b = preset_scenario("example1")
    assert b["sim"]["dt"] == 0.001


def test_overrides_win_and_leave_doc_untouched():
    base = doc()
    parts = parse_scenario_doc(base, overrides={"sim.dt": 0.05, "protocol.rho": 3.0})
    assert parts.run["dt"] == 0.05
    assert parts.gains.rho == 3.0
    assert "sim" not in base  # caller's document not mutated


def test_explicit_x0_wins_over_ic_scale():
    d = doc(sim={"x0": [[1.0, 2.0], [3.0, 4.0]], "ic_scale": 99.0})
    parts = parse_scenario_doc(d)
    assert np.array_equal(parts.run["x0"], np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_ic_generation_is_seeded():
    a = parse_scenario_doc(doc(sim={"seed": 9}))
    b = parse_scenario_doc(doc(sim={"seed": 9}))
    c = parse_scenario_doc(doc(sim={"seed": 10}))
    assert np.array_equal(a.run["x0"], b.run["x0"])
    assert not np.array_equal(a.run["x0"], c.run["x0"])


def test_graph_generate_form_requires_seed():
    d = doc(graph={"generate": {"kind": "random", "n": 4}})
    with pytest.raises(ValidationError, match="seed"):
        parse_scenario_doc(d)
    d = doc(graph={"generate": {"kind": "random", "n": 4, "seed": 2}})
    parts = parse_scenario_doc(d)
    assert parts.graph.n == 4
    assert parts.graph.roots() == [1]  # default root


def test_negative_seeds_are_rejected_with_their_path():
    with pytest.raises(ValidationError, match=r"^sim\.seed: must be nonnegative"):
        parse_scenario_doc(doc(sim={"seed": -1}))
    d = doc(graph={"generate": {"kind": "random", "n": 4, "seed": -1}})
    with pytest.raises(ValidationError, match=r"^graph\.generate\.seed: must be nonnegative"):
        parse_scenario_doc(d)
    with pytest.raises(ValidationError, match=r"sim\.seed: must be nonnegative"):
        parse_scenario_doc(doc(), overrides={"sim.seed": -3})
    assert parse_scenario_doc(doc(sim={"seed": 0})).run["seed"] == 0


def test_graph_file_form(tmp_path):
    gpath = tmp_path / "net.json"
    gpath.write_text(json.dumps(MINIMAL["graph"]))
    d = doc(graph={"file": "net.json"})
    parts = parse_scenario_doc(d, base_dir=tmp_path)
    assert parts.graph.n == 2


def test_echo_reproduces_run_byte_for_byte():
    d = doc(sim={"seed": 4, "horizon": 2.0, "dt": 0.01})
    sc = build_scenario(parse_scenario_doc(d))
    rec1 = integrate(assemble(sc))
    echo = scenario_echo(sc)
    # the echo pins generated values: x0 appears explicitly
    assert "x0" in echo["sim"]
    sc2 = build_scenario(parse_scenario_doc(json.dumps(echo).encode()))
    rec2 = integrate(assemble(sc2))
    # the signals derive from the states, which hold the times too
    assert np.array_equal(rec1.states, rec2.states)
    # echoing the rebuilt scenario is a fixed point
    assert scenario_echo(sc2) == echo


def test_explicit_gains_skip_synthesis():
    d = doc(protocol={"kind": "P2", "rho": 2.0,
                      "gains": {"p": [[1, 0], [0, 1]], "f": [[1], [1]]}})
    parts = parse_scenario_doc(d)
    assert np.array_equal(parts.gains.p, np.eye(2))
    assert parts.gains.rho == 2.0
