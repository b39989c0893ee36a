"""Graph layer: Laplacians, root-set reachability, generation, round trips."""

import json

import numpy as np
import pytest

from satsync.errors import ValidationError
from satsync.graphs import (
    CommGraph,
    check_rootset,
    generate_graph,
    laplacian,
    load_graph,
    parse_graph,
    serialize_graph,
)

from oracles import expanded_spectrum_check, random_graph_by_choice, save_graph


def chain3():
    # 1 -> 2 -> 3, rooted at 1
    w = np.zeros((3, 3))
    w[1, 0] = 1.0
    w[2, 1] = 1.0
    return CommGraph(n=3, weights=w, root_flags=np.array([1, 0, 0]))


def test_laplacian_hand_oracle():
    pair = laplacian(chain3())
    want_l = np.array([[0.0, 0, 0], [-1, 1, 0], [0, -1, 1]])
    assert np.array_equal(pair.L, want_l)
    assert np.array_equal(pair.Lbar, want_l + np.diag([1.0, 0, 0]))


def test_laplacian_row_sums_exactly_zero():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        g = generate_graph("random", n, roots=[1], seed=trial)
        assert np.all(laplacian(g).L.sum(axis=1) == 0.0)  # exact, not approx


def test_check_rootset_on_reachable_and_unreachable():
    assert check_rootset(chain3())
    # reverse the chain: nothing downstream of the root
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    w[1, 2] = 1.0
    g = CommGraph(n=3, weights=w, root_flags=np.array([1, 0, 0]))
    assert not check_rootset(g)


def test_empty_rootset_fails():
    g = CommGraph(n=2, weights=np.array([[0.0, 0], [1, 0]]), root_flags=np.zeros(2, dtype=int))
    assert not check_rootset(g)


def test_rootset_implies_expanded_laplacian_stable():
    rng = np.random.default_rng(5)
    hits = 0
    for trial in range(40):
        n = int(rng.integers(2, 15))
        g = generate_graph("random", n, roots=[1], seed=1000 + trial)
        if not check_rootset(g):
            continue
        hits += 1
        assert expanded_spectrum_check(g)
        eigs = np.linalg.eigvals(laplacian(g).Lbar)
        assert eigs.real.min() > 0
    assert hits > 30  # the generator overwhelmingly produces valid graphs


def test_generate_graph_deterministic_and_shaped():
    g1 = generate_graph("random", 8, roots=[2, 5], seed=7)
    g2 = generate_graph("random", 8, roots=[2, 5], seed=7)
    g3 = generate_graph("random", 8, roots=[2, 5], seed=8)
    assert g1 == g2
    assert g1 != g3
    assert g1.n == 8
    assert g1.roots() == [2, 5]


@pytest.mark.parametrize("n, roots", [
    (1, [1]), (2, [2]), (10, [1, 4]), (25, [2, 7, 9]), (60, [1]), (150, [1, 4]),
])
@pytest.mark.parametrize("seed", [0, 3, 11, 12345])
def test_random_graph_draws_as_generator_choice_did(n, roots, seed):
    # the same draws from the stream: sweeps and bundled scenarios keep
    # their graphs, and with them their run directories
    got = generate_graph("random", n, roots=roots, seed=seed)
    want = random_graph_by_choice(n, roots, seed=seed)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.root_flags, want.root_flags)


def test_comm_graph_validation():
    with pytest.raises(ValidationError, match="nonnegative"):
        CommGraph(n=2, weights=np.array([[0.0, -1], [0, 0]]), root_flags=np.array([1, 0]))
    with pytest.raises(ValidationError, match="elf-loop"):
        CommGraph(n=2, weights=np.array([[1.0, 0], [0, 0]]), root_flags=np.array([1, 0]))
    with pytest.raises(ValidationError, match="0 or 1"):
        CommGraph(n=2, weights=np.zeros((2, 2)), root_flags=np.array([2, 0]))
    with pytest.raises(ValidationError, match="at least one node"):
        CommGraph(n=0, weights=np.zeros((0, 0)), root_flags=np.zeros(0, dtype=int))


def test_parse_serialize_round_trip():
    doc = {
        "n": 3,
        "edges": [
            {"from": 1, "to": 2},
            {"from": 2, "to": 3, "weight": 0.5},
        ],
        "roots": [1],
    }
    g = parse_graph(doc)
    assert g.weights[1, 0] == 1.0  # default weight
    assert g.weights[2, 1] == 0.5
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_rejections():
    base = {"n": 2, "edges": [{"from": 1, "to": 2}], "roots": [1]}
    bad_key = dict(base, extra=1)
    with pytest.raises(ValidationError, match="unknown"):
        parse_graph(bad_key)
    with pytest.raises(ValidationError, match="root"):
        parse_graph({"n": 2, "edges": [], "roots": [3]})
    with pytest.raises(ValidationError):
        parse_graph({"n": 2, "edges": [{"from": 0, "to": 1}], "roots": [1]})  # 1-based
    with pytest.raises(ValidationError):
        parse_graph({"n": 2, "edges": [{"from": 1, "to": 1}], "roots": [1]})  # self-loop
    # indices are JSON integers, never bools, floats or strings; weights
    # are numbers, never bools: each rejected with its field path, none coerced
    edge = "graph.edges[0]"
    for bad, message in [
        ({"n": True}, "graph.n: must be a positive integer, got True"),
        ({"n": 2.0}, "graph.n: must be a positive integer, got 2.0"),
        ({"edges": [{"from": 1.9, "to": 2}]}, f"{edge}.from: expected an integer, got 1.9"),
        ({"edges": [{"from": 1, "to": "2"}]}, f"{edge}.to: expected an integer, got '2'"),
        ({"edges": [{"from": True, "to": 2}]}, f"{edge}.from: expected an integer, got True"),
        ({"edges": [{"to": 2}]}, f"{edge}.from: expected an integer, got None"),
        ({"edges": [{"from": 1, "to": 2, "weight": True}]},
         f"{edge}.weight: must be a positive number, got True"),
        ({"edges": [{"from": 1, "to": 2, "weight": 10**400}]},
         f"{edge}.weight: must be a positive number, got 1000"),
        ({"roots": [True]}, "graph.roots[0]: expected an integer, got True"),
        ({"roots": [1, 2.0]}, "graph.roots[1]: expected an integer, got 2.0"),
        ({"edges": [{"from": 1, "to": 2, "weight": 1.0}, {"from": 1, "to": 2, "weight": 3.0}]},
         "graph.edges[1]: duplicate of edges[0] (from 1 to 2)"),
    ]:
        with pytest.raises(ValidationError) as err:
            parse_graph(dict(base, **bad))
        assert str(err.value).startswith(message)
    weighted = parse_graph(dict(base, edges=[{"from": 1, "to": 2, "weight": 2}]))
    assert weighted.weights[1, 0] == 2.0


def test_save_load_round_trip(tmp_path):
    g = generate_graph("random", 6, roots=[1], seed=3)
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g
    # the file is plain JSON with the documented schema
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "edges", "roots"}
    # an integer of more digits than Python's int() converts is rejected
    # with the file's name, not raised from the JSON decoder
    path.write_text('{"n": 1' + "0" * 5000 + ', "edges": [], "roots": [1]}')
    with pytest.raises(ValidationError, match="g.json: Exceeds the limit"):
        load_graph(path)
