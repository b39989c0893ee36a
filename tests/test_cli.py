"""Command-line behavior: exit codes, run-directory contract, determinism."""

import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import satsync
from satsync import analysis, cli, simulation
from satsync.cli import main
from satsync.errors import IntegrationError
from satsync.parallel import FORKS, process_map
from satsync.scenario import build_scenario, parse_scenario_doc

from procs import children, running

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHORT_SCENARIO = {
    "name": "clidemo",
    "model": {"preset": "example1"},
    "sim": {"dt": 0.01, "horizon": 6.0},
    "analysis": {"tol": 0.01, "window": 2.0},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(SHORT_SCENARIO))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_writes_exact_run_directory(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", scenario_file, "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == ["clidemo.csv", "manifest.json", "scenario.json", "summary.json"]
    manifest = read_json(out / "manifest.json")
    assert manifest["format"] == "satsync-manifest"
    # the manifest lists exactly the other files in the directory
    assert sorted(manifest["run"]["outputs"] + ["manifest.json"]) == names
    assert "clidemo" in manifest["run"]["results"]
    assert isinstance(manifest["wall_clock_s"], float)


def test_simulate_rerun_is_byte_identical(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", scenario_file, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", scenario_file, "--out", str(out2)]) == 0
    for name in ("clidemo.csv", "scenario.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # wall clock may differ; the run section must not
    m1, m2 = read_json(out1 / "manifest.json"), read_json(out2 / "manifest.json")
    assert m1["run"] == m2["run"]


def test_simulate_exit_zero_even_without_convergence(scenario_file, tmp_path, capsys):
    # short horizon: completion is success, convergence is data
    rc = main(["simulate", "--scenario", scenario_file, "--out", str(tmp_path / "r")])
    assert rc == 0
    summary = read_json(tmp_path / "r" / "summary.json")
    assert summary["runs"][0]["converged"] is False


def test_simulate_overrides_change_echo(scenario_file, tmp_path):
    out = tmp_path / "r"
    assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                 "--dt", "0.02", "--rho", "2.0"]) == 0
    echo = read_json(out / "scenario.json")
    assert echo["sim"]["dt"] == 0.02
    assert echo["protocol"]["rho"] == 2.0


INLINE_SCENARIO = {
    "name": "inline",
    "model": {"a": [[0, 1], [-1, 0]], "b": [[0], [1]]},
    "graph": {"n": 3, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}], "roots": [1]},
    "protocol": {"kind": "P1", "rho": 1.0},
    "sim": {"seed": 1, "ic_scale": 1.0, "dt": 0.01, "horizon": 3.0},
}


@pytest.mark.parametrize("doc, tol, window", [
    ({**SHORT_SCENARIO, "analysis": {"tol": 0.05, "window": 1.5}}, 0.05, 1.5),
    # no analysis section: the default tolerance, and a window of
    # min(5 s, horizon)
    (INLINE_SCENARIO, 0.01, 3.0),
], ids=["stated", "defaults"])
def test_a_run_is_scored_by_its_documents_tolerance_and_window(tmp_path, doc, tol, window):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    (run,) = read_json(out / "summary.json")["runs"]
    assert (run["tolerance"], run["window"]) == (tol, window)
    # the verdict is the stored errors' against them
    times, errors = np.array(run["times"]), np.array(run["max_error"])
    below = errors < tol
    converged = bool(below[times >= times[-1] - window - 1e-12].all())
    first = None
    if converged:
        first = float(times[0 if below.all() else np.nonzero(~below)[0][-1] + 1])
    verdict = {"converged": converged, "convergence_time": first, "final_max_error": errors[-1]}
    assert {key: run[key] for key in verdict} == verdict
    assert read_json(out / "manifest.json")["run"]["results"] == {doc["name"]: verdict}
    echo = read_json(out / "scenario.json")["analysis"]
    assert (echo["tol"], echo["window"]) == (tol, window)


def test_verify_passes_good_scenario(scenario_file, capsys):
    assert main(["verify", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "model class: double_integrator" in out
    assert "[pass] rootset_reachable" in out
    assert "verification passed" in out


def test_verify_fails_broken_gains(tmp_path, capsys):
    doc = json.loads(json.dumps(SHORT_SCENARIO))
    doc["protocol"] = {"kind": "P4", "gains": {"k": [[-10, -2]], "f": [[0], [0]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] f_stabilizes_observer" in out
    assert "verification FAILED" in out


def test_verify_fails_empty_rootset(tmp_path, capsys):
    doc = json.loads(json.dumps(SHORT_SCENARIO))
    doc["graph"] = {"n": 3, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}],
                    "roots": []}
    path = tmp_path / "rootless.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    assert "[FAIL] rootset_reachable" in capsys.readouterr().out
    # synthesize reports the root set too, and like simulate rejects it
    assert main(["synthesize", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: graph fails the root-set reachability condition\n"


# changes to scenarios/oscillator_trio.json that the built Scenario or
# build_protocol rejects, and the message every command prints
REJECTED_AT_BUILD = {
    "dt": ({"sim": {"dt": 0.5}}, "sim.dt must be in (0, 0.1], got 0.5"),
    "horizon": ({"sim": {"horizon": 0.001, "dt": 0.01}},
                "sim.horizon 0.001 shorter than one step, sim.dt 0.01"),
    "window": ({"sim": {"horizon": 1.0}, "analysis": {"window": 3}},
               "analysis.window must be in (0, sim.horizon], got 3.0"),
    "x0": ({"sim": {"x0": [[1.0, 2.0]]}}, "sim.x0 must be 3x2, got (1, 2)"),
    "x_r0": ({"sim": {"x_r0": [0.0, 0.0, 0.0]}}, "sim.x_r0 must have length 2, got (3,)"),
    "c": ({"model": {"c": [[1, 0]]}}, "model.c: kind P1 exchanges full states and needs c = I"),
}


@pytest.mark.parametrize("patch, said", REJECTED_AT_BUILD.values(), ids=REJECTED_AT_BUILD)
def test_verify_and_synthesize_reject_what_simulate_rejects(tmp_path, capsys, patch, said):
    with open(os.path.join(REPO_ROOT, "scenarios", "oscillator_trio.json")) as fh:
        doc = json.load(fh)
    for section, values in patch.items():
        doc[section] = {**doc.get(section, {}), **values}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    for command in (["verify"], ["synthesize"], ["simulate", "--out", str(out)]):
        assert main([*command, "--scenario", str(path)]) == 1, command
        assert capsys.readouterr().err == f"error: {said}\n", command
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    "double_integrator_ring.json", "oscillator_trio.json", "random_observer_net.json",
    {"model": {"preset": "example1"}}, {"model": {"preset": "example2"}},
], ids=["ring", "trio", "random", "example1", "example2"])
def test_verify_passes_the_bundled_scenarios_and_presets(tmp_path, capsys, doc):
    if isinstance(doc, str):
        path = os.path.join(REPO_ROOT, "scenarios", doc)
    else:
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verification passed\n")


@pytest.mark.parametrize("p_d, said", [
    # example2 has two velocities (q = 2); a stated weight is checked as
    # q x q before use, and judged as stated, not as a fitted one
    ([[1, 2]], "[FAIL] k_mixed_conditions: margin=-inf (p_d must have shape (2, 2), got (1, 2))\n"),
    ([[1]], "[FAIL] k_mixed_conditions: margin=-inf (p_d must have shape (2, 2), got (1, 1))\n"),
    ([[-1, 0], [0, 1]], "[FAIL] k_mixed_conditions: margin=-1 "
                        "(the stated velocity weight p_d is not positive definite (min eig -1.000e+00))\n"),
], ids=["1x2", "1x1", "indefinite"])
def test_verify_judges_a_stated_velocity_weight_as_stated(tmp_path, capsys, p_d, said):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"model": {"preset": "example2"}, "protocol": {"gains": {"p_d": p_d}}}))
    assert main(["verify", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert said in captured.out + captured.err and "Traceback" not in captured.err


# the gains each preset's kind reads, and their shapes: example1 is P4
# on a double integrator (n 2, m 1, one output), example2 P6 on a mixed
# model (n 7, m 3, four outputs, two velocities)
READ_GAINS = {
    "example1": {"f": (2, 1), "k": (1, 2)},
    "example2": {"f": (7, 4), "k": (3, 7), "p_d": (2, 2), "gamma_x": (7, 7)},
}


def _run(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def malformed_gains(draw):
    """(preset, gain, value): a gain the preset's kind reads, stated as a
    matrix of another shape, or a p_d that is not symmetric."""
    preset = draw(st.sampled_from(sorted(READ_GAINS)))
    name = draw(st.sampled_from(sorted(READ_GAINS[preset])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if name == "p_d" and draw(st.booleans()):
        value = np.eye(2) * rng.uniform(1.0, 2.0, size=2)
        value[0, 1] = rng.uniform(0.1, 1.0)
    else:
        shape = draw(
            st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
                lambda s: s != READ_GAINS[preset][name]
            )
        )
        value = rng.uniform(-2.0, 2.0, size=shape)
    return preset, name, value.tolist()


@given(malformed_gains())
def test_verify_reports_every_malformed_gain(tmp_path_factory, case):
    preset, name, value = case
    path = tmp_path_factory.mktemp("malformed") / "sc.json"
    path.write_text(json.dumps({"model": {"preset": preset}, "protocol": {"gains": {name: value}}}))
    code, out, err = _run(["verify", "--scenario", str(path)])
    assert code == 1 and err == ""
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and re.search(rf"\(.*\b{name}\b", failed[0]), out
    code, out, err = _run(["simulate", "--scenario", str(path), "--out", str(path.parent / "run")])
    assert code == 1 and err.startswith("error: gains fail verification for ")
    assert not (path.parent / "run").exists()


# stated gains verify cannot judge: the check that reads each, and why
UNJUDGED = {
    "gamma_x": (
        {"model": {"preset": "example2"},
         "protocol": {"gains": {"gamma_x": np.eye(7)[::-1].tolist()}}},
        "k_mixed_conditions", "gamma_x does not produce the chain/single/oscillator block form",
    ),
    "missing f": (
        {"model": {"a": [[0, 1], [0, 0]], "b": [[0], [1]], "c": [[1, 0]]},
         "graph": {"n": 2, "edges": [{"from": 1, "to": 2}], "roots": [1]},
         "protocol": {"kind": "P4", "gains": {"k": [[-1, -1]]}}},
        "f_stabilizes_observer", "f is missing",
    ),
}


@pytest.mark.parametrize("doc, check, said", UNJUDGED.values(), ids=UNJUDGED)
def test_verify_reports_a_gain_it_cannot_judge(tmp_path, doc, check, said):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["verify", "--scenario", str(path)])
    assert code == 1 and err == "" and f"\n[FAIL] {check}: margin=-inf ({said})\n" in out
    code, out, err = _run(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")])
    assert code == 1 and err.startswith("error: gains fail verification for ")
    assert err.endswith(f"{check}: {said}\n")


def test_an_output_kind_refuses_an_unobservable_model(tmp_path):
    # a double integrator that measures its velocity only: P4 refuses it
    # for observability, not for the observer Riccati equation
    doc = {
        "model": {"a": [[0, 1], [0, 0]], "b": [[0], [1]], "c": [[0, 1]]},
        "graph": {"n": 3, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}], "roots": [1]},
        "protocol": {"kind": "P4"},
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    for command in (["verify"], ["synthesize"], ["simulate", "--out", str(out)]):
        code, _, err = _run([*command, "--scenario", str(path)])
        assert code == 1, command
        assert err == "error: kind P4 exchanges outputs and needs (a, c) observable\n", command
    assert not out.exists()


# a path 1 -> 2 -> 3 rooted at node 2 alone: node 1 is not reached
PATH_ROOTED_AT_2 = {"n": 3, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}], "roots": [2]}


@pytest.mark.parametrize("graph", [
    PATH_ROOTED_AT_2,
    {"file": "g.json"},
    {"generate": {"kind": "path", "n": 3, "roots": [2], "seed": 0}},
    {"generate": {"kind": "star", "n": 3, "roots": [], "seed": 0}},
], ids=["inline", "file", "generate", "generate-rootless"])
def test_a_root_set_that_misses_nodes_is_reported_alike_in_every_graph_form(tmp_path, graph):
    (tmp_path / "g.json").write_text(json.dumps(PATH_ROOTED_AT_2))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({**SHORT_SCENARIO, "graph": graph}))
    code, out, err = _run(["verify", "--scenario", str(path)])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    failed = lines.index("[FAIL] rootset_reachable: root set does not reach every node")
    assert lines.index("verification FAILED") == len(lines) - 1 > failed
    code, _, err = _run(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")])
    assert (code, err) == (1, "error: graph fails the root-set reachability condition\n")
    assert not (tmp_path / "run").exists()


def test_an_unreadable_graph_file_names_its_field(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({**SHORT_SCENARIO, "graph": {"file": "missing_graph.json"}}))
    code, out, err = _run(["verify", "--scenario", str(path)])
    missing = tmp_path / "missing_graph.json"
    assert (code, out) == (1, "")
    assert err == f"error: graph.file: cannot read {missing}: No such file or directory\n"


# the gains each kind reads; a document that states another is rejected
KIND_READS = {"P1": "p", "P2": "p f", "P3": "k", "P4": "k f", "P5": "k p_d gamma_x", "P6": "k f p_d gamma_x"}
UNREAD = [
    (kind, gain) for kind, reads in KIND_READS.items()
    for gain in ("p", "f", "k", "p_d", "gamma_x") if gain not in reads.split()
]


@pytest.mark.parametrize("kind, gain", UNREAD, ids=[f"{kind}-{gain}" for kind, gain in UNREAD])
def test_a_gain_the_kind_does_not_read_is_rejected(tmp_path, kind, gain):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({
        "model": {"a": [[0, 1], [-1, 0]], "b": [[0], [1]]},
        "graph": {"n": 2, "edges": [{"from": 1, "to": 2}], "roots": [1]},
        "protocol": {"kind": kind, "gains": {gain: [[1]]}},
    }))
    out = tmp_path / "run"
    for command in (["verify"], ["synthesize"], ["simulate", "--out", str(out)]):
        code, _, err = _run([*command, "--scenario", str(path)])
        assert (code, err) == (1, f"error: protocol.gains.{gain}: kind {kind} does not read {gain}\n")
    assert not out.exists()


def test_double_integrator_kinds_need_the_block_order(tmp_path, capsys):
    # k = [-I | -I] reads the states as (p1, p2, v1, v2); on the chains
    # listed (p1, v1, p2, v2) it fed back -p1 - p2, and P3 on this
    # scenario ended 162 from the reference after 40 s. That order is
    # mixed, not double_integrator, so P3 refuses it
    e = np.eye(4)
    orders = {
        "interleaved": (np.outer(e[0], e[1]) + np.outer(e[2], e[3]), e[:, [1, 3]]),
        "block": (np.eye(4, k=2), e[:, [2, 3]]),
    }
    paths = {}
    for name, (a, b) in orders.items():
        doc = {
            "name": name,
            "model": {"a": a.tolist(), "b": b.tolist(), "c": e.tolist()},
            "graph": {"n": 3, "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}], "roots": [1]},
            "protocol": {"kind": "P3", "rho": 1.0},
            "sim": {"seed": 0, "ic_scale": 1.0, "dt": 0.01, "horizon": 40.0, "record_every": 100},
        }
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(paths["interleaved"])]) == 1
    out = capsys.readouterr().out
    assert "model class: mixed" in out
    assert "[FAIL] kind_compatible: P3 accepts double_integrator" in out
    assert main(["simulate", "--scenario", str(paths["interleaved"]), "--out", str(tmp_path / "i")]) == 1
    assert "kind P3 needs a double_integrator model, got 'mixed'" in capsys.readouterr().err
    assert main(["verify", "--scenario", str(paths["block"])]) == 0
    assert "model class: double_integrator" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(paths["block"]), "--out", str(tmp_path / "b")]) == 0
    run, = read_json(tmp_path / "b" / "summary.json")["runs"]
    assert run["converged"] and run["convergence_time"] == 14.0


def test_synthesize_prints_gains(scenario_file, capsys):
    assert main(["synthesize", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "kind P4" in out
    assert "f =" in out and "k =" in out


def test_sweep_rho_table_and_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", scenario_file, "--rho", "1,2",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rho=1" in text and "rho=2" in text
    names = sorted(os.listdir(out))
    assert names == ["clidemo-rho1.csv", "clidemo-rho2.csv", "manifest.json",
                     "scenario.json", "summary.json"]


def test_sweep_n_controller_digest_is_size_free(scenario_file, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", scenario_file, "--n", "2,4",
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    digests = list(manifest["run"]["sweep"].values())
    assert len(digests) == 2 and digests[0] == digests[1]


def test_sweep_judges_memory_by_its_thinned_record(scenario_file, tmp_path, capsys, monkeypatch):
    # room for the record a sweep keeps by default, every 100th step,
    # and not for every step
    sc = build_scenario(parse_scenario_doc(json.dumps(SHORT_SCENARIO)))
    thinned = math.prod(replace(sc, record_every=cli._SWEEP_RECORD_EVERY).record_shape) * 8
    assert math.prod(sc.record_shape) * 8 > thinned
    monkeypatch.setattr(simulation, "_physical_memory", lambda: thinned)
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", scenario_file, "--rho", "1", "--out", str(out)]) == 0
    assert read_json(out / "scenario.json")["sim"]["record_every"] == cli._SWEEP_RECORD_EVERY
    # the flag's thinning is judged instead
    out = tmp_path / "full"
    argv = ["sweep", "--scenario", scenario_file, "--rho", "1", "--record-every", "1", "--out", str(out)]
    assert main(argv) == 1
    assert "raise sim.record_every (1)" in capsys.readouterr().err
    assert not out.exists()


def _run_python(*argv):
    """Standard output of a fresh interpreter run in the repository root
    with this package importable; it must exit 0."""
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_python_dash_m_runs_the_cli():
    out = _run_python("-m", "satsync", "verify", "--scenario", "scenarios/oscillator_trio.json")
    assert "verification passed" in out


def test_p6_commands_never_load_scipy(tmp_path):
    # scipy is loaded only by the Schur-based syntheses (neutral p,
    # Lyapunov, filter Riccati); the P6 presets get by without it.
    code = """if True:
        import sys
        from satsync.cli import main
        loaded = ["scipy" in sys.modules]
        main(["reproduce", "example2", "--dt", "0.01", "--horizon", "5", "--out", sys.argv[1]])
        loaded.append("scipy" in sys.modules)
        main(["sweep", "--scenario", "scenarios/random_observer_net.json", "--n", "4,6",
              "--dt", "0.01", "--horizon", "5", "--out", sys.argv[2]])
        loaded.append("scipy" in sys.modules)
        print(loaded)
    """
    out = _run_python("-c", code, str(tmp_path / "ex2"), str(tmp_path / "sweep"))
    assert out.splitlines()[-1] == "[False, False, False]"
    for name in ("ex2", "sweep"):
        assert (tmp_path / name / "manifest.json").is_file()


def test_start_up_never_loads_the_csv_kernel(tmp_path):
    # the CSV kernel builds its tables when imported, so it is imported
    # by the first block it formats, never before the first closed loop
    code = """if True:
        import os, sys
        from satsync import cli, simulation
        names = ("satsync._g17", "fractions")
        print([name in sys.modules for name in names])
        assemble = simulation.assemble

        def assemble_then_stop(*args, **kwargs):
            assemble(*args, **kwargs)
            print([name in sys.modules for name in names], flush=True)
            os._exit(0)

        simulation.assemble = assemble_then_stop
        cli.main(["reproduce", "example2", "--dt", "0.01", "--out", sys.argv[1]])
    """
    out = _run_python("-c", code, str(tmp_path / "ex2"))
    assert out == "[False, False]\n[False, False]\n"


@pytest.mark.needs_fork
def test_every_csv_field_prints_as_percent_17g(tmp_path, monkeypatch):
    # the byte contract of the trajectory files, on what pooled commands write
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    scenario = os.path.join(REPO_ROOT, "scenarios", "random_observer_net.json")
    main(["reproduce", "example2", "--dt", "0.01", "--horizon", "5", "--out", str(tmp_path / "ex2")])
    main(["sweep", "--scenario", scenario, "--n", "4,6", "--dt", "0.01", "--horizon", "5",
          "--out", str(tmp_path / "sweep")])
    csvs = sorted(tmp_path.glob("*/*.csv"))
    assert [path.name for path in csvs] == [
        "example2-net10.csv", "example2-net3.csv", "random-observer-net-n4.csv", "random-observer-net-n6.csv",
    ]
    for path in csvs:
        header, *lines = path.read_text().splitlines()
        assert len(lines) > 10
        for line in lines:
            fields = line.split(",")
            assert len(fields) == header.count(",") + 1
            assert ",".join("%.17g" % float(field) for field in fields) == line, path.name


def test_synthesize_loads_scipy_for_the_neutral_weight():
    code = """if True:
        import sys
        from satsync.cli import main
        main(["synthesize", "--scenario", "scenarios/oscillator_trio.json"])
        print("scipy" in sys.modules)
    """
    assert _run_python("-c", code) == (
        "gains for kind P1 (rho=1):\n"
        "p =\n"
        "  [1, 0]\n"
        "  [0, 1]\n"
        "[pass] rootset_reachable: every node reachable from the root set\n"
        "[pass] rho_positive: margin=1 (rho = 1)\n"
        "[pass] p_neutral_weight: margin=1 (min eig(p) = 1.000e+00, "
        "max eig(pa+a'p) = 0.000e+00)\n"
        "True\n"
    )


def test_sweep_requires_exactly_one_axis(scenario_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scenario", scenario_file, "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scenario", scenario_file, "--rho", "1", "--n", "3",
              "--out", str(tmp_path / "y")])
    assert err.value.code == 2


def test_sweep_empty_axis_is_an_error(scenario_file, tmp_path, capsys):
    rc = main(["sweep", "--scenario", scenario_file, "--rho", "", "--out",
               str(tmp_path / "x")])
    assert rc == 1
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, named", [
    ("--n", "3,3", "network sizes 3 and 3"),
    ("--n", "2.5", "whole number >= 1, got 2.5"),
    ("--rho", "1.0000001,1.0000002", "rho values 1.0000001 and 1.0000002"),
    # distinct names, but file-safe '+' is '-': one CSV file
    ("--rho", "1e-6,1e6", "rho values 1e-06 and 1000000.0 would both write clidemo-rho1e-06.csv"),
])
def test_sweep_rejects_bad_case_lists_before_any_case_runs(
    scenario_file, tmp_path, capsys, monkeypatch, axis, values, named
):
    def no_run(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr("satsync.analysis.run_case", no_run)
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", scenario_file, axis, values, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, said", [
    ("--n", "100000000000000001", "error: --n: 100000000000000001 nodes are too many"),
    ("--n", "3,1e400", "error: --n: must be finite, got '1e400'\n"),
    ("--rho", "inf", "error: --rho: must be finite, got 'inf'\n"),
    ("--rho", "1e400", "error: --rho: must be finite, got '1e400'\n"),
    ("--rho", "0", "error: --rho: rho must be positive and finite, got 0\n"),
])
def test_sweep_reports_a_bad_list_entry_as_typed(scenario_file, tmp_path, capsys, axis, values, said):
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", scenario_file, axis, values, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(said) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n", [10**6, 10**400], ids=["1e6", "1e400"])
@pytest.mark.parametrize("route", ["graph.n", "graph.generate.n", "--n"])
def test_a_network_too_large_for_memory_is_rejected_before_allocating(
    tmp_path, capsys, route, n
):
    # its dense n x n weights, L and Lbar would take 24 TB at n = 10^6
    doc = dict(SHORT_SCENARIO)
    if route == "graph.n":
        doc["graph"] = {"n": n, "edges": [], "roots": [1]}
    elif route == "graph.generate.n":
        doc["graph"] = {"generate": {"kind": "path", "n": n, "seed": 0}}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "d"
    if route == "--n":
        argv = ["sweep", "--scenario", str(path), "--n", str(n), "--out", str(out)]
    else:
        argv = ["verify", "--scenario", str(path)]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    err = capsys.readouterr().err
    assert err.startswith(f"error: {route}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["--seed", "-1"], "sim.seed: must be nonnegative"),
    # 2 s at dt 0.09 is 22 steps, 1.98 s, shorter than the 2 s window
    (["--horizon", "2", "--dt", "0.09"], "analysis.window 2 s exceeds the simulated span"),
])
def test_simulate_rejects_before_integrating(scenario_file, tmp_path, capsys, argv, named):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", scenario_file, *argv, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", None, "--n", "0,3"],
    ["reproduce", "example2", "--seed", "-1"],
], ids=["sweep", "reproduce"])
def test_rejected_commands_leave_no_run_directory(scenario_file, tmp_path, argv):
    out = tmp_path / "d"
    argv = [scenario_file if a is None else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()


SHORT_REPRODUCE = ["reproduce", "example1", "--horizon", "6", "--dt", "0.01"]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("argv, echo", [
    (["simulate", "--scenario", None], "scenario.json"),
    (SHORT_REPRODUCE, "example1-net3-scenario.json"),
    (["sweep", "--scenario", None, "--rho", "1,2"], "scenario.json"),
], ids=["simulate", "reproduce", "sweep-rho"])
@pytest.mark.parametrize("blocked", ["echo", "manifest"])
def test_a_directory_in_the_way_leaves_out_as_it_was(scenario_file, tmp_path, capsys, argv, echo, blocked):
    # the echoes and the manifest are written after the CSVs and the
    # summary; a file that cannot be moved in must take them back out
    out = tmp_path / "out"
    target = out / (echo if blocked == "echo" else "manifest.json")
    target.mkdir(parents=True)
    (out / "notes.txt").write_text("earlier\n")
    before = _tree(out)
    argv = [scenario_file if a is None else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert str(target) in capsys.readouterr().err
    assert _tree(out) == before


def same_for_one_and_two_cpus(argv, code, tmp_path, capsys, monkeypatch):
    """Run ``argv`` with 1 and then 2 usable CPUs; each opens one pool of
    that many workers (in process with one, or where workers cannot be
    forked), and both print the same and write the same run directory.
    Returns its file names."""
    outs, printed, opened = {}, {}, []

    @contextmanager
    def one_pool(workers):
        with process_map(workers) as pmap:
            opened.append((workers, pmap is not map))
            yield pmap

    monkeypatch.setattr(analysis, "process_map", one_pool)
    for cpus in (1, 2):
        monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        assert main([*argv, "--out", str(outs[cpus])]) == code
        printed[cpus] = capsys.readouterr().out.replace(str(outs[cpus]), "OUT")
        assert multiprocessing.active_children() == []
    assert opened == [(1, False), (2, FORKS)]
    assert printed[1] == printed[2]
    names = sorted(os.listdir(outs[1]))
    assert names == sorted(os.listdir(outs[2]))
    for name in names:
        if name != "manifest.json":
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    m1, m2 = (read_json(outs[c] / "manifest.json") for c in (1, 2))
    assert m1["run"] == m2["run"]
    return names


def test_reproduce_does_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    # not converged in 6 s
    same_for_one_and_two_cpus(SHORT_REPRODUCE, 1, tmp_path, capsys, monkeypatch)


# every record in full: enough CSV rows for two workers
@pytest.mark.parametrize("argv, runs", [
    (["simulate"], ["clidemo.csv"]),
    (["sweep", "--n", "2,4,3"], ["clidemo-n2.csv", "clidemo-n3.csv", "clidemo-n4.csv"]),
    (["sweep", "--rho", "1,2"], ["clidemo-rho1.csv", "clidemo-rho2.csv"]),
], ids=["simulate", "sweep-n", "sweep-rho"])
def test_run_directory_does_not_depend_on_the_worker_count(
    scenario_file, tmp_path, capsys, monkeypatch, argv, runs
):
    argv = [*argv, "--scenario", scenario_file, "--seed", "1", "--record-every", "1"]
    names = same_for_one_and_two_cpus(argv, 0, tmp_path, capsys, monkeypatch)
    assert names == [*runs, "manifest.json", "scenario.json", "summary.json"]


@pytest.mark.needs_fork
@pytest.mark.parametrize("existing", [False, True], ids=["absent", "present"])
def test_reproduce_whose_second_case_fails_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, existing):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    real = simulation.integrate

    def fail_net10(loop, states=None):
        record = real(loop, states)
        if loop.scenario.graph.n == 10:
            raise IntegrationError(f"net10 failed in process {os.getpid()}")
        return record

    monkeypatch.setattr(simulation, "integrate", fail_net10)
    out = tmp_path / "rep"
    before = {}
    if existing:
        out.mkdir()
        for name in ("example1-net3.csv", "notes.txt"):
            (out / name).write_text("earlier\n")
            before[name] = "earlier\n"
    assert main([*SHORT_REPRODUCE, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "net10 failed in process" in err
    assert f"process {os.getpid()}" not in err  # it failed in a worker
    if existing:
        assert {p.name: p.read_text() for p in out.iterdir()} == before
    else:
        assert not out.exists()
    assert multiprocessing.active_children() == []


class Assembled(Exception):
    pass


@pytest.mark.needs_fork
def test_reproduce_assembles_its_first_case_in_the_calling_process(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)

    def stop(scenario):
        raise Assembled(os.getpid(), len(multiprocessing.active_children()))

    monkeypatch.setattr(simulation, "assemble", stop)
    out = tmp_path / "rep"
    with pytest.raises(Assembled) as err:
        main([*SHORT_REPRODUCE, "--out", str(out)])
    # raised here, before any pool worker existed, not as a broken pool
    assert err.value.args == (os.getpid(), 0)
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_has_built_one_case_when_it_first_assembles(scenario_file, tmp_path, monkeypatch, cpus):
    # the set-up cost of a sweep ends at its first assemble; the other
    # cases' graphs and starts are built after it
    monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
    built = []
    real = analysis._size_case

    def size_case(*args):
        built.append(args)
        return real(*args)

    def stop(scenario):
        raise Assembled(len(built))

    monkeypatch.setattr(analysis, "_size_case", size_case)
    monkeypatch.setattr(simulation, "assemble", stop)
    out = tmp_path / "sw"
    with pytest.raises(Assembled) as err:
        main(["sweep", "--scenario", scenario_file, "--n", "2,4,3", "--record-every", "1",
              "--out", str(out)])
    assert err.value.args == (1,)
    assert not out.exists()


@pytest.mark.needs_fork
def test_reproduce_exports_the_first_case_while_the_second_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    started = tmp_path / "net3-export-started"
    real_integrate, real_export = simulation.integrate, analysis.export_trajectory

    def net10_waits_for_net3_export(loop, states=None):
        if loop.scenario.graph.n == 10:
            deadline = time.monotonic() + 20.0
            while not started.exists():
                if time.monotonic() > deadline:
                    raise IntegrationError("net3's export had not started")
                time.sleep(0.01)
        return real_integrate(loop, states)

    def export(record, path):
        started.touch()
        real_export(record, path)

    monkeypatch.setattr(simulation, "integrate", net10_waits_for_net3_export)
    monkeypatch.setattr(analysis, "export_trajectory", export)
    assert main([*SHORT_REPRODUCE, "--out", str(tmp_path / "rep")]) == 1  # not converged in 6 s
    assert sorted(os.listdir(tmp_path / "rep"))[:2] == ["example1-net10-scenario.json", "example1-net10.csv"]


# a command whose pool always has two workers
TWO_WORKERS = """
import sys
from satsync import analysis, cli
analysis.usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def stop_while_a_case_runs(tmp_path, signum, group):
    """Send ``signum`` to a pooled ``reproduce example2`` while its
    10-node case still runs; check what it leaves and how it ends."""
    # example2 at its preset dt integrates for seconds; the signal comes
    # once both cases run in the workers and the CSVs are being staged,
    # to the command alone or, as a service manager stops it or Ctrl-C
    # interrupts it, to its workers too
    out = tmp_path / "d"
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen(
        [sys.executable, "-c", TWO_WORKERS, "reproduce", "example2", "--out", str(out)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        workers = []
        while len(workers) < 2 or not list(out.glob(".export-*")):
            assert time.monotonic() < deadline and caller.poll() is None
            time.sleep(0.05)
            workers = children(caller.pid)
        time.sleep(0.5)
        # the 10-node case has not finished: its CSV is not yet staged
        assert not list(out.rglob("example2-net10.csv"))
        sent = time.monotonic()
        if group:
            os.killpg(caller.pid, signum)
        else:
            caller.send_signal(signum)
        status = caller.wait(timeout=60)
        took = time.monotonic() - sent
    finally:
        caller.kill()
        caller.wait()
        stderr = caller.stderr.read()
        caller.stderr.close()
    assert status == -signum, stderr
    assert took < 5.0  # it did not wait for the running cases
    assert "Traceback" not in stderr
    assert not out.exists()  # the command made it, so it removed it
    assert os.listdir(tmp_path) == []
    deadline = time.monotonic() + 10.0
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


@pytest.mark.needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("group", [False, True], ids=["caller", "process-group"])
def test_sigterm_leaves_out_as_it_was_and_no_worker(tmp_path, group):
    stop_while_a_case_runs(tmp_path, signal.SIGTERM, group)


@pytest.mark.needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("group", [False, True], ids=["caller", "process-group"])
def test_sigint_leaves_out_as_it_was_and_no_worker(tmp_path, group):
    stop_while_a_case_runs(tmp_path, signal.SIGINT, group)


def test_reproduce_unknown_preset_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "nope", "--out", str(tmp_path / "x")])
    assert err.value.code == 2


def test_reproduce_writes_both_networks(tmp_path, capsys):
    out = tmp_path / "rep"
    # short horizon keeps this fast; nonzero exit reports non-convergence
    rc = main(["reproduce", "example1", "--out", str(out),
               "--horizon", "6", "--dt", "0.01"])
    assert rc == 1
    names = sorted(os.listdir(out))
    assert names == [
        "example1-net10-scenario.json", "example1-net10.csv",
        "example1-net3-scenario.json", "example1-net3.csv",
        "manifest.json", "summary.json",
    ]
    # no part file of the CSVs' export is left or listed
    assert read_json(out / "manifest.json")["run"]["outputs"] == [n for n in names if n != "manifest.json"]
    assert "NOT converged" in capsys.readouterr().out
    echo10 = read_json(out / "example1-net10-scenario.json")
    assert echo10["graph"]["n"] == 10


def test_missing_scenario_file_is_runtime_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_a_bool_node_count_without_traceback(tmp_path, capsys):
    doc = json.loads(json.dumps(SHORT_SCENARIO))
    doc["graph"] = {"n": True, "edges": [], "roots": [1]}
    path = tmp_path / "bool-n.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: graph.n: expected an integer, got True\n"


def test_verify_rejects_an_integer_beyond_floats_without_traceback(tmp_path, capsys):
    doc = json.loads(json.dumps(SHORT_SCENARIO))
    doc["protocol"] = {"rho": 10**400}  # over the preset's protocol
    path = tmp_path / "huge-rho.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: protocol.rho: must be finite, got {10**400}\n"


@pytest.mark.parametrize("route", ["inline", "file"])
def test_verify_rejects_a_duplicate_edge_without_traceback(tmp_path, capsys, route):
    graph = {"n": 2, "roots": [1], "edges": [
        {"from": 1, "to": 2, "weight": 1.0}, {"from": 1, "to": 2, "weight": 3.0},
    ]}
    doc = json.loads(json.dumps(SHORT_SCENARIO))
    where = "graph"
    if route == "file":
        (tmp_path / "g.json").write_text(json.dumps(graph))
        graph, where = {"file": "g.json"}, str(tmp_path / "g.json")
    doc["graph"] = graph
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where}.edges[1]: duplicate of edges[0] (from 1 to 2)\n"


def test_invalid_scenario_content_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"preset": "example1"}, "sim": {"dt": -1}}))
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "sim.dt" in capsys.readouterr().err
