"""Command-line behavior: exit codes, run-directory contract, determinism."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import satsync
from satsync import analysis, cli, simulation
from satsync.cli import main
from satsync.errors import IntegrationError
from satsync.parallel import process_map, sharing_workers

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


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(satsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "satsync", "verify", "--scenario", "scenarios/oscillator_trio.json"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "verification passed" in done.stdout


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


def same_for_one_and_two_cpus(argv, code, tmp_path, capsys, monkeypatch):
    """Run ``argv`` with 1 and then 2 usable CPUs; each opens one pool of
    that many workers, and both print the same and write the same run
    directory. Returns its file names."""
    outs, printed, opened = {}, {}, []

    def one_pool(workers):
        opened.append(workers)
        return process_map(workers)

    monkeypatch.setattr(cli, "process_map", one_pool)
    for cpus in (1, 2):
        monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        assert main([*argv, "--out", str(outs[cpus])]) == code
        printed[cpus] = capsys.readouterr().out.replace(str(outs[cpus]), "OUT")
        assert multiprocessing.active_children() == []
    assert opened == [1, sharing_workers(2)]
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

    def export(record, path, pmap):
        started.touch()
        real_export(record, path, pmap)

    monkeypatch.setattr(simulation, "integrate", net10_waits_for_net3_export)
    monkeypatch.setattr(analysis, "export_trajectory", export)
    assert main([*SHORT_REPRODUCE, "--out", str(tmp_path / "rep")]) == 1  # not converged in 6 s
    assert sorted(os.listdir(tmp_path / "rep"))[:2] == ["example1-net10-scenario.json", "example1-net10.csv"]


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
    assert "NOT converged" in capsys.readouterr().out
    echo10 = read_json(out / "example1-net10-scenario.json")
    assert echo10["graph"]["n"] == 10


def test_missing_scenario_file_is_runtime_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_content_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"preset": "example1"}, "sim": {"dt": -1}}))
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "sim.dt" in capsys.readouterr().err
