"""Command-line front end for simulating and auditing the protocols.

Five subcommands share one scenario-document format. ``simulate`` runs
a single closed loop and writes a run directory; ``verify`` audits a
scenario's gains and graph without simulating; ``synthesize`` prints
gains designed from the model alone; ``reproduce`` runs a bundled
preset over both demonstration networks and judges it against the
convergence tolerance; ``sweep`` re-runs a scenario across loop gains
or network sizes.

A run directory always holds exactly the resolved scenario echo(es),
``summary.json``, the trajectory file(s), and ``manifest.json``, moved
in together once all of them are written, so a command that fails or
is sent SIGTERM or SIGINT leaves it as it was (SIGKILL cannot be
caught). The manifest's ``run`` section is deterministic -- identical
invocations produce identical content, with wall-clock timing kept
outside it -- and trajectory and summary files are byte-identical
across reruns.
Convergence is data in the report, not an exit status, except for
``reproduce`` which fails when a preset does not converge. Agent
indices in all user-facing output are 1-based.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import signal
import sys
import time

import numpy as np

from . import __version__
from .analysis import export_report, rho_cases, run_cases, size_cases, staged
from .errors import IntegrationError, SynthesisError, ValidationError
from .gains import GAIN_MATRICES, synthesize_gains, verify_gains
from .graphs import check_rootset
from .presets import GRAPH_A, GRAPH_B, preset_names, preset_scenario
from .protocols import compatible_classes
from .scenario import build_scenario, parse_scenario_doc, scenario_echo

_SWEEP_RECORD_EVERY = 100

_REALIZATION_FIELDS = (
    "a_c",
    "b_c",
    "c_c",
    "d_c",
    "f_c",
    "h_c",
    "u_gain",
)


def _controller_digest(realization):
    digest = hashlib.sha256()
    for name in _REALIZATION_FIELDS:
        mat = np.ascontiguousarray(getattr(realization, name), dtype=float)
        digest.update(name.encode())
        digest.update(str(mat.shape).encode())
        digest.update(mat.tobytes())
    return digest.hexdigest()


def _overrides(args):
    paths = {
        "dt": "sim.dt",
        "horizon": "sim.horizon",
        "seed": "sim.seed",
        "record_every": "sim.record_every",
    }
    overrides = {}
    for attr, path in paths.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[path] = value
    # sweep reuses the --rho spelling for its comma-separated list; only the
    # scalar form is a scenario override
    rho = getattr(args, "rho", None)
    if isinstance(rho, float):
        overrides["protocol.rho"] = rho
    return overrides


def _load_parts(args, defaults=None):
    """The parts of ``--scenario``, with ``defaults`` (dotted paths, as
    in ``_overrides``) under the command's own flags."""
    path = args.scenario
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario {path}: {exc}") from None
    overrides = {**(defaults or {}), **_overrides(args)}
    return parse_scenario_doc(data, base_dir=os.path.dirname(os.path.abspath(path)), overrides=overrides)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _print_checks(report, rootset_ok):
    state = "pass" if rootset_ok else "FAIL"
    print(f"[{state}] rootset_reachable: every node reachable from the root set"
          if rootset_ok else f"[{state}] rootset_reachable: root set does not reach every node")
    for check in report.checks:
        state = "pass" if check.passed else "FAIL"
        print(f"[{state}] {check.name}: margin={check.margin:.6g} ({check.detail})")


def _print_outcome(case, run):
    name, report = run.name, run.report
    if report.converged:
        print(f"{name}: converged at t={report.convergence_time:g} s "
              f"(tol {report.tol:g}, window {report.window:g} s)")
    else:
        print(f"{name}: NOT converged within the horizon "
              f"(final max error {report.max_error[-1]:.4g}, tol {report.tol:g})")


def _write_run(out, cases, on_run, echoes, second):
    """Run a command's cases and write its whole run directory at once.

    The cases run through ``analysis.run_cases``, and each run's CSV is
    formatted in its pool while later cases still run; ``on_run(case,
    run)`` reports each run as it finishes. ``echoes`` maps each echo
    file name to its scenario; the manifest's ``scenario`` is that echo,
    or the list of them where there are several, and ``second(runs)``
    gives the manifest's next (key, value). Every file, manifest
    included, is written through ``analysis.staged``, so nothing reaches
    ``out`` unless all of them do. Returns the runs, in order.
    """
    started = time.perf_counter()
    runs = []

    def reported(pairs):
        for case, run in pairs:
            on_run(case, run)
            runs.append(run)
            yield run

    with run_cases(cases) as pairs, staged(out) as staging:
        export_report(reported(pairs), staging)
        docs = [scenario_echo(scenario) for scenario in echoes.values()]
        for name, doc in zip(echoes, docs):
            _write_json(os.path.join(staging, name), doc)
        wall = time.perf_counter() - started
        key, value = second(runs)
        run_section = {
            "scenario": docs[0] if len(docs) == 1 else docs,
            key: value,
            "outputs": sorted(os.listdir(staging)),
            "results": {run.name: run.report.verdict() for run in runs},
        }
        _write_json(os.path.join(staging, "manifest.json"), {
            "format": "satsync-manifest",
            "version": 1,
            "artifact_version": __version__,
            "run": run_section,
            "wall_clock_s": wall,
        })
    print(f"run directory: {out}")
    return runs


def _gain_checks(runs):
    return "gain_checks", runs[0].gain_report.as_dicts()


def cmd_simulate(args):
    scenario = build_scenario(_load_parts(args))
    _write_run(
        args.out,
        [scenario],
        _print_outcome,
        {"scenario.json": scenario},
        _gain_checks,
    )
    return 0


def cmd_verify(args):
    parts = _load_parts(args)
    model_class = parts.model.classification.model_class
    print(f"model class: {model_class.value}")
    compatible = model_class in compatible_classes(parts.kind)
    rootset_ok = check_rootset(parts.graph)
    report = verify_gains(parts.model, parts.gains, kind=parts.kind)
    _print_checks(report, rootset_ok)
    state = "pass" if compatible else "FAIL"
    accepted = "/".join(c.value for c in compatible_classes(parts.kind))
    print(f"[{state}] kind_compatible: {parts.kind} accepts {accepted}")
    ok = rootset_ok and compatible and report.passed
    if ok:
        # what simulate would reject fails here too, with its message
        build_scenario(parts)
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_synthesize(args):
    parts = _load_parts(args)
    gains = synthesize_gains(parts.model, parts.kind, rho=parts.gains.rho)
    print(f"gains for kind {parts.kind} (rho={gains.rho:g}):")
    for name in GAIN_MATRICES:
        value = getattr(gains, name)
        if value is None:
            continue
        print(f"{name} =")
        for row in np.atleast_2d(value):
            print("  [" + ", ".join(f"{v:.10g}" for v in row) + "]")
    report = verify_gains(parts.model, gains, kind=parts.kind)
    _print_checks(report, check_rootset(parts.graph))
    if report.passed:
        build_scenario(dataclasses.replace(parts, gains=gains))
    return 0 if report.passed else 1


def cmd_reproduce(args):
    overrides = _overrides(args)
    scenarios = []
    for label, graph_doc in (("net3", GRAPH_A), ("net10", GRAPH_B)):
        doc = preset_scenario(args.preset)
        doc["graph"] = graph_doc
        doc["name"] = f"{args.preset}-{label}"
        scenarios.append(build_scenario(parse_scenario_doc(doc, overrides=overrides)))
    runs = _write_run(
        args.out,
        scenarios,
        _print_outcome,
        {f"{sc.name}-scenario.json": sc for sc in scenarios},
        _gain_checks,
    )
    all_converged = all(run.report.converged for run in runs)
    if not all_converged:
        print("reproduction FAILED: not every run converged", file=sys.stderr)
    return 0 if all_converged else 1


def _parse_list(text, flag, number):
    """The comma-separated entries of ``flag``'s ``text``, each read by
    ``number``; an entry that is no number, or not a finite one, is
    rejected as typed."""
    values = []
    for entry in filter(None, (v.strip() for v in text.split(","))):
        try:
            value = number(entry)
        except ValueError:
            raise ValidationError(f"{flag}: expected a comma-separated number list, got {text!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{flag}: must be finite, got {entry!r}")
        values.append(value)
    if not values:
        raise ValidationError(f"{flag}: empty list")
    return values


def _size(entry):
    """A ``--n`` entry: an integer exactly as written, else a float."""
    try:
        return int(entry)
    except ValueError:
        return float(entry)


def cmd_sweep(args):
    # sweeps thin their trajectories by default; full runs stay opt-in
    scenario = build_scenario(_load_parts(args, {"sim.record_every": _SWEEP_RECORD_EVERY}))
    if args.rho is not None:
        flag, make_cases, values = "--rho", rho_cases, _parse_list(args.rho, "--rho", float)
    else:
        flag, make_cases, values = "--n", size_cases, _parse_list(args.n, "--n", _size)
    try:
        cases = make_cases(scenario, values)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from None
    digests = {}

    def table_row(case, run):
        label = f"rho={case.protocol.gains.rho:g}" if args.rho is not None else f"n={case.graph.n}"
        if not digests:
            print(f"{'case':>12}  {'converged':>9}  {'t_conv':>10}  controller")
        digests[label] = _controller_digest(case.protocol)
        report = run.report
        t_conv = f"{report.convergence_time:g}" if report.converged else "-"
        print(f"{label:>12}  {str(report.converged):>9}  {t_conv:>10}  {digests[label][:12]}")

    _write_run(
        args.out,
        cases,
        table_row,
        {"scenario.json": scenario},
        lambda runs: ("sweep", digests),
    )
    return 0


def _add_sim_flags(parser):
    parser.add_argument("--dt", type=float, help="override the integration step")
    parser.add_argument("--horizon", type=float, help="override the simulated horizon (s)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--record-every", dest="record_every", type=int,
                        help="record every k-th step")


def _add_scenario_flags(parser, with_rho=True):
    parser.add_argument("--scenario", required=True, help="path to the scenario document")
    _add_sim_flags(parser)
    if with_rho:
        parser.add_argument("--rho", type=float, help="override the loop gain")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="satsync",
        description="Synthesize, simulate, and audit saturated synchronization protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write a run directory")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True, help="run directory to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="audit a scenario's graph and gains without simulating")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synthesize", help="design and print gains for a scenario's model")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("reproduce", help="run a bundled preset over both demonstration networks")
    p.add_argument("preset", choices=preset_names())
    p.add_argument("--out", required=True, help="run directory to write")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="re-run a scenario across loop gains or network sizes")
    _add_scenario_flags(p, with_rho=False)
    p.add_argument("--out", required=True, help="run directory to write")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", help="comma-separated loop gains, e.g. 1,10,100")
    group.add_argument("--n", help="comma-separated network sizes, e.g. 3,10,25")
    p.set_defaults(func=cmd_sweep)
    return parser


# the signals a command cleans up after and then dies of
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class Terminated(BaseException):
    """SIGTERM or SIGINT (``signum``), raised in the main thread so that
    every cleanup on the way out runs; like ``KeyboardInterrupt``, no
    ``except Exception`` catches it."""

    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def _raise_terminated(signum, frame):
    for stop in _STOP_SIGNALS:  # the cleanup runs to its end
        signal.signal(stop, signal.SIG_IGN)
    raise Terminated(signum)


def main(argv=None):
    """Run one command. SIGTERM or SIGINT (Ctrl-C) while it runs removes
    what the command staged (and ``--out`` if it made it), stops its pool
    without waiting for running cases, and then ends the process by that
    signal."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    previous = {stop: signal.signal(stop, _raise_terminated) for stop in _STOP_SIGNALS}
    try:
        return args.func(args)
    except (ValidationError, SynthesisError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Terminated as exc:
        signal.signal(exc.signum, signal.SIG_DFL)
        os.kill(os.getpid(), exc.signum)
    finally:
        for stop, handler in previous.items():
            signal.signal(stop, handler)


if __name__ == "__main__":
    sys.exit(main())
