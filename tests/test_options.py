"""The package's options: every defaulted parameter of a public function.

An option is a parameter with a default on a public module-level function
of a public ``satsync`` module. Each one is a behaviour a caller can
switch, to be documented and tested, so the set is spelled out here: a
new option, or one removed, changes this file's diff.
"""

import ast
import os

import satsync

OPTIONS = {
    "agents.mixed_decompose(gamma_x)",
    "agents.saturate(out)",
    "analysis.export_report(pmap)",
    "analysis.gain_margin_runs(pmap)",
    "analysis.lyapunov_certificate_P1(traj)",
    "analysis.lyapunov_trace_P3(k)",
    "analysis.run_case(states)",
    "analysis.run_cases(pmap)",
    "analysis.scale_free_runs(ic_scale)",
    "analysis.scale_free_runs(pmap)",
    "analysis.sync_metrics(tol)",
    "analysis.sync_metrics(window)",
    "cli.main(argv)",
    "gains.synthesize_gains(rho)",
    "gains.verify_K_mixed(p_d)",
    "gains.verify_gains(decomp)",
    "graphs.generate_graph(extra_edge_prob)",
    "graphs.generate_graph(seed)",
    "graphs.parse_graph(context)",
    "presets.example1_gains(rho)",
    "presets.example2_gains(rho)",
    "scenario.parse_scenario(base_dir)",
    "scenario.parse_scenario(overrides)",
    "scenario.parse_scenario_doc(base_dir)",
    "scenario.parse_scenario_doc(overrides)",
    "simulation.export_trajectory(pmap)",
    "simulation.integrate(states)",
    "simulation.rk4(record_every)",
    "simulation.rk4(states)",
}


def defaulted_parameters(package_dir):
    """``module.function(parameter)`` for every defaulted parameter of a
    public function defined at the top of a public module."""
    found = set()
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py") or name.startswith("_"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found |= {f"{name[:-3]}.{node.name}({a.arg})" for a in defaulted}
    return found


def test_the_option_set_is_spelled_out():
    found = defaulted_parameters(os.path.dirname(satsync.__file__))
    assert found == OPTIONS, (
        f"new: {sorted(found - OPTIONS)}, gone: {sorted(OPTIONS - found)}"
    )
    assert len(OPTIONS) == 29
