"""The package's options: every defaulted parameter of a public
function, and every defaulted field of a public class; and no public
function takes a setting that a ``Scenario`` states.

An option is a parameter with a default on a public module-level function
of a public ``satsync`` module, or a field with a default on a public
class defined at the top of one (a ``field(init=False)`` is computed,
not passed, and is no option). Each one is a behaviour a caller can
switch, to be documented and tested, so the sets are spelled out here: a
new option, or one removed, changes this file's diff.
"""

import ast
import os

import satsync

OPTIONS = {
    "agents.mixed_decompose(gamma_x)",
    "agents.saturate(out)",
    "analysis.run_case(states)",
    "cli.main(argv)",
    "gains.synthesize_gains(rho)",
    "graphs.generate_graph(extra_edge_prob)",
    "graphs.generate_graph(seed)",
    "graphs.parse_graph(context)",
    "scenario.parse_scenario_doc(base_dir)",
    "scenario.parse_scenario_doc(overrides)",
    "simulation.integrate(states)",
}


FIELDS = {
    "analysis.RunRecord(gain_report)",
    "analysis.RunRecord(trajectory)",
    "gains.GainSet(f)",
    "gains.GainSet(gamma_x)",
    "gains.GainSet(k)",
    "gains.GainSet(p)",
    "gains.GainSet(p_d)",
    "gains.GainSet(rho)",
    "simulation.Scenario(controller0)",
    "simulation.Scenario(dt)",
    "simulation.Scenario(horizon)",
    "simulation.Scenario(record_every)",
    "simulation.Scenario(seed)",
    "simulation.Scenario(tol)",
    "simulation.Scenario(window)",
}


def _public_modules(package_dir):
    """(module name, top-level statements) of every public module."""
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py") or name.startswith("_"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            yield name[:-3], ast.parse(fh.read()).body


def _public_functions(package_dir):
    """(module name, definition) of every public function defined at the
    top of a public module."""
    for module, body in _public_modules(package_dir):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                yield module, node


def defaulted_parameters(package_dir):
    """``module.function(parameter)`` for every defaulted parameter of a
    public function defined at the top of a public module."""
    found = set()
    for module, node in _public_functions(package_dir):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found |= {f"{module}.{node.name}({a.arg})" for a in defaulted}
    return found


def _computed(value):
    """Whether a field's default is ``field(init=False, ...)``."""
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def defaulted_fields(package_dir):
    """``module.Class(field)`` for every annotated field with a default,
    not computed, of a public class defined at the top of a public module."""
    found = set()
    for module, body in _public_modules(package_dir):
        for node in body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            found |= {
                f"{module}.{node.name}({item.target.id})"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None
                and not _computed(item.value)
            }
    return found


def test_the_option_set_is_spelled_out():
    found = defaulted_parameters(os.path.dirname(satsync.__file__))
    assert found == OPTIONS, (
        f"new: {sorted(found - OPTIONS)}, gone: {sorted(OPTIONS - found)}"
    )
    assert len(OPTIONS) == 11


def test_the_class_field_options_are_spelled_out():
    found = defaulted_fields(os.path.dirname(satsync.__file__))
    assert found == FIELDS, (
        f"new: {sorted(found - FIELDS)}, gone: {sorted(FIELDS - found)}"
    )
    assert len(FIELDS) == 15


# the Scenario fields that say how a run is stepped, recorded and scored
SCENARIO_SETTINGS = {"tol", "window", "dt", "horizon", "record_every"}


def test_no_public_function_takes_a_scenario_setting():
    # a run's settings are stated once, on its Scenario: a function that
    # took one as a parameter could run or score it otherwise
    found = set()
    for module, node in _public_functions(os.path.dirname(satsync.__file__)):
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        found |= {f"{module}.{node.name}({name})" for name in names & SCENARIO_SETTINGS}
    assert not found, f"Scenario settings taken as parameters: {sorted(found)}"


# the constants a run's settings default to or are bounded by
SETTING_CONSTANTS = {"DEFAULT_DT", "DEFAULT_HORIZON", "DEFAULT_TOL", "MAX_DT", "MAX_STEPS"}


def test_only_simulation_names_the_setting_defaults_and_bounds():
    # Scenario defaults and checks a run's settings; a module that named
    # one of these constants would default or bound a setting again
    package_dir = os.path.dirname(satsync.__file__)
    found = set()
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py") or name == "simulation.py":
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            for named in (getattr(node, attr, None) for attr in ("id", "attr", "name", "value")):
                if isinstance(named, str) and named in SETTING_CONSTANTS:
                    found.add(f"{name[:-3]}: {named}")
    assert not found, f"setting constants named outside simulation.py: {sorted(found)}"
