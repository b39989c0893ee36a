"""The package's surface: every exported name has a caller in the program.

A name in a public module's ``__all__``, or in ``satsync.__all__``, must
be used by the program itself: referenced somewhere in ``src/satsync``
outside its own definition and the package's re-exports, or by the
benchmark under ``bench/`` (which may name it in a string, as the
tracer's targets do). Code that only the tests call belongs in
``tests/``, so a name that only tests use fails here.
"""

import ast
import importlib
import os

import satsync

PACKAGE_DIR = os.path.dirname(satsync.__file__)
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(PACKAGE_DIR)), "bench")


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _exported(tree):
    """The strings of a module's top-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _loads(node, owner=None):
    """(name, owner) for every name ``node`` reads, directly or as an
    attribute; ``owner`` is the top-level definition it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and owner is None:
        owner = node.name
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, owner
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, owner
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, owner)


def _bench_references(tree):
    """Names ``bench/`` code uses: read, imported or given as a string.

    A tuple of strings that starts with a ``satsync`` module name, such
    as a tracer target ``("satsync.cli", "verify_gains", span)``, names
    a lookup in that module, and counts only where the module has it: a
    target the program lacks is not traced.
    """
    used, lookups = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
        ) and node.elts[0].value.startswith("satsync"):
            module, attr = node.elts[0].value, node.elts[1].value
            lookups |= {id(e) for e in node.elts}
            if hasattr(importlib.import_module(module), attr):
                used.add(attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in lookups:
            used.add(node.value)
    return used


def program_references():
    """Names the program uses: read in a src module other than
    ``__init__`` outside the top-level definition of the same name, or
    used under ``bench/``."""
    used = set()
    for name in os.listdir(PACKAGE_DIR):
        if name.endswith(".py") and name != "__init__.py":
            tree = _tree(os.path.join(PACKAGE_DIR, name))
            used |= {ref for ref, owner in _loads(tree) if ref != owner}
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            used |= _bench_references(_tree(os.path.join(BENCH_DIR, name)))
    return used


def exported_names():
    """``module.name`` for every name in a public module's ``__all__``
    and in ``satsync.__all__`` (module ``satsync``)."""
    names = {f"satsync.{n}" for n in satsync.__all__}
    for name in os.listdir(PACKAGE_DIR):
        if name.endswith(".py") and not name.startswith("_"):
            names |= {f"{name[:-3]}.{n}" for n in _exported(_tree(os.path.join(PACKAGE_DIR, name)))}
    return names


def test_every_exported_name_has_a_caller_in_the_program():
    used = program_references()
    unused = sorted(full for full in exported_names() if full.rpartition(".")[2] not in used)
    assert not unused, f"exported but used only outside the program: {unused}"


# the tracer's targets that name a lookup the program does not have
UNTRACED = {
    "satsync.analysis.verify_gains",
    "satsync.cli.build_protocol",
    "satsync.cli.simulate",
    "satsync.analysis.simulate",
    "satsync.cli.sync_metrics",
    "satsync.simulation.rk4",
}


def tracer_targets():
    """``module.name`` of every lookup in ``bench/tracer.py``'s ``TARGETS``."""
    for node in _tree(os.path.join(BENCH_DIR, "tracer.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [f"{e.elts[0].value}.{e.elts[1].value}" for e in node.value.elts]
    raise AssertionError("bench/tracer.py has no TARGETS")


def test_the_tracer_wraps_every_lookup_it_measures_by():
    # a refactor that moves a call away from the module the tracer wraps
    # it in would leave its span, and the layer metric it feeds, empty
    targets = tracer_targets()
    resolved = set()
    for target in targets:
        module, _, name = target.rpartition(".")
        if callable(getattr(importlib.import_module(module), name, None)):
            resolved.add(target)
    assert set(targets) - resolved == UNTRACED
    assert len(targets) == 21 and len(resolved) == 15
