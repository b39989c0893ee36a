"""Scenario documents: one JSON file describes one closed-loop run.

A document has five sections. ``model`` gives the agent matrices inline
or names a bundled preset; ``graph`` is inline, a file reference, or a
generator spec; ``protocol`` picks the kind, the loop gain, and
optionally explicit gain matrices (synthesized from the model when
omitted); ``sim`` fixes the grid, the seed, and the initial conditions;
``analysis`` the convergence tolerance and window. Everything is
validated strictly -- unknown keys are rejected with their full field
path -- and everything random is resolved here, at parse time, from the
document's own seed. The echo of a parsed scenario is itself a valid
document with all randomness spelled out, so a rerun from the echo
reproduces the original run byte for byte.

Parsing is split in two stages. :func:`parse_scenario_doc` resolves the
document into plain ingredients without building the controller, which
lets the verifier report margins for gains that would be rejected at
build time; :func:`build_scenario` performs the build. The parser checks
a stated run setting's JSON type at its field path; ``Scenario`` alone
defaults the settings and checks their ranges, naming the same paths.

Graph documents, in files or inline, are read and written here too,
with the readers every section uses; whether a root set reaches every
node is judged by ``graphs.check_rootset`` where the graph is used.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

import numpy as np

from .agents import AgentModel
from .errors import ValidationError
from .gains import GAIN_MATRICES, KIND_GAINS, GainSet, synthesize_gains
from .graphs import CommGraph, _require_dense_fit, generate_graph
from .presets import preset_scenario
from .protocols import KINDS, build_protocol
from .simulation import Scenario

__all__ = [
    "ScenarioParts",
    "parse_scenario_doc",
    "build_scenario",
    "scenario_echo",
    "parse_graph",
    "serialize_graph",
    "load_graph",
]

_TOP_KEYS = {"name", "model", "graph", "protocol", "sim", "analysis"}
_MODEL_KEYS = {"a", "b", "c"}
_PROTOCOL_KEYS = {"kind", "rho", "gains"}
_SIM_KEYS = {"dt", "horizon", "record_every", "seed", "x_r0", "x0", "ic_scale"}
_ANALYSIS_KEYS = {"tol", "window"}
_GENERATE_KEYS = {"kind", "n", "roots", "seed", "extra_edge_prob"}
_GRAPH_KEYS = ("n", "edges", "roots")

# the largest magnitude a float holds; a larger JSON integer is rejected
_FLOAT_MAX = float(np.finfo(float).max)

DEFAULT_IC_SCALE = 5.0


@dataclass
class ScenarioParts:
    """A fully resolved document, one step short of building the controller.

    ``run`` holds the rest of ``Scenario``'s keyword arguments: the name
    and the initial states, and the seed and the run settings only where
    the document states them.
    """

    model: AgentModel
    graph: CommGraph
    kind: str
    gains: GainSet
    run: dict


def _reject_unknown(section, allowed, path):
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise ValidationError(f"{path}: unknown keys {keys}")


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _require_list(value, path):
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _decode_json(data, what):
    """The JSON value of ``data``, bytes or text; ``what`` names the
    document in the error."""
    # ValueError: also bytes that are not UTF-8, or an integer of more
    # digits than int() reads
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def _integer(value, path):
    """``value`` if it is a JSON integer, never a bool or a float; else rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def _node_count(value, path):
    """A positive JSON integer whose dense graph fits in memory."""
    n = _integer(value, path)
    if n < 1:
        raise ValidationError(f"{path}: must be positive, got {n}")
    _require_dense_fit(n, path)
    return n


def _index(value, path, n):
    """A 1-based node index: a JSON integer in 1..n."""
    value = _integer(value, path)
    if not 1 <= value <= n:
        raise ValidationError(f"{path}: index {value} outside 1..{n}")
    return value


def _finite(value, path):
    """``value`` if it is a JSON number (never a bool) that a float holds
    finitely; else rejected. Compared, not passed to ``np.isfinite``: a
    JSON integer beyond the float range is no float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= _FLOAT_MAX:
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    return value


def _number(value, path, *, positive=False, integer=False):
    value = _finite(value, path)
    if positive and not value > 0:
        raise ValidationError(f"{path}: must be positive, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _seed(value, path):
    seed = _number(value, path, integer=True)
    if seed < 0:
        raise ValidationError(f"{path}: must be nonnegative, got {seed}")
    return seed


def _matrix(value, path):
    if not isinstance(value, list) or not value or not all(
        isinstance(row, list) for row in value
    ):
        raise ValidationError(f"{path}: expected a list of rows")
    width = len(value[0])
    for k, row in enumerate(value):
        if len(row) != width:
            raise ValidationError(
                f"{path}[{k}]: row length {len(row)} != {width} of the first row"
            )
        for j, entry in enumerate(row):
            _finite(entry, f"{path}[{k}][{j}]")
    return np.asarray(value, dtype=float)


def _vector(value, path):
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list of numbers")
    for j, entry in enumerate(value):
        _finite(entry, f"{path}[{j}]")
    return np.asarray(value, dtype=float)


def _merge(base, override):
    """Recursive dict merge; override wins, dicts merge per key."""
    merged = dict(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _expand_preset(doc):
    model = doc.get("model")
    if not isinstance(model, dict) or "preset" not in model:
        return doc
    if set(model) != {"preset"}:
        extra = sorted(set(model) - {"preset"})
        raise ValidationError(
            f"model: preset cannot be combined with inline keys {extra}"
        )
    name = model["preset"]
    if not isinstance(name, str):
        raise ValidationError(f"model.preset: expected a string, got {name!r}")
    base = preset_scenario(name)
    user = {key: value for key, value in doc.items() if key != "model"}
    merged = _merge(base, user)
    # the graph section has mutually exclusive forms (inline / file /
    # generate), so a user-supplied graph replaces the preset's outright
    # instead of merging key-by-key across forms
    if "graph" in user:
        merged["graph"] = copy.deepcopy(user["graph"])
    return merged


def _overrides_patch(overrides):
    patch = {}
    for path, value in overrides.items():
        section, _, key = path.partition(".")
        if key:
            patch.setdefault(section, {})[key] = value
        else:
            patch[section] = value
    return patch


def _parse_model(doc):
    model = _require_mapping(doc.get("model"), "model")
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("a", "b"):
        if key not in model:
            raise ValidationError(f"model.{key}: missing")
    a = _matrix(model["a"], "model.a")
    b = _matrix(model["b"], "model.b")
    c = _matrix(model["c"], "model.c") if "c" in model else np.eye(a.shape[0])
    try:
        return AgentModel(a=a, b=b, c=c)
    except ValidationError as exc:
        raise ValidationError(f"model: {exc}") from None


def _parse_graph_section(doc, base_dir):
    graph = _require_mapping(doc.get("graph"), "graph")
    if "file" in graph:
        _reject_unknown(graph, {"file"}, "graph")
        ref = graph["file"]
        if not isinstance(ref, str):
            raise ValidationError(f"graph.file: expected a path, got {ref!r}")
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        try:
            return load_graph(path)
        except OSError as exc:
            raise ValidationError(f"graph.file: cannot read {path}: {exc.strerror}") from None
    if "generate" in graph:
        _reject_unknown(graph, {"generate"}, "graph")
        spec = _require_mapping(graph["generate"], "graph.generate")
        _reject_unknown(spec, _GENERATE_KEYS, "graph.generate")
        for key in ("kind", "n"):
            if key not in spec:
                raise ValidationError(f"graph.generate.{key}: missing")
        if "seed" not in spec:
            raise ValidationError("graph.generate.seed: missing (generation must be seeded)")
        kind = spec["kind"]
        if not isinstance(kind, str):
            raise ValidationError(f"graph.generate.kind: expected a string, got {kind!r}")
        n = _node_count(spec["n"], "graph.generate.n")
        seed = _seed(spec["seed"], "graph.generate.seed")
        roots = _require_list(spec.get("roots", [1]), "graph.generate.roots")
        roots = [_index(r, f"graph.generate.roots[{k}]", n) for k, r in enumerate(roots)]
        kwargs = {}
        if "extra_edge_prob" in spec:
            kwargs["extra_edge_prob"] = _number(
                spec["extra_edge_prob"], "graph.generate.extra_edge_prob"
            )
        try:
            return generate_graph(kind, n, roots, seed=seed, **kwargs)
        except ValidationError as exc:
            raise ValidationError(f"graph.generate: {exc}") from None
    return parse_graph(graph, "graph")


def parse_graph(data, context="graph"):
    """Build a CommGraph from the dict form used in files and scenarios.

    Expected shape::

        {"n": 3, "edges": [{"from": 1, "to": 2, "weight": 1.0}, ...],
         "roots": [1]}

    Indices are 1-based JSON integers, never coerced; ``"from"`` is the
    information source. ``weight``, a positive number, defaults to 1.
    Unknown keys, bad values and a second edge between the same ordered
    pair are rejected with their field path, ``context`` first.
    """
    data = _require_mapping(data, context)
    _reject_unknown(data, _GRAPH_KEYS, context)
    for key in _GRAPH_KEYS:
        if key not in data:
            raise ValidationError(f"{context}.{key}: missing")
    n = _node_count(data["n"], f"{context}.n")
    weights = np.zeros((n, n))
    first = {}
    for k, edge in enumerate(_require_list(data["edges"], f"{context}.edges")):
        where = f"{context}.edges[{k}]"
        _reject_unknown(_require_mapping(edge, where), {"from", "to", "weight"}, where)
        src = _index(edge.get("from"), f"{where}.from", n)
        dst = _index(edge.get("to"), f"{where}.to", n)
        weight = _number(edge.get("weight", 1.0), f"{where}.weight", positive=True)
        if src == dst:
            raise ValidationError(f"{where}: self-loop on node {src}")
        if (src, dst) in first:
            raise ValidationError(
                f"{where}: duplicate of edges[{first[src, dst]}] (from {src} to {dst})"
            )
        first[src, dst] = k
        weights[dst - 1, src - 1] = weight
    flags = np.zeros(n, dtype=int)
    for k, r in enumerate(_require_list(data["roots"], f"{context}.roots")):
        flags[_index(r, f"{context}.roots[{k}]", n) - 1] = 1
    return CommGraph(n=n, weights=weights, root_flags=flags)


def serialize_graph(graph):
    """Dict form of a graph; inverse of :func:`parse_graph`.

    Edges are listed in (from, to) order, so serialization is canonical
    and round-trips exactly.
    """
    edges = []
    for src in range(graph.n):
        for dst in range(graph.n):
            w = graph.weights[dst, src]
            if w > 0:
                edges.append({"from": src + 1, "to": dst + 1, "weight": float(w)})
    return {"n": graph.n, "edges": edges, "roots": graph.roots()}


def load_graph(path):
    """Read a graph from a JSON file; its errors name the file. A file
    that cannot be read raises the ``OSError`` of ``open``."""
    with open(path, "rb") as fh:
        data = _decode_json(fh.read(), str(path))
    return parse_graph(data, context=str(path))


def _parse_protocol(doc, model):
    protocol = _require_mapping(doc.get("protocol"), "protocol")
    _reject_unknown(protocol, _PROTOCOL_KEYS, "protocol")
    if "kind" not in protocol:
        raise ValidationError("protocol.kind: missing")
    kind = protocol["kind"]
    if kind not in KINDS:
        raise ValidationError(
            f"protocol.kind: unknown kind {kind!r} (expected one of {', '.join(KINDS)})"
        )
    rho = 1.0
    if "rho" in protocol:
        rho = _number(protocol["rho"], "protocol.rho")
    raw = protocol.get("gains")
    if raw is None:
        try:
            return kind, synthesize_gains(model, kind, rho=rho)
        except ValidationError as exc:
            raise ValidationError(f"protocol: {exc}") from None
    gains = _require_mapping(raw, "protocol.gains")
    _reject_unknown(gains, GAIN_MATRICES, "protocol.gains")
    unread = sorted(set(gains).difference(KIND_GAINS[kind]))
    if unread:
        raise ValidationError(f"protocol.gains.{unread[0]}: kind {kind} does not read {unread[0]}")
    matrices = {
        key: _matrix(gains[key], f"protocol.gains.{key}") for key in sorted(gains)
    }
    try:
        return kind, GainSet(rho=rho, **matrices)
    except ValidationError as exc:
        raise ValidationError(f"protocol.gains: {exc}") from None


def parse_scenario_doc(data, base_dir=None, overrides=None):
    """Resolve a scenario document into its validated ingredients.

    ``data`` may be raw bytes/text or an already-decoded mapping.
    ``base_dir`` anchors relative graph file references. ``overrides``
    maps dotted paths (``"sim.dt"``, ``"protocol.rho"``) onto values
    that replace the document's own, before validation.
    """
    if isinstance(data, (bytes, str)):
        data = _decode_json(data, "scenario document")
    doc = _require_mapping(data, "scenario")
    doc = _expand_preset(doc)
    if overrides:
        doc = _merge(doc, _overrides_patch(overrides))
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    for key in ("model", "graph", "protocol"):
        if key not in doc:
            raise ValidationError(f"{key}: missing section")

    model = _parse_model(doc)
    graph = _parse_graph_section(doc, base_dir)
    kind, gains = _parse_protocol(doc, model)

    name = doc.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"name: expected a nonempty string, got {name!r}")

    sim = _require_mapping(doc.get("sim", {}), "sim")
    _reject_unknown(sim, _SIM_KEYS, "sim")
    run = {"name": name}
    for key in ("dt", "horizon", "record_every"):
        if key in sim:
            run[key] = _number(sim[key], f"sim.{key}", integer=key == "record_every")
    seed = None
    if sim.get("seed") is not None:
        seed = run["seed"] = _seed(sim["seed"], "sim.seed")

    if "x_r0" in sim:
        run["x_r0"] = _vector(sim["x_r0"], "sim.x_r0")
    else:
        run["x_r0"] = np.zeros(model.n)
    if "x0" in sim:
        # explicit initial conditions win over a (possibly preset-inherited) ic_scale
        run["x0"] = _matrix(sim["x0"], "sim.x0")
    else:
        scale = DEFAULT_IC_SCALE
        if "ic_scale" in sim:
            scale = _number(sim["ic_scale"], "sim.ic_scale", positive=True)
        rng = np.random.default_rng(seed if seed is not None else 0)
        run["x0"] = rng.uniform(-scale, scale, size=(graph.n, model.n))

    analysis = _require_mapping(doc.get("analysis", {}), "analysis")
    _reject_unknown(analysis, _ANALYSIS_KEYS, "analysis")
    if "tol" in analysis:
        run["tol"] = _number(analysis["tol"], "analysis.tol")
    if analysis.get("window") is not None:
        run["window"] = _number(analysis["window"], "analysis.window")

    return ScenarioParts(model=model, graph=graph, kind=kind, gains=gains, run=run)


def build_scenario(parts):
    """Build the controller and assemble the runnable Scenario, which
    defaults and checks the run's settings."""
    protocol = build_protocol(parts.kind, parts.model, parts.gains)
    return Scenario(model=parts.model, graph=parts.graph, protocol=protocol, **parts.run)


def _matrix_doc(mat):
    return [[float(v) for v in row] for row in np.asarray(mat, dtype=float)]


def scenario_echo(scenario):
    """The fully resolved document for a scenario, ready to re-parse.

    All randomness is spelled out (explicit initial conditions, inline
    graph), so parsing the echo rebuilds a scenario whose simulation is
    bit-identical to the original's.
    """
    model = scenario.model
    gains = scenario.protocol.gains
    gains_doc = {}
    for key in GAIN_MATRICES:
        value = getattr(gains, key)
        if value is not None:
            gains_doc[key] = _matrix_doc(value)
    doc = {
        "name": scenario.name,
        "model": {
            "a": _matrix_doc(model.a),
            "b": _matrix_doc(model.b),
            "c": _matrix_doc(model.c),
        },
        "graph": serialize_graph(scenario.graph),
        "protocol": {
            "kind": scenario.protocol.kind,
            "rho": float(gains.rho),
            "gains": gains_doc,
        },
        "sim": {
            "dt": float(scenario.dt),
            "horizon": float(scenario.horizon),
            "record_every": int(scenario.record_every),
            "x_r0": [float(v) for v in scenario.x_r0],
            "x0": _matrix_doc(scenario.x0),
        },
        "analysis": {
            "tol": float(scenario.tol),
            "window": float(scenario.window),
        },
    }
    if scenario.seed is not None:
        doc["sim"]["seed"] = int(scenario.seed)
    return doc
