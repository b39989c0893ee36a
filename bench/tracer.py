"""In-memory spans around calls into satsync's modules, and their self times.

The tracer never edits the program. It replaces names in the modules
that look them up (``satsync.cli.sync_metrics`` and
``satsync.analysis.sync_metrics`` are two lookups of one function) with
wrappers that record a span: name, start, end, parent and run id. Two
functions run a million times per repetition, the right-hand side and
the saturation, so they get no spans: the right-hand side records its
duration into an array that belongs to the enclosing integrator span,
and the saturation is only counted.

A span's self time is its duration less that of its child spans, so the
self times of one repetition add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array

# (module that looks the name up, name, span name)
TARGETS = (
    ("satsync.cli", "parse_scenario_doc", "scenario.parse"),
    ("satsync.cli", "build_scenario", "scenario.build"),
    ("satsync.scenario", "generate_graph", "graphs.generate"),
    ("satsync.scenario", "parse_graph", "graphs.generate"),
    ("satsync.scenario", "load_graph", "graphs.generate"),
    ("satsync.analysis", "generate_graph", "graphs.generate"),
    ("satsync.cli", "verify_gains", "gains.verify"),
    ("satsync.analysis", "verify_gains", "gains.verify"),
    ("satsync.protocols", "verify_gains", "gains.verify"),
    ("satsync.scenario", "build_protocol", "protocols.build"),
    ("satsync.cli", "build_protocol", "protocols.build"),
    ("satsync.analysis", "build_protocol", "protocols.build"),
    ("satsync.cli", "simulate", "simulation.simulate"),
    ("satsync.analysis", "simulate", "simulation.simulate"),
    ("satsync.simulation", "assemble", "simulation.assemble"),
    ("satsync.simulation", "integrate", "simulation.integrate"),
    ("satsync.simulation", "rk4", "simulation.rk4"),
    ("satsync.analysis", "export_trajectory", "simulation.export"),
    ("satsync.cli", "sync_metrics", "analysis.sync_metrics"),
    ("satsync.analysis", "sync_metrics", "analysis.sync_metrics"),
    ("satsync.cli", "export_report", "analysis.summary"),
)

ROOT_SPAN = "cli.main"

# span name -> the per-layer metric its self time is reported under
LAYER_OF = {
    ROOT_SPAN: "cli.self_s",
    "scenario.parse": "scenario.parse_ms",
    "scenario.build": "scenario.build_ms",
    "graphs.generate": "graphs.generate_ms",
    "gains.verify": "gains.verify_ms",
    "protocols.build": "protocols.build_ms",
    "simulation.simulate": "simulation.integrate_s",
    "simulation.assemble": "simulation.assemble_ms",
    "simulation.integrate": "simulation.integrate_s",
    "simulation.rk4": "simulation.integrate_s",
    "simulation.export": "simulation.export_s",
    "analysis.sync_metrics": "analysis.sync_metrics_ms",
    "analysis.summary": "analysis.summary_ms",
}

_MB = 1024.0 * 1024.0


def _nbytes(obj):
    """Bytes held by the arrays (dense or sparse) among an object's fields."""
    total = 0
    for value in vars(obj).values():
        if hasattr(value, "indptr"):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        elif hasattr(value, "nbytes"):
            total += value.nbytes
    return total


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _assemble_extra(args, kwargs, out):
    return {"operator_bytes": _nbytes(out)}


def _integrate_extra(args, kwargs, out):
    loop = _arg(args, kwargs, 0, "loop")
    return {"n": loop.scenario.graph.n, "record_bytes": _nbytes(out)}


def _rk4_extra(args, kwargs, out):
    return {"steps": int(_arg(args, kwargs, 3, "steps"))}


def _export_extra(args, kwargs, out):
    record = _arg(args, kwargs, 0, "record")
    path = _arg(args, kwargs, 1, "path")
    return {"rows": int(record.x.shape[0] * record.x.shape[1]), "bytes": os.path.getsize(path)}


def _sync_metrics_extra(args, kwargs, out):
    return {"n": int(_arg(args, kwargs, 0, "traj").x.shape[1])}


def _summary_extra(args, kwargs, out):
    return {"bytes": os.path.getsize(os.path.join(_arg(args, kwargs, 1, "path"), "summary.json"))}


EXTRAS = {
    "simulation.assemble": _assemble_extra,
    "simulation.integrate": _integrate_extra,
    "simulation.rk4": _rk4_extra,
    "simulation.export": _export_extra,
    "analysis.sync_metrics": _sync_metrics_extra,
    "analysis.summary": _summary_extra,
}


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent index, run id]
        self.extras = {}  # span index -> computed sizes and counts
        self.rhs = {}  # rk4 span index -> right-hand-side durations (ns)
        self.saturate_calls = 0
        self.missing = []
        self._stack = []
        self._rhs_sink = array("q")

    def wrap(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        extra = EXTRAS.get(name)
        clock = time.perf_counter_ns
        is_rk4 = name == "simulation.rk4"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, run_id])
            stack.append(index)
            if is_rk4:
                outer_sink = self._rhs_sink
                self._rhs_sink = self.rhs[index] = array("q")
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if is_rk4:
                    self._rhs_sink = outer_sink
            if extra is not None:
                # a changed signature must not break the traced program
                try:
                    self.extras[index] = extra(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    self.extras[index] = {"error": repr(exc)}
            return out

        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span, getattr(module, attr)))
        simulation = importlib.import_module("satsync.simulation")
        self._install_hot(simulation)

    def _install_hot(self, simulation):
        clock = time.perf_counter_ns
        tracer = self
        loop_cls = getattr(simulation, "ClosedLoop", None)
        if loop_cls is not None and hasattr(loop_cls, "vector_field"):
            field = loop_cls.vector_field

            def vector_field(*args, **kwargs):
                start = clock()
                out = field(*args, **kwargs)
                tracer._rhs_sink.append(clock() - start)
                return out

            loop_cls.vector_field = vector_field
        else:
            self.missing.append("satsync.simulation.ClosedLoop.vector_field")
        if hasattr(simulation, "saturate"):
            clip = simulation.saturate

            def saturate(*args, **kwargs):
                tracer.saturate_calls += 1
                return clip(*args, **kwargs)

            simulation.saturate = saturate
        else:
            self.missing.append("satsync.simulation.saturate")

    def run(self, fn, *args):
        """Call ``fn`` under the root span."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def dump(self, path):
        """Write the spans and the right-hand-side statistics as JSON."""
        import numpy as np

        def stats(samples):
            if not len(samples):
                return {"calls": 0, "p50_us": 0.0, "p99_us": 0.0}
            arr = np.frombuffer(samples, dtype=np.int64)
            p50, p99 = np.percentile(arr, [50, 99])
            return {
                "calls": int(arr.size),
                "p50_us": float(p50) / 1e3,
                "p99_us": float(p99) / 1e3,
            }

        by_n = {}
        pooled = array("q")
        for index, samples in self.rhs.items():
            by_n.setdefault(self._case_size(index), array("q")).extend(samples)
            pooled.extend(samples)
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "extras": {str(k): v for k, v in self.extras.items()},
            "rhs": stats(pooled),
            "rhs_by_n": {str(n): stats(s) for n, s in by_n.items()},
            "saturate_calls": self.saturate_calls,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _case_size(self, index):
        while index >= 0:
            n = self.extras.get(index, {}).get("n")
            if n is not None:
                return n
            index = self.spans[index][3]
        return None


def self_times(spans):
    """Per-span self time in seconds: duration less the children's."""
    own = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def layer_metrics(doc, wall_s):
    """Per-layer metrics of one traced repetition from its dumped spans.

    ``wall_s`` is the repetition's wall time as the parent measured it;
    what lies outside the root span (interpreter start, imports, exit)
    is ``cli.startup_s``, so the self times add up to ``wall_s``.
    """
    spans = doc["spans"]
    extras = {int(k): v for k, v in doc["extras"].items()}
    own = self_times(spans)
    m = {key: 0.0 for key in set(LAYER_OF.values())}
    root = 0.0
    for (name, start, end, parent, _), t in zip(spans, own):
        m[LAYER_OF[name]] += t
        if name == ROOT_SPAN:
            root += (end - start) / 1e9
    for key in list(m):
        if key.endswith("_ms"):
            m[key] *= 1e3

    def spans_named(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def extra_values(name, field):
        values = (extras.get(i, {}).get(field) for i, _ in spans_named(name))
        return [v for v in values if v is not None]

    rk4 = spans_named("simulation.rk4")
    rk4_s = sum((s[2] - s[1]) / 1e9 for _, s in rk4)
    steps = sum(extra_values("simulation.rk4", "steps"))
    integrate_s = sum((s[2] - s[1]) / 1e9 for _, s in spans_named("simulation.integrate"))
    rhs = doc["rhs"]
    m.update(
        {
            "cli.startup_s": wall_s - root,
            "gains.verify_calls": len(spans_named("gains.verify")),
            "simulation.operator_mb": max(extra_values("simulation.assemble", "operator_bytes"), default=0) / _MB,
            "simulation.steps": steps,
            "simulation.step_us": rk4_s / steps * 1e6 if steps else 0.0,
            "simulation.rhs_calls": rhs["calls"],
            "simulation.rhs_us_p50": rhs["p50_us"],
            "simulation.rhs_us_p99": rhs["p99_us"],
            "simulation.unpack_ms": (integrate_s - rk4_s) * 1e3,
            "simulation.record_mb": max(extra_values("simulation.integrate", "record_bytes"), default=0) / _MB,
            "simulation.export_mb": sum(extra_values("simulation.export", "bytes")) / _MB,
            "simulation.export_rows": sum(extra_values("simulation.export", "rows")),
            "agents.saturate_calls": doc["saturate_calls"],
            "analysis.summary_mb": sum(extra_values("analysis.summary", "bytes")) / _MB,
        }
    )
    return m


def size_series(doc):
    """Per network size: integration time, right-hand-side stats, sync_metrics time."""
    spans = doc["spans"]
    extras = {int(k): v for k, v in doc["extras"].items()}
    own = self_times(spans)
    series = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        n = extras.get(i, {}).get("n")
        if n is None:
            continue
        row = series.setdefault(f"n{n}", {"simulation.integrate_s": 0.0, "analysis.sync_metrics_ms": 0.0})
        if name == "simulation.integrate":
            row["simulation.integrate_s"] += (end - start) / 1e9
        elif name == "analysis.sync_metrics":
            row["analysis.sync_metrics_ms"] += own[i] * 1e3
    for n, stats in doc["rhs_by_n"].items():
        row = series.setdefault(f"n{n}", {"simulation.integrate_s": 0.0, "analysis.sync_metrics_ms": 0.0})
        row.update(
            {
                "simulation.rhs_calls": stats["calls"],
                "simulation.rhs_us_p50": stats["p50_us"],
                "simulation.rhs_us_p99": stats["p99_us"],
            }
        )
    return series
