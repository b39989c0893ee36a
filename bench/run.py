"""Benchmark of satsync's command-line runs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one workload command (see ``workloads.py``) in a
fresh Python process, one at a time: a closed loop with one client.
BLAS threads are capped at the number of usable cores. Repetitions
repeat until the next one would end after ``--seconds``; there is always
at least one.

With ``--trace 0`` the run first times several set-up probes, fresh
interpreters that stop once the first closed loop is assembled, and then
reports the end-to-end metrics: the median wall time of a repetition,
the median set-up time, the peak RSS of a repetition and the bytes its
run directory holds. With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(medians), with the tracing overhead measured against the untraced ones.

Every repetition is checked. A run (one case of a repetition: 2 and 4
of them) fails when its verdict differs from the reference at the
default seed, when ``summary.json`` read back through
``satsync.analysis.parse_report`` disagrees with the manifest, when the
cases of a scale-n sweep do not share one controller digest, or when
the run directory differs from the first repetition's. Failed runs over
attempted runs is the ``ops_failed`` ratio.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result. Each run also appends a record, with the
environment and every repetition, to ``.bench_work/results.jsonl``,
which ``compare.py`` reads, and writes its spans to
``.bench_work/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)

from tracer import LAYER_OF, layer_metrics, size_series  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# every run must end within 180 s; no repetition starts after this
RUN_DEADLINE_S = 165.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
FINAL_ERROR_RTOL = 1e-6

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bytes_written": "bytes",
}

PER_LAYER_UNITS = {
    "scenario.parse_ms": "ms",
    "scenario.build_ms": "ms",
    "graphs.generate_ms": "ms",
    "gains.verify_ms": "ms",
    "gains.verify_calls": "count",
    "protocols.build_ms": "ms",
    "simulation.assemble_ms": "ms",
    "simulation.operator_mb": "MB",
    "simulation.integrate_s": "s",
    "simulation.steps": "count",
    "simulation.step_us": "us",
    "simulation.rhs_calls": "count",
    "simulation.rhs_us_p50": "us",
    "simulation.rhs_us_p99": "us",
    "simulation.unpack_ms": "ms",
    "simulation.record_mb": "MB",
    "simulation.export_s": "s",
    "simulation.export_mb": "MB",
    "simulation.export_rows": "count",
    "agents.saturate_calls": "count",
    "analysis.sync_metrics_ms": "ms",
    "analysis.summary_ms": "ms",
    "analysis.summary_mb": "MB",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_pct": "%",
}


# the per-layer metrics that are self times; they add up to a traced wall time
SELF_TIMES = frozenset(LAYER_OF.values()) | {"cli.startup_s"}


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


def _nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = str(_nproc())
    # the same dict and set layouts in every repetition
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Exit:
    code: int
    start_ns: int
    end_ns: int
    rss_mb: float

    @property
    def wall_s(self):
        return (self.end_ns - self.start_ns) / 1e9


def spawn(cmd, log_path, deadline):
    """Run ``cmd`` to completion; its wall time, exit code and peak RSS.

    The child is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    finished = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)

        def kill():
            if not finished.is_set():
                proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter_ns()
            finished.set()
        except BaseException:
            finished.set()
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, start, end, usage.ru_maxrss / 1024.0)


def _tail(path, lines=20):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(base, name)) for base, _, names in os.walk(path) for name in names
    )


def dir_digest(path):
    """Digest of a run directory, with the manifest reduced to its
    deterministic ``run`` section (it also holds the wall-clock time)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0")
        full = os.path.join(path, name)
        if name == "manifest.json":
            with open(full, encoding="utf-8") as fh:
                run = json.load(fh)["run"]
            digest.update(json.dumps(run, sort_keys=True).encode())
            continue
        with open(full, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


class Gate:
    """The correctness checks of one workload run; see the module docstring."""

    def __init__(self, workload, argv, seed, references):
        self.workload = workload
        self.expects_convergence = argv[0] == "reproduce"
        self.reference = references.get(workload.name, {}) if seed == DEFAULT_SEED else {}
        self.first_digest = None
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from satsync.analysis import parse_report

        self._parse_report = parse_report

    def check(self, run_dir, code):
        """(attempted, failed, reasons) for one repetition."""
        cases = self.workload.cases
        try:
            with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
                run = json.load(fh)["run"]
            results = {
                name: (r["converged"], r["convergence_time"], r["final_max_error"])
                for name, r in run["results"].items()
            }
            read_back = {
                rec.name: (rec.report.converged, rec.report.convergence_time, float(rec.report.max_error[-1]))
                for rec in self._parse_report(run_dir)
            }
            digest = dir_digest(run_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return cases, cases, [f"exit {code}, unreadable run directory: {exc!r}"]

        reasons = []
        failed = set()
        if len(results) != cases:
            reasons.append(f"{len(results)} results, expected {cases}")
        whole = []
        # reproduce fails exactly when a preset does not converge
        expected_code = 0
        if self.expects_convergence and not all(v[0] for v in results.values()):
            expected_code = 1
        if code != expected_code:
            whole.append(f"exit code {code}, expected {expected_code}")
        digests = set((run.get("sweep") or {}).values())
        if self.workload.one_controller and len(digests) != 1:
            whole.append(f"{len(digests)} distinct controller digests across sizes")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            whole.append("run directory differs from the first repetition's")
        for name, verdict in results.items():
            if read_back.get(name) != verdict:
                failed.add(name)
                reasons.append(f"{name}: summary reads back {read_back.get(name)}, manifest says {verdict}")
        for name, (converged, t_conv, final_error) in self.reference.items():
            got = results.get(name)
            ok = (
                got is not None
                and got[0] == converged
                and (got[1] == t_conv if t_conv is None or got[1] is None else abs(got[1] - t_conv) <= 1e-9)
                and (final_error is None or abs(got[2] - final_error) <= FINAL_ERROR_RTOL * abs(final_error))
            )
            if not ok:
                failed.add(name)
                reasons.append(f"{name}: verdict {got}, reference {(converged, t_conv, final_error)}")
        if whole:
            reasons.extend(whole)
            return cases, cases, reasons
        missing = max(0, cases - len(results))
        return cases, min(cases, len(failed) + missing), reasons


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_commit():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    digest = hashlib.sha256()
    for base, dirs, names in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "blas_threads": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def measure(workload, seed, seconds, trace, *, tiny=False, setup_probes=SETUP_PROBES,
            references=REFERENCES, work=WORK):
    """Run one workload for ``seconds``; the full record of the run."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    tag = f"{workload.name}-s{seed}"
    run_root = os.path.join(work, "runs", tag)
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    argv = workload.make_argv(seed, os.path.join(work, "inputs"), tiny)
    gate = Gate(workload, argv, seed, references)
    log = os.path.join(run_root, "child.log")

    setup = []
    if not trace:
        for k in range(setup_probes):
            out = os.path.join(run_root, "setup")
            cmd = [sys.executable, os.path.join(BENCH, "child.py"), "setup", "--", *argv, "--out", out]
            ex = spawn(cmd, log, deadline)
            if ex.code != 0:
                raise BenchError(f"set-up probe exited with {ex.code}:\n{_tail(log)}")
            setup.append(ex.wall_s)
            shutil.rmtree(out, ignore_errors=True)

    reps, spans, reasons = [], [], []
    attempted = failed = 0
    t0 = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        k = len(reps)
        out = os.path.join(run_root, f"rep-{k}")
        if traced:
            run_id = f"{tag}-rep{k}"
            spans_path = os.path.join(run_root, f"spans-{k}.json")
            cmd = [sys.executable, os.path.join(BENCH, "child.py"), "trace", spans_path, run_id, "--"]
        else:
            cmd = [sys.executable, "-m", "satsync.cli"]
        ex = spawn(cmd + argv + ["--out", out], log, deadline)
        rep = {"traced": traced, "wall_s": ex.wall_s, "peak_rss_mb": ex.rss_mb, "code": ex.code}
        rep["bytes_written"] = dir_bytes(out) if os.path.isdir(out) else 0
        n_att, n_fail, why = gate.check(out, ex.code)
        attempted += n_att
        failed += n_fail
        rep["failed"] = n_fail
        if why:
            reasons.extend(f"rep {k}: {r}" for r in why)
            if ex.code not in (0, 1):
                reasons.append(f"rep {k} output:\n{_tail(log)}")
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            rep["layers"] = layer_metrics(doc, ex.wall_s)
            rep["series"] = size_series(doc)
            rep["missing"] = doc["missing"]
            spans.extend(doc["spans"])
        reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)

        now = time.monotonic()
        if ex.code < 0 or now >= deadline:
            break
        next_traced = trace and len(reps) % 2 == 1
        like_next = [r["wall_s"] for r in reps if r["traced"] == next_traced] or [ex.wall_s]
        have_all = not trace or any(r["traced"] for r in reps)
        predicted = now + like_next[-1]
        if (have_all and predicted - t0 > seconds) or predicted > deadline:
            break

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "setup_s": setup,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "spans": spans,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(record):
    """End-to-end metrics (always) and per-layer metrics (traced runs)."""
    plain = [r for r in record["reps"] if not r["traced"]]
    traced = [r for r in record["reps"] if "layers" in r]
    walls = [r["wall_s"] for r in plain]
    q1, q2, q3 = quartiles(walls)
    e2e = {
        "wall_s": q2,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "bytes_written": _median([r["bytes_written"] for r in plain]),
    }
    if record["setup_s"]:
        e2e["setup_s"] = _median(record["setup_s"])
    layers, series = {}, {}
    if traced:
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_pct":
                layers[name] = _median([r["layers"][name] for r in traced])
        layers["trace.overhead_pct"] = (_median([r["wall_s"] for r in traced]) / q2 - 1.0) * 100.0
        for size in traced[0]["series"]:
            series[size] = {
                key: _median([r["series"][size][key] for r in traced]) for key in traced[0]["series"][size]
            }
    return e2e, (q1, q2, q3, len(walls)), layers, series


def report(record, env):
    """Print every metric by name with its unit; return the JSON result."""
    e2e, (q1, q2, q3, samples), layers, series = summarize(record)
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"wall_s quartiles = {q1:.6g} .. {q3:.6g} s over {samples} repetitions")
    if record["setup_s"]:
        print(f"setup_s samples = {len(record['setup_s'])}")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"ops_failed = {ratio:.6g} ratio ({record['failed']} of {record['attempted']} runs)")
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    for size, row in series.items():
        for key, value in row.items():
            print(f"{key}.{size} = {value:.6g} {PER_LAYER_UNITS[key]}")
    for rep in record["reps"]:
        if "layers" in rep:
            total = sum(v / 1e3 if k.endswith("_ms") else v for k, v in rep["layers"].items() if k in SELF_TIMES)
            print(f"# traced repetition: self times add up to {total:.6g} s of {rep['wall_s']:.6g} s wall")
    for missing in sorted({m for r in record["reps"] for m in r.get("missing", [])}):
        print(f"# not traced, absent from the program: {missing}")
    for reason in record["reasons"]:
        print(f"# FAILED {reason}")

    chosen = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()} if record["trace"] else {
        k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()
    }
    return {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "satsync", "cli.py")):
        print(f"error: no satsync sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    result = report(record, env)

    trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json")
    if record["spans"]:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                       "spans": record["spans"]}, fh)
    kept = {k: v for k, v in record.items() if k != "spans"}
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "result": result, **kept}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
