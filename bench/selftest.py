"""Fast self-test of the benchmark, on tiny horizons.

    python3 bench/selftest.py

Checks three things, in about fifteen seconds: every workload runs, traced
and untraced, and passes its correctness gate; each run emits exactly
the metrics ``BENCHMARK.json`` names, with their units; and a
deliberately wrong reference verdict is counted as a failed run.
Exits with 1 and names each problem when a check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, WORK, measure, report, summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SELFTEST_WORK = os.path.join(WORK, "selftest")


def _run(workload, trace, references=None):
    record = measure(workload, DEFAULT_SEED, 0.1, trace, tiny=True, setup_probes=1,
                     references=references or {}, work=SELFTEST_WORK)
    with contextlib.redirect_stdout(io.StringIO()):
        result = report(record, {})
    return record, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json and workloads.py list different workloads")

    for workload in WORKLOADS.values():
        for trace in (False, True):
            label = f"{workload.name} trace={int(trace)}"
            record, result = _run(workload, trace)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed runs: {record['reasons']}")
            if result["attempted"] != workload.cases * len(record["reps"]):
                problems.append(f"{label}: {result['attempted']} attempted runs over {len(record['reps'])} repetitions")
            if units != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(units.items())} differ from BENCHMARK.json")
            if trace and workload.name == "scale-n" and len(summarize(record)[3]) != 4:
                problems.append(f"{label}: no per-size series for four sizes")
            print(f"{label}: {len(record['reps'])} repetitions, {len(units)} metrics")

    # a wrong reference: the tiny reproduction does not converge
    wrong = {"reproduce-ex2": {"example2-net3": (True, 1.0, 1.0)}}
    record, result = _run(WORKLOADS["reproduce-ex2"], False, references=wrong)
    if result["correct"] or result["failed"] < 1:
        problems.append(f"a wrong reference verdict was not counted: {result}")
    print(f"wrong reference: {result['failed']} of {result['attempted']} runs failed")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
