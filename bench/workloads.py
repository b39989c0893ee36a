"""The benchmark's two workloads: what each command is, and its inputs.

Every workload is one ``satsync`` command line. Its inputs are made here
from the workload seed: the scenario document below is a copy of a
bundled one, embedded so that editing ``scenarios/`` cannot change what
the benchmark measures, and the seed is added to each of its seeds.
Seed 0 reproduces the bundled commands exactly, and the reference
verdicts below were captured from it.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# tiny variants keep every command's shape but shrink its horizon (and, on
# scale-n, its sizes) so that the self-test finishes in seconds; 5 s is the
# shortest horizon the bundled 5 s convergence windows allow
_TINY_HORIZON = "5"

_RANDOM_NET = {
    "name": "random-observer-net",
    "model": {"preset": "example2"},
    "graph": {"generate": {"kind": "random", "n": 8, "roots": [1, 4], "seed": 11}},
    # the example2 preset's seed, spelled out so that the workload seed can
    # move it; sweeps seed their random graphs and starts from it
    "sim": {"horizon": 60.0, "seed": 1},
}

_EXAMPLE2_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int
    # every case must build the same controller (scale-free sweeps)
    one_controller: bool
    # (seed, input directory, tiny) -> CLI arguments, without --out
    make_argv: Callable[[int, str, bool], list]


def _write_doc(doc, input_dir, name):
    os.makedirs(input_dir, exist_ok=True)
    path = os.path.join(input_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _reproduce_ex2(seed, input_dir, tiny):
    argv = ["reproduce", "example2", "--dt", "0.01", "--seed", str(_EXAMPLE2_SEED + seed)]
    if tiny:
        argv += ["--horizon", _TINY_HORIZON]
    return argv


def _scale_n(seed, input_dir, tiny):
    doc = copy.deepcopy(_RANDOM_NET)
    doc["sim"]["seed"] += seed
    doc["graph"]["generate"]["seed"] += seed
    path = _write_doc(doc, input_dir, f"scale-n-s{seed}.json")
    if tiny:
        return ["sweep", "--scenario", path, "--n", "4,6,8,10", "--dt", "0.01",
                "--horizon", _TINY_HORIZON]
    return ["sweep", "--scenario", path, "--n", "25,50,100,150", "--dt", "0.01", "--horizon", "8"]


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce-ex2", cases=2, one_controller=False, make_argv=_reproduce_ex2),
        Workload("scale-n", cases=4, one_controller=True, make_argv=_scale_n),
    )
}

# Verdicts at DEFAULT_SEED: run name -> (converged, convergence_time,
# final_max_error). Convergence is compared exactly; the final error to a
# relative 1e-6, loose enough for reordered floating-point sums and tight
# enough to catch any change to the dynamics or the integrator.
REFERENCES = {
    "reproduce-ex2": {
        "example2-net3": (True, 36.71, 0.00012739406092300657),
        "example2-net10": (True, 40.4, 0.00025405079589291697),
    },
    # horizon 8 s is too short to converge at these sizes; the verdict
    # is still pinned, and the final error with it
    "scale-n": {
        "random-observer-net-n25": (False, None, 9.840944489632543),
        "random-observer-net-n50": (False, None, 10.045950785757226),
        "random-observer-net-n100": (False, None, 11.131547537272656),
        "random-observer-net-n150": (False, None, 12.20032454634168),
    },
}
