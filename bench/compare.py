"""Spread of one result set, or a parent-against-change comparison of two.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file ``run.py`` appends to; only untraced,
full-size runs are read. For each workload and end-to-end metric one row
gives the median and quartiles over the runs, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.

With two sets, runs are paired by seed (by order where seeds do not
match up) and each row adds the change's median and quartiles, the share
of pairs the change won (ties count for neither side) and a verdict:

- ``unresolved``: the spread of either set is wider than the bound, and
  not every run of the change is better than every run of the parent;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
- ``within bound`` otherwise.

The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(path):
    """workload -> list of (seed, {metric: value}) from untraced full-size runs."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] or rec.get("tiny"):
                continue
            values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="exclusive"))


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _pairs(parent, change):
    by_seed = {seed: v for seed, v in parent}
    matched = [(by_seed[seed], v) for seed, v in change if seed in by_seed]
    if len(matched) == min(len(parent), len(change)):
        return matched
    return list(zip((v for _, v in parent), (v for _, v in change)))


def verdict(metric, pairs):
    """(share of pairs the change won, verdict) over (parent, change) pairs."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, p2, p3 = quartiles(parent)
    c2 = quartiles(change)[1]
    won = sum(better(c, p) for p, c in pairs) / len(pairs)
    worst_change = max(change) if lower else min(change)
    best_parent = min(parent) if lower else max(parent)
    worse_by = (c2 - p2) / p2 if lower else (p2 - c2) / p2
    if max(spread(parent), spread(change)) > metric["bound"] and not better(worst_change, best_parent):
        return won, "unresolved"
    if worse_by > metric["bound"]:
        return won, "regressed"
    if won >= 0.9 and worse_by < 0 and abs(c2 - p2) > p3 - p1:
        return won, "improved"
    return won, "within bound"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    sets = [load_set(path) for path in argv]
    regressed = False
    for workload in sorted(sets[0]):
        for name, metric in bounds.items():
            parent = [v[name] for _, v in sets[0][workload] if name in v]
            if not parent:
                continue
            q1, q2, q3 = quartiles(parent)
            row = (f"{workload:14} {name:14} n={len(parent):<3} median {q2:.6g} [{q1:.6g}, {q3:.6g}] "
                   f"{metric['unit']}  spread {spread(parent):.3f} of bound {metric['bound']}")
            if len(sets) == 2 and workload in sets[1]:
                pairs = [(p[name], c[name]) for p, c in _pairs(sets[0][workload], sets[1][workload])
                         if name in p and name in c]
                if pairs:
                    c1, c2, c3 = quartiles([c for _, c in pairs])
                    won, outcome = verdict(metric, pairs)
                    regressed |= outcome == "regressed"
                    row += f"  | change {c2:.6g} [{c1:.6g}, {c3:.6g}]  won {won:.0%}  {outcome}"
            print(row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
