"""Directed communication graphs, their Laplacians, and the root-set
condition that makes the expanded Laplacian invertible.

Conventions used throughout:

* ``weights[i, j] > 0`` means an edge from node j to node i: information
  flows j -> i, and agent i uses agent j's signals.
* The Laplacian has ``L[i, i] = sum_k weights[i, k]`` and
  ``L[i, j] = -weights[i, j]`` off the diagonal, so every row sums to 0.
* ``root_flags[i] = 1`` marks an agent that additionally measures its own
  output error relative to the reference exosystem. The expanded
  Laplacian is ``Lbar = L + diag(root_flags)``.
* Node indices are 0-based in memory and 1-based in files, matching the
  rest of the package's user-facing output.

A graph is admissible when every node can be reached from some root over
directed edges. That reachability condition is exactly what puts every
eigenvalue of ``Lbar`` in the open right half plane.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "CommGraph",
    "LaplacianPair",
    "laplacian",
    "check_rootset",
    "generate_graph",
    "parse_graph",
    "serialize_graph",
    "load_graph",
]


@dataclass
class CommGraph:
    """Weighted directed graph plus the set of root agents."""

    n: int
    weights: np.ndarray
    root_flags: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.root_flags = np.asarray(self.root_flags, dtype=int)
        if self.n < 1:
            raise ValidationError(f"graph needs at least one node, got n={self.n}")
        if self.weights.shape != (self.n, self.n):
            raise ValidationError(
                f"weights must be {self.n}x{self.n}, got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights has non-finite entries")
        if np.any(self.weights < 0):
            raise ValidationError("edge weights must be nonnegative")
        if np.any(np.diag(self.weights) != 0):
            raise ValidationError("self-loops are not allowed (nonzero diagonal)")
        if self.root_flags.shape != (self.n,):
            raise ValidationError(
                f"root_flags must have length {self.n}, got {self.root_flags.shape}"
            )
        if not np.all(np.isin(self.root_flags, (0, 1))):
            raise ValidationError("root_flags entries must be 0 or 1")

    def roots(self):
        """1-based indices of the root agents."""
        return [int(i) + 1 for i in np.flatnonzero(self.root_flags)]

    def __eq__(self, other):
        if not isinstance(other, CommGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.root_flags, other.root_flags)
        )


@dataclass(frozen=True)
class LaplacianPair:
    """Laplacian L and expanded Laplacian Lbar = L + diag(root_flags)."""

    L: np.ndarray
    Lbar: np.ndarray


def laplacian(graph):
    """Build the (row-sum-zero) Laplacian and its expanded variant."""
    w = graph.weights
    L = np.diag(w.sum(axis=1)) - w
    Lbar = L + np.diag(graph.root_flags.astype(float))
    return LaplacianPair(L=L, Lbar=Lbar)


def check_rootset(graph):
    """True iff every node is reachable from some root along directed edges.

    Equivalently: the nodes can be partitioned into directed trees whose
    roots all carry a root flag. Computed by breadth-first search from
    the root set; edge j -> i exists when ``weights[i, j] > 0``.
    """
    reached = graph.root_flags.astype(bool).copy()
    queue = deque(np.flatnonzero(reached))
    w = graph.weights
    while queue:
        j = queue.popleft()
        for i in np.flatnonzero(w[:, j] > 0):
            if not reached[i]:
                reached[i] = True
                queue.append(i)
    return bool(reached.all())


def _physical_memory():
    """This machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_dense_fit(n, path):
    """Reject a graph of ``n`` nodes whose dense weights, L and Lbar (see
    ``laplacian``) would not fit in physical memory, before any of them
    is allocated; ``path`` names the field that gave ``n``, or is None
    where the caller names it."""
    memory = _physical_memory()
    if 3 * 8 * n * n > memory:
        field = "" if path is None else f"{path}: "
        raise ValidationError(
            f"{field}{n} nodes are too many for this machine: the dense weights, L and "
            f"Lbar take 24 n^2 bytes, more than its {memory / 1e9:.3g} GB of memory "
            f"(at most {math.isqrt(memory // 24)} nodes fit)"
        )


# Random edge weights are drawn from this dyadic grid in [0.5, 2]: bounded
# away from zero (keeps Lbar well conditioned) and exactly representable,
# so Laplacian row sums cancel to exactly 0 in floating point.
_WEIGHT_GRID = np.arange(8, 33) / 16.0


def generate_graph(kind, n, roots, seed=0, extra_edge_prob=0.2):
    """Generate a named graph family member, deterministically from ``seed``.

    Parameters
    ----------
    kind : str
        ``"path"`` (1 -> 2 -> ... -> n), ``"star"`` (1 -> i for all i), or
        ``"random"`` (random directed trees rooted in the root set, plus
        extra random edges, with random dyadic weights in [0.5, 2]).
    n : int
        Number of nodes.
    roots : iterable of int
        1-based root indices.
    seed : int
        Seed for the random family; ignored by path and star.
    extra_edge_prob : float
        Probability in [0, 1] of each extra edge of the random family.

    Raises
    ------
    ValidationError
        If the parameters cannot produce an admissible graph (for
        example a path whose root set misses node 1).
    """
    roots = sorted(set(int(r) for r in roots))
    if n < 1:
        raise ValidationError(f"graph needs at least one node, got n={n}")
    _require_dense_fit(n, "n")
    if not roots:
        raise ValidationError("root set must not be empty")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValidationError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob:g}")
    for r in roots:
        if not 1 <= r <= n:
            raise ValidationError(f"root index {r} outside 1..{n}")
    flags = np.zeros(n, dtype=int)
    for r in roots:
        flags[r - 1] = 1
    weights = np.zeros((n, n))
    if kind == "path":
        for i in range(1, n):
            weights[i, i - 1] = 1.0
    elif kind == "star":
        for i in range(1, n):
            weights[i, 0] = 1.0
    elif kind == "random":
        # x[rng.integers(len(x))] is the same draw from the stream as
        # rng.choice(x), at a quarter of its per-call cost.
        rng = np.random.default_rng(seed)
        grid = len(_WEIGHT_GRID)
        attached = [r - 1 for r in roots]
        for i in range(n):
            if flags[i]:
                continue
            parent = attached[rng.integers(len(attached))]
            weights[i, parent] = _WEIGHT_GRID[rng.integers(grid)]
            bisect.insort(attached, i)
        # Sprinkle extra edges; reachability is already guaranteed.
        for i in range(n):
            for j in range(n):
                if i == j or weights[i, j] > 0:
                    continue
                if rng.random() < extra_edge_prob:
                    weights[i, j] = _WEIGHT_GRID[rng.integers(grid)]
    else:
        raise ValidationError(f"unknown graph kind {kind!r}")
    graph = CommGraph(n=n, weights=weights, root_flags=flags)
    if not check_rootset(graph):
        raise ValidationError(
            f"{kind} graph with roots {roots} leaves unreachable nodes"
        )
    return graph


# the largest weight a float holds; a larger JSON integer is rejected, not overflowed
_FLOAT_MAX = float(np.finfo(float).max)


def _index(value, path, n):
    """``value`` if it is a JSON integer (never a bool) in 1..n; else rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if not 1 <= value <= n:
        raise ValidationError(f"{path}: index {value} outside 1..{n}")
    return value


def parse_graph(data, context="graph"):
    """Build a CommGraph from the dict form used in files and scenarios.

    Expected shape::

        {"n": 3, "edges": [{"from": 1, "to": 2, "weight": 1.0}, ...],
         "roots": [1]}

    Indices are 1-based JSON integers, never coerced; ``"from"`` is the
    information source. ``weight``, a positive number, defaults to 1.
    Unknown keys, bad values and a second edge between the same ordered
    pair are rejected with their field path.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{context}: expected a mapping, got {type(data).__name__}")
    allowed = {"n", "edges", "roots"}
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(unknown)}")
    for key in ("n", "edges", "roots"):
        if key not in data:
            raise ValidationError(f"{context}.{key}: missing")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"{context}.n: must be a positive integer, got {n!r}")
    _require_dense_fit(n, f"{context}.n")
    weights = np.zeros((n, n))
    if not isinstance(data["edges"], list):
        raise ValidationError(f"{context}.edges: must be a list")
    first = {}
    for k, edge in enumerate(data["edges"]):
        where = f"{context}.edges[{k}]"
        if not isinstance(edge, dict):
            raise ValidationError(f"{where}: expected a mapping")
        unknown = set(edge) - {"from", "to", "weight"}
        if unknown:
            raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
        src = _index(edge.get("from"), f"{where}.from", n)
        dst = _index(edge.get("to"), f"{where}.to", n)
        weight = edge.get("weight", 1.0)
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not 0 < weight <= _FLOAT_MAX:
            raise ValidationError(f"{where}.weight: must be a positive number, got {weight!r}")
        if src == dst:
            raise ValidationError(f"{where}: self-loop on node {src}")
        if (src, dst) in first:
            raise ValidationError(
                f"{where}: duplicate of edges[{first[src, dst]}] (from {src} to {dst})"
            )
        first[src, dst] = k
        weights[dst - 1, src - 1] = float(weight)
    if not isinstance(data["roots"], list):
        raise ValidationError(f"{context}.roots: must be a list")
    flags = np.zeros(n, dtype=int)
    for k, r in enumerate(data["roots"]):
        flags[_index(r, f"{context}.roots[{k}]", n) - 1] = 1
    return CommGraph(n=n, weights=weights, root_flags=flags)


def serialize_graph(graph):
    """Dict form of a graph; inverse of :func:`parse_graph`.

    Edges are listed in sorted (from, to) order so serialization is
    canonical and round-trips exactly.
    """
    edges = []
    for src in range(graph.n):
        for dst in range(graph.n):
            w = graph.weights[dst, src]
            if w > 0:
                edges.append({"from": src + 1, "to": dst + 1, "weight": float(w)})
    edges.sort(key=lambda e: (e["from"], e["to"]))
    return {"n": graph.n, "edges": edges, "roots": graph.roots()}


def load_graph(path):
    """Read a graph from a JSON file; parse errors carry file context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # also text not in UTF-8, or an integer of more digits than int() reads
        raise ValidationError(f"{path}: {exc}") from None
    return parse_graph(data, context=str(path))

