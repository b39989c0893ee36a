"""Bundled demonstration setups: two tuned models and two networks.

``example1`` is a two-state chained integrator with scalar input,
measured through its position, closed by the observer-based
integrator-chain protocol at unit loop gain. ``example2`` is a
seven-state model mixing two integrator chains, a single integrator,
and an undamped oscillator, measured through four outputs and closed by
the observer-based mixed protocol. Both carry fixed feedback and
observer gains that pass every verification check, and both default to
the three-node path network; the ten-node branched network exercises
the same controllers unchanged.

Presets are plain scenario documents, so the command line and the test
suite resolve them through the exact parsing path a user file takes.
"""

from __future__ import annotations

import copy

from .errors import ValidationError

__all__ = ["GRAPH_A", "GRAPH_B", "preset_names", "preset_scenario"]

# Three nodes in a line, information flowing 1 -> 2 -> 3, rooted at 1.
GRAPH_A = {
    "n": 3,
    "edges": [
        {"from": 1, "to": 2},
        {"from": 2, "to": 3},
    ],
    "roots": [1],
}

# Ten nodes: a seven-node line with three grafted branches, rooted at 1.
GRAPH_B = {
    "n": 10,
    "edges": [
        {"from": 1, "to": 2},
        {"from": 2, "to": 3},
        {"from": 3, "to": 4},
        {"from": 4, "to": 5},
        {"from": 5, "to": 6},
        {"from": 6, "to": 7},
        {"from": 3, "to": 8},
        {"from": 8, "to": 9},
        {"from": 5, "to": 10},
    ],
    "roots": [1],
}

_EXAMPLE1_A = [[0, 1], [0, 0]]
_EXAMPLE1_B = [[0], [1]]
_EXAMPLE1_C = [[1, 0]]
_EXAMPLE1_K = [[-10, -2]]
_EXAMPLE1_F = [[1], [2]]

_EXAMPLE2_A = [
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, -1, 0],
]
_EXAMPLE2_B = [
    [0, 1, 3],
    [0, 0, 5],
    [1, 2, 4],
    [0, 1, 6],
    [0, 0, 1],
    [1, 1, 0],
    [1, 0, 1],
]
_EXAMPLE2_C = [
    [1, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 1],
]
_EXAMPLE2_F = [
    [0.55, 6.81, 0.73, -0.42],
    [7.97, -7.41, 1.30, -8.30],
    [0.57, 10, 2.97, 0.37],
    [11.14, -10.32, 5.06, -11.24],
    [-5.92, -0.92, 3.66, 7.89],
    [-7.01, 1.98, -14.49, 8.53],
    [1.35, -0.27, 8.48, -1.52],
]
_EXAMPLE2_K = [
    [-1, 0, -4, 6, -22, -1, 1],
    [-2, -1, -3, -2, 18, 0, 1],
    [-4, -6, -5, -3, -61, -1, 0],
]

# the dynamics above are already in chain/single/oscillator block order, and
# _EXAMPLE2_K was designed in exactly those coordinates -- pin the identity
# transformation so verification does not rebuild a permuted basis
_EXAMPLE2_GAMMA_X = [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)]

_PRESETS = {
    "example1": {
        "name": "example1",
        "model": {"a": _EXAMPLE1_A, "b": _EXAMPLE1_B, "c": _EXAMPLE1_C},
        "graph": GRAPH_A,
        "protocol": {
            "kind": "P4",
            "rho": 1.0,
            "gains": {"k": _EXAMPLE1_K, "f": _EXAMPLE1_F},
        },
        "sim": {
            "dt": 0.001,
            "horizon": 30.0,
            "seed": 1,
            "ic_scale": 5.0,
            "record_every": 1,
        },
        "analysis": {"tol": 0.01, "window": 5.0},
    },
    "example2": {
        "name": "example2",
        "model": {"a": _EXAMPLE2_A, "b": _EXAMPLE2_B, "c": _EXAMPLE2_C},
        "graph": GRAPH_A,
        "protocol": {
            "kind": "P6",
            "rho": 1.0,
            "gains": {"k": _EXAMPLE2_K, "f": _EXAMPLE2_F, "gamma_x": _EXAMPLE2_GAMMA_X},
        },
        "sim": {
            "dt": 0.001,
            "horizon": 60.0,
            "seed": 1,
            "ic_scale": 0.5,
            "record_every": 1,
        },
        "analysis": {"tol": 0.01, "window": 5.0},
    },
}


def preset_names():
    return tuple(sorted(_PRESETS))


def preset_scenario(name):
    """A deep copy of the named preset's scenario document."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r} (available: {', '.join(preset_names())})"
        )
    return copy.deepcopy(_PRESETS[name])

