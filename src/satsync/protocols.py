"""Per-agent controller realizations for the six protocol kinds.

The kinds pair one controller structure with one agent class; the kind
alone fixes whether neighbours exchange full states or outputs only
(``gains.kind_spec``):

========  ==================  ==========  =======================
kind      agent class         exchange    controller state
========  ==================  ==========  =======================
P1        neutrally stable    full state  chi (n)
P2        neutrally stable    outputs     (xhat, chi) (2n)
P3        double integrator   full state  chi (n)
P4        double integrator   outputs     (xhat, chi) (2n)
P5        mixed               full state  chi (n)
P6        mixed               outputs     (xhat, chi) (2n)
========  ==================  ==========  =======================

``chi`` is a local synchronizer state, ``xhat`` a local observer for
the network output error. Agents exchange ``xi = chi`` (full-state
kinds) or ``xi = (chi, sat(u))`` (partial-state kinds) and consume two
diffusive signals: ``zeta_bar``, the expanded-Laplacian combination of
output errors relative to the reference, and ``zeta_hat``, the
expanded-Laplacian combination of the exchanged xi. An agent that also
sees the reference thus weighs its own xi once more: the extra ``-chi``
leak and ``+B sat(u)`` feed of a root agent are ``d_c`` applied to its
own xi.

A realization is built from the agent triple and gains alone -- no
graph data enters, which is what makes one controller serve any number
of agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import ModelClass, mixed_decompose
from .errors import SynthesisError, ValidationError
from .gains import _KINDS, kind_spec, verify_gains

__all__ = [
    "KINDS",
    "ProtocolRealization",
    "build_protocol",
    "compatible_classes",
]

KINDS = tuple(_KINDS)


def compatible_classes(kind):
    """The model classes a protocol kind accepts: the class it is
    designed for, and for the mixed kinds also the double-integrator
    class, which has the mixed structure (every chain has length two)."""
    model_class, _ = kind_spec(kind)
    if model_class is ModelClass.MIXED:
        return (ModelClass.MIXED, ModelClass.DOUBLE_INTEGRATOR)
    return (model_class,)


@dataclass(frozen=True)
class ProtocolRealization:
    """One agent's controller, in the standard observer-protocol form:

        d/dt x_c = a_c x_c + b_c sat(u) + c_c zeta_bar + d_c zeta_hat
        u        = f_c x_c
        xi       = h_c x_c            (full-state kinds)
                   (h_c x_c, sat(u))  (partial-state kinds)

    with both signals expanded-Laplacian combinations (see the module
    docstring). ``u_gain`` repeats f_c's active block (the feedback
    applied to chi) for diagnostics, ``gains`` retains what the
    realization was built from, and ``gain_report`` the audit that
    admitted them, which every run reports, on any graph.
    """

    kind: str
    controller_state_dim: int
    a_c: np.ndarray
    b_c: np.ndarray
    c_c: np.ndarray
    d_c: np.ndarray
    f_c: np.ndarray
    h_c: np.ndarray
    u_gain: np.ndarray
    gains: object
    gain_report: object

    @property
    def uses_observer(self):
        return not kind_spec(self.kind)[1]


def build_protocol(kind, model, gains):
    """Instantiate one protocol kind for an agent model and gain set.

    Verifies the gains first and refuses incompatible pairings; the
    result depends only on (kind, model, gains), never on the graph.
    """
    model_class, full_state = kind_spec(kind)
    accepted = compatible_classes(kind)
    if model.model_class not in accepted:
        names = "/".join(m.value for m in accepted)
        raise ValidationError(
            f"kind {kind} needs a {names} model, got {model.model_class.value!r}"
        )
    if full_state and not np.array_equal(model.c, np.eye(model.n)):
        raise ValidationError(f"model.c: kind {kind} exchanges full states and needs c = I")
    report = verify_gains(model, gains, kind=kind)
    if not report.passed:
        failed = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise SynthesisError(f"gains fail verification for {kind}: {failed}")

    n, m, q_out = model.n, model.m, model.q_out
    if model_class is ModelClass.NEUTRALLY_STABLE:
        u_gain = -gains.rho * model.b.T @ gains.p
    elif model_class is ModelClass.DOUBLE_INTEGRATOR:
        u_gain = gains.rho * gains.k
    else:
        decomp = mixed_decompose(model.a, model.b, model.c, gamma_x=gains.gamma_x)
        u_gain = gains.rho * gains.k @ decomp.gamma_x

    if full_state:
        a_c = model.a.copy()
        b_c = model.b.copy()
        c_c = np.eye(n)
        d_c = -np.eye(n)
        f_c = u_gain
        h_c = np.eye(n)
        n_c = n
    else:
        a_c = np.zeros((2 * n, 2 * n))
        a_c[:n, :n] = model.a - gains.f @ model.c
        a_c[n:, :n] = np.eye(n)
        a_c[n:, n:] = model.a
        b_c = np.zeros((2 * n, m))
        b_c[n:, :] = model.b
        c_c = np.zeros((2 * n, q_out))
        c_c[:n, :] = gains.f
        d_c = np.zeros((2 * n, n + m))
        d_c[:n, n:] = model.b
        d_c[n:, :n] = -np.eye(n)
        f_c = np.zeros((m, 2 * n))
        f_c[:, n:] = u_gain
        h_c = np.zeros((n, 2 * n))
        h_c[:, n:] = np.eye(n)
        n_c = 2 * n

    return ProtocolRealization(
        kind=kind,
        controller_state_dim=n_c,
        a_c=a_c,
        b_c=b_c,
        c_c=c_c,
        d_c=d_c,
        f_c=f_c,
        h_c=h_c,
        u_gain=u_gain,
        gains=gains,
        gain_report=report,
    )
