"""Closed-form detection probabilities and Bell quantities.

One general set of forms carries every closed-form probability: each
station has its own strength alpha1_sq, alpha2_sq and oscillator phase
phi1, phi2, and the angles are free. Vectorized over numpy arrays:

    P(-1,-1|x,y) = 1/2 e^{-alpha1^2-alpha2^2}
                   |i alpha1 e^{i phi1} cos(x/2) sin(y/2)
                    - alpha2 e^{i phi2} sin(x/2) cos(y/2)|^2
    P_A(-1|x)    = 1/2 e^{-alpha1^2} (alpha1^2 cos^2(x/2) + sin^2(x/2))
    P_B(-1|y)    = 1/2 e^{-alpha2^2} (alpha2^2 cos^2(y/2) + sin^2(y/2))

`probs_general` returns the three probabilities of one setting pair, in the
order detection.favorable_probs reads them off the brute-force network;
`ch_chsh_general` assembles CH and CHSH of four setting pairs. Together
with the truncated Fock numerics they are the two independent routes to
every quantity, checked against each other by the verify command and the
test suite.

Beside them live the paper's printed expressions, kept as the objects the
verify command tests: the expanded `ch_closed` and `chsh_closed` of the
standard quadruple (one strength alpha_sq, phase difference dphi, second
settings pi/2 off), and `local_prob_printed_variant`, the local
probability with the printed e^{-2 alpha_sq} exponent. That exponent is
inconsistent with the joint probability and the assembled CH form; the
brute-force oracle adjudicates between it and the e^{-alpha_sq} of
P_A above, and the verify command records the decision.

Convention note: the phase difference dphi of the printed forms equals
phi2 - phi1 of the oscillator phases (pinned by the reflection-phase
convention in the optics module; the verify report records this choice).
"""

from __future__ import annotations

import math
import typing

import numpy as np

# Wire-format key/value used in reports for the adjudicated local-probability
# exponent (see module docstring).
LOCAL_EXPONENT_DECISION_KEY = "eq10_exponent_decision"
LOCAL_EXPONENT_CORRECTED = "e^{-alpha^2}"
LOCAL_EXPONENT_PRINTED = "e^{-2alpha^2}"


class _PointFields(typing.NamedTuple):
    xi: float
    eta: float
    dphi: float
    alpha_sq: float


class ClosedFormPoint(_PointFields):
    """One evaluation point of the printed forms ch_closed and chsh_closed:
    an immutable, hashable (xi, eta, dphi, alpha_sq) tuple, refused unless
    every field is finite and alpha_sq >= 0. A plain tuple subclass rather
    than a dataclass, because the figure grid builds one per cell."""

    __slots__ = ()

    def __new__(cls, xi: float, eta: float, dphi: float, alpha_sq: float):
        if not (math.isfinite(xi) and math.isfinite(eta)
                and math.isfinite(dphi) and math.isfinite(alpha_sq)):
            # name the first field that is not finite
            for name, value in zip(cls._fields, (xi, eta, dphi, alpha_sq)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
        if alpha_sq < 0:
            raise ValueError("alpha_sq must be >= 0")
        return tuple.__new__(cls, (xi, eta, dphi, alpha_sq))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too
        return cls(*iterable)


def local_prob_printed_variant(x: float, alpha_sq: float) -> float:
    """The rejected e^{-2 alpha_sq} local-probability variant, retained only
    so the erratum adjudication can quantify the discrepancy."""
    return 0.5 * math.exp(-2.0 * alpha_sq) * (
        alpha_sq * math.cos(x / 2.0) ** 2 + math.sin(x / 2.0) ** 2
    )


def ch_closed(p: ClosedFormPoint) -> float:
    """CH value of the standard settings quadruple, in closed form.

    The quadruple is (xi, eta), (xi+pi/2, eta), (xi, eta+pi/2),
    (xi+pi/2, eta+pi/2) with signs +, +, -, + minus the two local terms
    P(-1|xi+pi/2) and P(-1|eta).
    """
    a2 = p.alpha_sq
    ea2 = math.exp(a2)
    return 0.25 * math.exp(-2.0 * a2) * (
        a2 * (1.0 + math.sin(p.dphi))
        * (math.sin(p.xi - p.eta) - math.cos(p.xi - p.eta))
        + ea2 * (1.0 - a2) * (math.cos(p.eta) - math.sin(p.xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


def chsh_closed(p: ClosedFormPoint) -> float:
    """CHSH value of the standard quadruple, in expanded closed form."""
    a2 = p.alpha_sq
    ea2 = math.exp(a2)
    return 2.0 + math.exp(-2.0 * a2) * (
        a2 * (1.0 + math.sin(p.dphi))
        * (math.sin(p.xi - p.eta) - math.cos(p.xi - p.eta))
        + ea2 * (1.0 - a2) * (math.cos(p.eta) - math.sin(p.xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


def _joint_prob(alice, bob, damping):
    """General P(-1,-1|x,y) from each station's (alpha e^{i phi} cos(angle/2),
    sin(angle/2)) pair; damping is e^{-alpha1^2-alpha2^2}."""
    amp = 1j * alice[0] * bob[1] - alice[1] * bob[0]
    return 0.5 * damping * np.abs(amp) ** 2


def _local_prob(station, alpha_sq):
    """General P(-1|x) of one station from the same pair."""
    return 0.5 * np.exp(-alpha_sq) * (np.abs(station[0]) ** 2 + station[1] ** 2)


def _station(lo, angle):
    """(lo cos(angle/2), sin(angle/2)) of one setting, lo = alpha e^{i phi}."""
    half = np.multiply(0.5, angle)
    return lo * np.cos(half), np.sin(half)


def _drives(alpha1_sq, alpha2_sq, phi1, phi2):
    """Both strengths as float arrays, refused unless finite and >= 0, and
    each station's oscillator amplitude alpha e^{i phi}."""
    alpha1_sq = np.asarray(alpha1_sq, dtype=float)
    alpha2_sq = np.asarray(alpha2_sq, dtype=float)
    for name, value in (("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq)):
        if not np.all(np.isfinite(value) & (value >= 0.0)):
            raise ValueError(f"{name} must be finite and >= 0")
    lo1 = np.sqrt(alpha1_sq) * np.exp(1j * np.asarray(phi1))
    lo2 = np.sqrt(alpha2_sq) * np.exp(1j * np.asarray(phi2))
    return alpha1_sq, alpha2_sq, lo1, lo2


def probs_general(alpha1_sq, alpha2_sq, phi1, phi2, x, y):
    """(P_A(-1|x), P_B(-1|y), P(-1,-1|x,y)) of the setting pair (x, y) at
    independent station strengths and phases, in closed form: the triple,
    in the order, that detection.favorable_probs reads off the brute-force
    network. Arguments broadcast as in ch_chsh_general."""
    alpha1_sq, alpha2_sq, lo1, lo2 = _drives(alpha1_sq, alpha2_sq, phi1, phi2)
    alice, bob = _station(lo1, x), _station(lo2, y)
    return (_local_prob(alice, alpha1_sq), _local_prob(bob, alpha2_sq),
            _joint_prob(alice, bob, np.exp(-alpha1_sq - alpha2_sq)))


def ch_chsh_general(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH and CHSH of the setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) at independent station strengths and phases, in closed form.

    CH = P(xi,eta) + P(xi2,eta) - P(xi,eta2) + P(xi2,eta2) - P_A(xi2)
    - P_B(eta), the quadruple and marginals bell.evaluate_settings uses,
    and chsh = 2 + 4 ch. Arguments broadcast as numpy arrays; scalars give
    0-d arrays.
    """
    alpha1_sq, alpha2_sq, lo1, lo2 = _drives(alpha1_sq, alpha2_sq, phi1, phi2)
    alice, alice2 = _station(lo1, xi), _station(lo1, xi2)
    bob, bob2 = _station(lo2, eta), _station(lo2, eta2)
    damping = np.exp(-alpha1_sq - alpha2_sq)
    ch = (_joint_prob(alice, bob, damping) + _joint_prob(alice2, bob, damping)
          - _joint_prob(alice, bob2, damping) + _joint_prob(alice2, bob2, damping)
          - _local_prob(alice2, alpha1_sq) - _local_prob(bob, alpha2_sq))
    return ch, 2.0 + 4.0 * ch
