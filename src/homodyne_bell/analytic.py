"""Closed-form detection probabilities and Bell quantities.

Two sets of forms live here. The symmetric ones (`joint_prob_closed`,
`local_prob_closed`, `ch_closed`, `chsh_closed`) take one strength alpha_sq,
a phase difference dphi and the standard quadruple (second settings pi/2
off). The general ones (`ch_chsh_general`) take each station's strength
alpha1_sq, alpha2_sq, both oscillator phases phi1, phi2 and four free
angles, vectorized over numpy arrays:

    P(-1,-1|x,y) = 1/2 e^{-alpha1^2-alpha2^2}
                   |i alpha1 e^{i phi1} cos(x/2) sin(y/2)
                    - alpha2 e^{i phi2} sin(x/2) cos(y/2)|^2
    P_A(-1|x)    = 1/2 e^{-alpha1^2} (alpha1^2 cos^2(x/2) + sin^2(x/2))
    P_B(-1|y)    = 1/2 e^{-alpha2^2} (alpha2^2 cos^2(y/2) + sin^2(y/2))

At alpha1 = alpha2 the joint form expands to the symmetric one with
dphi = phi2 - phi1, and the local forms are `local_prob_closed`, so the
general forms reduce to the symmetric ones on the standard quadruple.

These expressions are the second, independent route to every quantity the
brute-force Fock numerics produce; the two are cross-validated against each
other by the verify command and the test suite.

Convention note: the phase-difference argument dphi of these forms equals
phi2 - phi1 of the numeric network's oscillator phases (pinned by the
reflection-phase convention in the optics module; the verify report records
this choice).

Exponent note: the local probability here carries e^{-alpha_sq}. The
e^{-2 alpha_sq} variant (kept below as `local_prob_printed_variant`) is
inconsistent with the joint probability and the assembled CH form; the
brute-force oracle adjudicates between the two and the verify command
records the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0

# Wire-format key/value used in reports for the adjudicated local-probability
# exponent (see module docstring).
LOCAL_EXPONENT_DECISION_KEY = "eq10_exponent_decision"
LOCAL_EXPONENT_CORRECTED = "e^{-alpha^2}"
LOCAL_EXPONENT_PRINTED = "e^{-2alpha^2}"


@dataclass(frozen=True)
class ClosedFormPoint:
    """One evaluation point of the closed forms."""

    xi: float
    eta: float
    dphi: float
    alpha_sq: float

    def __post_init__(self):
        for name in ("xi", "eta", "dphi", "alpha_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha_sq < 0:
            raise ValueError("alpha_sq must be >= 0")


def joint_prob_closed(p: ClosedFormPoint) -> float:
    """Joint favorable probability P(-1,-1 | xi, eta, dphi)."""
    v = 0.25 * p.alpha_sq * math.exp(-2.0 * p.alpha_sq) * (
        1.0 - math.cos(p.eta) * math.cos(p.xi)
        - math.sin(p.eta) * math.sin(p.xi) * math.sin(p.dphi)
    )
    return min(max(v, 0.0), 1.0)


def local_prob_closed(x: float, alpha_sq: float) -> float:
    """Single-station favorable probability P(-1 | x) at mixing angle x."""
    return 0.5 * math.exp(-alpha_sq) * (
        alpha_sq * math.cos(x / 2.0) ** 2 + math.sin(x / 2.0) ** 2
    )


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


def ch_assembled(p: ClosedFormPoint) -> float:
    """Same CH value assembled term by term from the closed-form
    probabilities; algebraically identical to ch_closed."""
    def joint(x, y):
        return joint_prob_closed(ClosedFormPoint(x, y, p.dphi, p.alpha_sq))

    return (
        joint(p.xi, p.eta)
        + joint(p.xi + HALF_PI, p.eta)
        - joint(p.xi, p.eta + HALF_PI)
        + joint(p.xi + HALF_PI, p.eta + HALF_PI)
        - local_prob_closed(p.xi + HALF_PI, p.alpha_sq)
        - local_prob_closed(p.eta, p.alpha_sq)
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


def ch_chsh_general(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH and CHSH of the setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) at independent station strengths and phases, in closed form.

    CH = P(xi,eta) + P(xi2,eta) - P(xi,eta2) + P(xi2,eta2) - P_A(xi2)
    - P_B(eta), the quadruple and marginals bell.evaluate_settings uses,
    and chsh = 2 + 4 ch. Arguments broadcast as numpy arrays; scalars give
    0-d arrays.
    """
    alpha1_sq = np.asarray(alpha1_sq, dtype=float)
    alpha2_sq = np.asarray(alpha2_sq, dtype=float)
    for name, value in (("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq)):
        if not np.all(np.isfinite(value) & (value >= 0.0)):
            raise ValueError(f"{name} must be finite and >= 0")
    lo1 = np.sqrt(alpha1_sq) * np.exp(1j * np.asarray(phi1))
    lo2 = np.sqrt(alpha2_sq) * np.exp(1j * np.asarray(phi2))
    alice, alice2 = _station(lo1, xi), _station(lo1, xi2)
    bob, bob2 = _station(lo2, eta), _station(lo2, eta2)
    damping = np.exp(-alpha1_sq - alpha2_sq)
    ch = (_joint_prob(alice, bob, damping) + _joint_prob(alice2, bob, damping)
          - _joint_prob(alice, bob2, damping) + _joint_prob(alice2, bob2, damping)
          - _local_prob(alice2, alpha1_sq) - _local_prob(bob, alpha2_sq))
    return ch, 2.0 + 4.0 * ch
