"""Closed-form detection probabilities and Bell quantities for the
symmetric equal-strength network.

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
