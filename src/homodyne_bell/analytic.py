"""Closed-form detection probabilities and Bell quantities.

One general set of forms carries every closed-form probability: each
station has its own strength alpha1_sq, alpha2_sq and oscillator phase
phi1, phi2, and the angles are free. With D = phi1 - phi2, c_x = cos(x/2)
and s_x = sin(x/2) they are real (the joint kept a sum of two squares:
expanded, it cancels only to about 1e-17 where it vanishes):

    P(-1,-1|x,y) = 1/2 e^{-alpha1^2-alpha2^2} [(alpha1 sin(D) c_x s_y
                   + alpha2 s_x c_y)^2 + (alpha1 cos(D) c_x s_y)^2]
    P_A(-1|x)    = 1/2 e^{-alpha1^2} (alpha1^2 c_x^2 + s_x^2)
    P_B(-1|y)    = 1/2 e^{-alpha2^2} (alpha2^2 c_y^2 + s_y^2)

One body evaluates them, with `math` on plain floats in `probs_point`
(the triple verify checks against the probabilities of the Fock route's
network, optics.run_network) and `ch_chsh_point` (CH and CHSH of four
setting pairs, which the search runs for every family), and with `numpy`
on arrays in `probs_general` and `ch_chsh_general`. They take the eight station
parameters (alpha1_sq, alpha2_sq, phi1, phi2, then the angles) in the
order and units of optics.ExperimentConfig and bell.evaluate_settings.
With the Fock numerics they are the two independent routes to every
quantity, checked against each other.

The body is cut along the forms' factors, so a setting shared by two
pairs is evaluated once: _station gives a setting's (alpha c_x, s_x),
_shared what every pair shares (each station's alpha and e^{-alpha^2}/2,
and the joint's e^{-alpha1^2-alpha2^2}/2, sin D and cos D), and _local and
_joint assemble a probability from them. CH over four setting pairs thus
takes 15 calls of sqrt, exp, sin and cos, not the 44 of four one-pair
evaluations, and every operation is the one-pair body's, in its order: the
results keep its bits (tests/test_analytic.py holds that body as the
reference).

Beside them live the paper's printed expressions, kept as the objects the
verify command tests and the figure grid writes, never searched on: the
expanded `ch_closed` and `chsh_closed` of the standard quadruple (one
strength alpha_sq, phase difference dphi, second settings pi/2 off), which
take the module argument m like the general body (the figure grid calls
them per cell on math, verify once on numpy arrays of all its draws), and
`local_prob_printed_variant`, the local probability with the printed
e^{-2 alpha_sq} exponent. That exponent is inconsistent with the joint
probability and the assembled CH form; the brute-force oracle adjudicates
between it and the e^{-alpha_sq} of P_A above, and the verify command
records the decision.

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
    every field is finite and 0 <= alpha_sq <= 700 (fock.MAX_ALPHA_SQ).
    The figure grid checks each of its rows and columns once through this
    constructor and passes its cells to ch_closed as plain tuples."""

    __slots__ = ()

    def __new__(cls, xi: float, eta: float, dphi: float, alpha_sq: float):
        if not (math.isfinite(xi) and math.isfinite(eta)
                and math.isfinite(dphi) and math.isfinite(alpha_sq)):
            # name the first field that is not finite
            for name, value in zip(cls._fields, (xi, eta, dphi, alpha_sq)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
        if not 0.0 <= alpha_sq <= 700.0:  # e^{alpha_sq} overflows near 709.8
            raise ValueError("alpha_sq must be >= 0" if alpha_sq < 0 else
                             "alpha_sq must be <= 700")
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


def ch_closed(p: typing.Sequence, m=math):
    """CH value of the standard settings quadruple, in closed form.

    The quadruple is (xi, eta), (xi+pi/2, eta), (xi, eta+pi/2),
    (xi+pi/2, eta+pi/2) with signs +, +, -, + minus the two local terms
    P(-1|xi+pi/2) and P(-1|eta). p is unpacked as (xi, eta, dphi,
    alpha_sq): a ClosedFormPoint, or any 4-sequence the caller has checked,
    of plain floats on m = math or of arrays, checked alike, on m = numpy.
    """
    xi, eta, dphi, a2 = p
    ea2, d = m.exp(a2), xi - eta
    return 0.25 * m.exp(-2.0 * a2) * (
        a2 * (1.0 + m.sin(dphi)) * (m.sin(d) - m.cos(d))
        + ea2 * (1.0 - a2) * (m.cos(eta) - m.sin(xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


def chsh_closed(p: typing.Sequence, m=math):
    """CHSH value of the standard quadruple, in expanded closed form; p and
    m as in ch_closed."""
    xi, eta, dphi, a2 = p
    ea2, d = m.exp(a2), xi - eta
    return 2.0 + m.exp(-2.0 * a2) * (
        a2 * (1.0 + m.sin(dphi)) * (m.sin(d) - m.cos(d))
        + ea2 * (1.0 - a2) * (m.cos(eta) - m.sin(xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


def _shared(m, alpha1_sq, alpha2_sq, phi1, phi2):
    """What every setting pair shares: each station's sqrt(alpha_sq) and
    e^{-alpha_sq}/2, and the joint's (e^{-alpha1_sq-alpha2_sq}/2, sin D,
    cos D) with D = phi1 - phi2."""
    dphi = phi1 - phi2
    return (m.sqrt(alpha1_sq), 0.5 * m.exp(-alpha1_sq),
            m.sqrt(alpha2_sq), 0.5 * m.exp(-alpha2_sq),
            (0.5 * m.exp(-alpha1_sq - alpha2_sq), m.sin(dphi), m.cos(dphi)))


def _station(m, root, x):
    """A setting's factors (sqrt(alpha_sq) cos(x/2), sin(x/2)), root =
    sqrt(alpha_sq)."""
    return root * m.cos(0.5 * x), m.sin(0.5 * x)


def _local(half, setting):
    """P(-1|x) from the setting's _station factors, half = e^{-alpha_sq}/2."""
    c_x, s_x = setting
    return half * (c_x * c_x + s_x * s_x)


def _joint(shared, a, b):
    """P(-1,-1|x,y) from the joint's _shared factors and the _station
    factors of Alice's setting x (a) and Bob's y (b)."""
    (half, sin_d, cos_d), (a_x, s_x), (b_y, s_y) = shared, a, b
    left = a_x * s_y
    real, imag = left * sin_d + s_x * b_y, left * cos_d
    return half * (real * real + imag * imag)


def _probs(m, alpha1_sq, alpha2_sq, phi1, phi2, x, y):
    """(P_A(-1|x), P_B(-1|y), P(-1,-1|x,y)) on m, math or numpy."""
    root1, half1, root2, half2, joint = _shared(m, alpha1_sq, alpha2_sq,
                                                phi1, phi2)
    a, b = _station(m, root1, x), _station(m, root2, y)
    return _local(half1, a), _local(half2, b), _joint(joint, a, b)


def _ch(m, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH of the four setting pairs, each setting's factors taken once."""
    root1, half1, root2, half2, joint = _shared(m, alpha1_sq, alpha2_sq,
                                                phi1, phi2)
    a, a2 = _station(m, root1, xi), _station(m, root1, xi2)
    b, b2 = _station(m, root2, eta), _station(m, root2, eta2)
    return (_joint(joint, a, b) + _joint(joint, a2, b)
            - _joint(joint, a, b2) + _joint(joint, a2, b2)
            - _local(half1, a2) - _local(half2, b))


def _check_drives(alpha1_sq, alpha2_sq, every=bool):
    """Refuse a drive unless finite and >= 0 (every: np.all on arrays)."""
    for name, value in (("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq)):
        if not every((0.0 <= value) & (value < math.inf)):
            raise ValueError(f"{name} must be finite and >= 0")


def probs_point(alpha1_sq, alpha2_sq, phi1, phi2, x, y):
    """(P_A(-1|x), P_B(-1|y), P(-1,-1|x,y)) of the setting pair (x, y) at
    independent station strengths and phases, on plain floats."""
    _check_drives(alpha1_sq, alpha2_sq)
    return _probs(math, alpha1_sq, alpha2_sq, phi1, phi2, x, y)


def ch_chsh_point(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH and CHSH of the setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) on plain floats: CH = P(xi,eta) + P(xi2,eta) - P(xi,eta2)
    + P(xi2,eta2) - P_A(xi2) - P_B(eta), as in bell.evaluate_settings, and
    chsh = 2 + 4 ch."""
    _check_drives(alpha1_sq, alpha2_sq)
    ch = _ch(math, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2)
    return ch, 2.0 + 4.0 * ch


def probs_general(alpha1_sq, alpha2_sq, phi1, phi2, x, y):
    """probs_point broadcast over numpy arrays."""
    _check_drives(alpha1_sq, alpha2_sq, np.all)
    return _probs(np, alpha1_sq, alpha2_sq, phi1, phi2, x, y)


def ch_chsh_general(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """ch_chsh_point broadcast over numpy arrays."""
    _check_drives(alpha1_sq, alpha2_sq, np.all)
    ch = _ch(np, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2)
    return ch, 2.0 + 4.0 * ch
