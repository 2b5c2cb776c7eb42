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
on arrays in `ch_chsh_general`. They take the eight station parameters
(alpha1_sq, alpha2_sq, phi1, phi2, then the angles) in the order and
units of optics.ExperimentConfig and bell.evaluate_settings.
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
records the decision. tests/test_derivation.py proves the same as an
identity: the printed variant is P_A, derived from the splitter
convention, times exactly e^{-alpha_sq}.

The split report's numbers are closed forms too (chsh_decomposition, on
plain floats). At one strength alpha_sq on both stations the input is
c1*psi1 + lam_coeff*lam with c1 = alpha e^{-alpha^2} and lam_coeff =
sqrt(1 - alpha^2 e^{-2 alpha^2}): psi1 the one-photon-per-station
component, a maximally entangled pair of logical qubits, and lam the
unit-norm residual. psi1's correlator is

    E(x, y) = -cos x cos y - sin x sin y sin(phi2 - phi1)

and its CHSH is that of the four setting pairs with signs +, +, -, +.
Mixing and the favorable projector keep each station's photon number, so
psi1 and lam never interfere: the full CHSH (2 + 4 CH) is c1^2 times
psi1's part plus lam_coeff^2 times lam's, which gives lam's part. psi1's
maximal CHSH over all qubit measurements, the report's psi1_tsirelson, is
the constant 2 sqrt 2: its spin correlation matrix T has T^T T = I at
every phase. tests/test_derivation.py proves that and this correlator
from the splitter convention, as sympy identities, as it proves the
general forms, their factor helpers and the printed forms.

Convention note: the phase difference dphi of the printed forms equals
phi2 - phi1 of the oscillator phases (pinned by the reflection-phase
convention in the optics module; the verify report records this choice).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

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


def local_prob_printed_variant(x: float, alpha_sq: float, m=math) -> float:
    """The rejected e^{-2 alpha_sq} local-probability variant, retained only
    so the erratum adjudication can quantify the discrepancy; m as in
    ch_closed."""
    return 0.5 * m.exp(-2.0 * alpha_sq) * (
        alpha_sq * m.cos(x / 2.0) ** 2 + m.sin(x / 2.0) ** 2
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


def _ch(m, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH of the four setting pairs, each setting's factors taken once."""
    root1, half1, root2, half2, joint = _shared(m, alpha1_sq, alpha2_sq,
                                                phi1, phi2)
    a, a2 = _station(m, root1, xi), _station(m, root1, xi2)
    b, b2 = _station(m, root2, eta), _station(m, root2, eta2)
    return (_joint(joint, a, b) + _joint(joint, a2, b)
            - _joint(joint, a, b2) + _joint(joint, a2, b2)
            - _local(half1, a2) - _local(half2, b))


def _check_drives(*drives, every=bool):
    """Refuse a drive, given as a (name, value) pair, unless finite and >= 0
    (every: np.all on arrays)."""
    for name, value in drives:
        if not every((0.0 <= value) & (value < math.inf)):
            raise ValueError(f"{name} must be finite and >= 0")


def probs_point(alpha1_sq, alpha2_sq, phi1, phi2, x, y):
    """(P_A(-1|x), P_B(-1|y), P(-1,-1|x,y)) of the setting pair (x, y) at
    independent station strengths and phases, on plain floats."""
    _check_drives(("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq))
    root1, half1, root2, half2, joint = _shared(math, alpha1_sq, alpha2_sq,
                                                phi1, phi2)
    a, b = _station(math, root1, x), _station(math, root2, y)
    return _local(half1, a), _local(half2, b), _joint(joint, a, b)


def ch_chsh_point(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """CH and CHSH of the setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) on plain floats: CH = P(xi,eta) + P(xi2,eta) - P(xi,eta2)
    + P(xi2,eta2) - P_A(xi2) - P_B(eta), as in bell.evaluate_settings, and
    chsh = 2 + 4 ch."""
    _check_drives(("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq))
    ch = _ch(math, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2)
    return ch, 2.0 + 4.0 * ch


def ch_chsh_general(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2):
    """ch_chsh_point broadcast over numpy arrays."""
    _check_drives(("alpha1_sq", alpha1_sq), ("alpha2_sq", alpha2_sq),
                  every=np.all)
    ch = _ch(np, alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2)
    return ch, 2.0 + 4.0 * ch


@dataclass(frozen=True)
class ChshDecomposition:
    """Exact split of the full-state CHSH into component and interference
    parts: full = c1^2 * psi1_part + lam_coeff^2 * lam_part + interference."""

    full: float
    psi1_part: float
    lam_part: float
    interference: float
    c1: float
    lam_coeff: float

    @property
    def reassembled(self) -> float:
        return (self.c1 ** 2 * self.psi1_part
                + self.lam_coeff ** 2 * self.lam_part
                + self.interference)


def _psi1_correlator(sin_dphi, x, y, m=math):
    """E(x, y) of psi1, sin_dphi = sin(phi2 - phi1); m as in ch_closed."""
    return -m.cos(x) * m.cos(y) - m.sin(x) * m.sin(y) * sin_dphi


def chsh_decomposition(alpha_sq, phi1, phi2, xi, xi2, eta, eta2
                       ) -> ChshDecomposition:
    """The split's CHSH parts at the setting pairs of ch_chsh_point, both
    stations at strength alpha_sq (module docstring): full = 2 + 4 CH, psi1's
    part from its correlator, lam's as (full - c1^2 psi1_part) / lam_coeff^2,
    and an interference of exactly 0. lam's part, strictly below 2 at the
    reference settings, breaks any 'the residual contributes the classical
    maximum' shortcut."""
    _check_drives(("alpha_sq", alpha_sq))
    _, full = ch_chsh_point(alpha_sq, alpha_sq, phi1, phi2, xi, xi2, eta, eta2)
    c1 = math.sqrt(alpha_sq) * math.exp(-alpha_sq)
    lam_coeff = math.sqrt(1.0 - alpha_sq * math.exp(-2.0 * alpha_sq))
    sin_dphi = math.sin(phi2 - phi1)
    psi1 = (_psi1_correlator(sin_dphi, xi, eta) + _psi1_correlator(sin_dphi, xi2, eta)
            - _psi1_correlator(sin_dphi, xi, eta2)
            + _psi1_correlator(sin_dphi, xi2, eta2))
    return ChshDecomposition(full, psi1, (full - c1 ** 2 * psi1) / lam_coeff ** 2,
                             0.0, c1, lam_coeff)
