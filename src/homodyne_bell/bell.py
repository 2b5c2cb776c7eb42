"""CH and CHSH assembly and the split report's Fock-route pieces.

Everything here runs on station vectors, never on a 4-mode output array.
The input state is sum_k w_k |alpha1, k>_A |alpha2, 1-k>_B with
w = detection.PAIR_WEIGHTS, and both beamsplitters are local, so the
output is sum_k w_k A_k (x) B_k with A_k, B_k the two mixed input terms of
each station, every mode truncated at the per-mode cutoff. A record mixes
its four settings' oscillators (optics.oscillators) in one
optics.mix_station pass and reads every setting's terms at once
(detection.read_pass); every record probability comes from the detection
module's readout of those terms. The verification oracles' network
(optics.run_network) mixes through the same splitter and reads out through
the same readout, and bell defines neither of its own.

The split report writes the symmetric input as c1*psi1 + lam_coeff*lam,
psi1 the single-photon-per-station component and lam the unit-norm
residual; its CHSH parts are analytic's closed forms, checked by one
record. psi1's Tsirelson value is the constant 2 sqrt 2, proved for every
phase in tests/test_derivation.py (psi1's spin correlation matrix T has
T^T T = I), so nothing here computes it. lam's cross-term listing comes
from the oscillators' Poisson terms (fock.poisson_terms) on the input's
support, occupations (a1, b1, a2, b2) with b1, b2 in {0, 1}: it builds no
amplitude, so the split report builds each oscillator once, in its one
record.

Records are built so that chsh == 2 + 4*ch holds to rounding on every
record: each distinct station setting gets one canonical marginal (measured
in a single designated setting pair and reused wherever that setting
appears), which makes the cancellation between the two forms exact.
No-signalling keeps the canonical marginal equal to any pair's marginal up
to the truncation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import pair_probabilities, read_pass
from .fock import poisson_terms
from .optics import ExperimentConfig, mix_station, oscillators

HALF_PI = math.pi / 2.0

# Baseline operating point used throughout: phase difference pi/2 and
# station angles with difference 3pi/4 summing to pi.
REFERENCE_DPHI = HALF_PI
REFERENCE_XI_MINUS_ETA = 3.0 * math.pi / 4.0
REFERENCE_XI_PLUS_ETA = math.pi

_SIGNS = (1.0, 1.0, -1.0, 1.0)
CROSS_TERM_COUNT = 10


@dataclass(frozen=True)
class SettingsQuadruple:
    """Base settings (xi, eta); each station's second setting is +pi/2 off.

    from_sum_difference builds one from (xi + eta, xi - eta), and settings
    gives its four angles in evaluate_settings' order. The fields may be
    numpy arrays, a batch of quadruples."""

    xi: float
    eta: float

    @classmethod
    def from_sum_difference(cls, xi_plus_eta: float,
                            xi_minus_eta: float) -> SettingsQuadruple:
        return cls((xi_plus_eta + xi_minus_eta) / 2.0,
                   (xi_plus_eta - xi_minus_eta) / 2.0)

    @property
    def settings(self) -> tuple[float, float, float, float]:
        """(xi, xi2, eta, eta2) = (xi, xi + pi/2, eta, eta + pi/2)."""
        return self.xi, self.xi + HALF_PI, self.eta, self.eta + HALF_PI


def reference_quadruple() -> SettingsQuadruple:
    return SettingsQuadruple.from_sum_difference(REFERENCE_XI_PLUS_ETA,
                                                 REFERENCE_XI_MINUS_ETA)


@dataclass(frozen=True)
class BellRecord:
    """All probabilities and Bell quantities of one settings quadruple.

    joints are ordered as the four evaluated pairs; local_alice is
    P(-1 | second Alice setting) and local_bob is P(-1 | first Bob setting),
    the two locals entering the CH combination.
    """

    settings: tuple[tuple[float, float], ...]
    joints: tuple[float, float, float, float]
    local_alice: float
    local_bob: float
    ch: float
    chsh: float


def evaluate_settings(config: ExperimentConfig, xi: float, xi2: float,
                      eta: float, eta2: float) -> BellRecord:
    """Evaluate the four setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) with signs +, +, -, + and assemble the record.

    All four settings are mixed in one optics.mix_station pass at the
    per-mode cutoff config.resolve_cutoff() and read in one
    detection.read_pass call, which converts each setting's station to
    plain numbers once, and every pair is read out from two of them by
    detection.pair_probabilities, all by position, so equal angles stay
    separate settings. Canonical marginals: Alice's at xi and xi2 come from
    pairs 1 and 2, Bob's at eta and eta2 from 1 and 3.
    """
    a, a2, b, b2 = read_pass(mix_station(oscillators(config).repeat(2, axis=0),
                                         (xi, xi2, eta, eta2)), 2)
    probs = [pair_probabilities(x, y)
             for x, y in ((a, b), (a2, b), (a, b2), (a2, b2))]

    # one canonical marginal per setting
    pa, pa2, pb, pb2 = probs[0][0], probs[1][0], probs[0][1], probs[2][1]
    joints = tuple(pair[2] for pair in probs)
    correlators = tuple(
        1.0 - 2.0 * x - 2.0 * y + 4.0 * j
        for x, y, j in zip((pa, pa2, pa, pa2), (pb, pb, pb2, pb2), joints)
    )
    ch = joints[0] + joints[1] - joints[2] + joints[3] - pa2 - pb
    chsh = sum(s * e for s, e in zip(_SIGNS, correlators))
    return BellRecord(((xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2)), joints,
                      pa2, pb, ch, chsh)


def evaluate_quadruple(config: ExperimentConfig,
                       quad: SettingsQuadruple) -> BellRecord:
    return evaluate_settings(config, *quad.settings)


@dataclass(frozen=True)
class CrossTerm:
    """One residual-state occupation with its weight and, per station,
    whether the favorable -1 outcome is reachable from it (true exactly when
    that station's input pair carries a single photon in total)."""

    occupation: tuple[int, int, int, int]
    weight: float
    magnitude: float
    alice_minus_one_reachable: bool
    bob_minus_one_reachable: bool


def lambda_cross_terms(config: ExperimentConfig) -> list[CrossTerm]:
    """The CROSS_TERM_COUNT largest |<occ|lam>|^2 contributions, largest first.

    The weights are read on the input's support, occupations
    (a1, b1, a2, b2) with b1, b2 in {0, 1}, from the drive's Poisson terms
    p (fock.poisson_terms), with no amplitude built: |<occ|lam>|^2 is
    p_a1 p_a2 / (2 lam_coeff^2) where b1 + b2 = 1 and 0 elsewhere, with
    lam_coeff^2 = 1 - p_0 p_1 (c1^2 = alpha^2 e^{-2 alpha^2} = p_0 p_1),
    and 0 on psi1's two occupations, which c1 psi1 holds whole. p_a1 p_a2
    is exactly symmetric, so mirror occupations tie bit for bit. Ties are
    broken by the row-major occupation index of the dense (N+1)^4 state
    so the listing is deterministic. Row-major order of the support array
    is that order restricted to the support, so a stable sort of the
    support gives it. Unequal drives are refused, as for the split.
    """
    if config.alpha1_sq != config.alpha2_sq:
        raise ValueError("state split requires equal oscillator strengths")
    n = config.resolve_cutoff()
    p = poisson_terms((config.alpha1_sq,), n)[0]
    domain = (n + 1, 2, n + 1, 2)
    weights = np.zeros(domain)
    weights[:, 0, :, 1] = weights[:, 1, :, 0] = (np.multiply.outer(p, p)
                                                 / (2.0 * (1.0 - p[0] * p[1])))
    weights[1, 0, 0, 1] = weights[0, 1, 1, 0] = 0.0
    weights = weights.reshape(-1)
    order = np.argsort(-weights, kind="stable")[:CROSS_TERM_COUNT]
    terms = []
    for flat in order:
        occ = tuple(int(v) for v in np.unravel_index(int(flat), domain))
        terms.append(CrossTerm(
            occupation=occ,
            weight=float(weights[flat]),
            magnitude=float(math.sqrt(weights[flat])),
            alice_minus_one_reachable=(occ[0] + occ[1] == 1),
            bob_minus_one_reachable=(occ[2] + occ[3] == 1),
        ))
    return terms

