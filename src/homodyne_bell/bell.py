"""CH and CHSH assembly, the entangled/residual state split, and the
two-qubit maximal-CHSH check for the entangled component.

Bell records come from station vectors, not from the 4-mode state. The
input state is sum_k w_k |alpha1, k>_A |alpha2, 1-k>_B with
w = (1/sqrt2, i/sqrt2), and both beamsplitters are local, so the output is
sum_k w_k A_k (x) B_k with A_k, B_k the two mixed input terms of each
station (optics.mix_station), truncated at the same per-mode cutoff as the
dense network. Every record probability is a contraction of those vectors
through their favorable amplitudes and 2x2 Gram matrices, conditional on
the truncated space like the detection module's probabilities; the dense
network (optics.run_network) stays the brute-force route for the
verification oracles and the state split.

Records are built so that chsh == 2 + 4*ch holds to rounding on every
record: each distinct station setting gets one canonical marginal (measured
in a single designated setting pair and reused wherever that setting
appears), which makes the cancellation between the two forms exact.
No-signalling keeps the canonical marginal equal to any pair's marginal up
to the truncation budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .detection import ab_product_expectation
from .fock import PRE_NETWORK_MODES, StateVector, fock_basis_state
from .optics import (
    ExperimentConfig,
    apply_station_settings,
    build_input_state,
    mix_station,
)

HALF_PI = math.pi / 2.0

# Baseline operating point used throughout: phase difference pi/2 and
# station angles with difference 3pi/4 summing to pi.
REFERENCE_DPHI = HALF_PI
REFERENCE_XI_MINUS_ETA = 3.0 * math.pi / 4.0
REFERENCE_XI_PLUS_ETA = math.pi

_SIGNS = (1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class SettingsQuadruple:
    """Base settings (xi, eta); each station's second setting is +pi/2 off."""

    xi: float
    eta: float

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return (
            (self.xi, self.eta),
            (self.xi + HALF_PI, self.eta),
            (self.xi, self.eta + HALF_PI),
            (self.xi + HALF_PI, self.eta + HALF_PI),
        )


def reference_quadruple() -> SettingsQuadruple:
    xi = (REFERENCE_XI_PLUS_ETA + REFERENCE_XI_MINUS_ETA) / 2.0
    eta = (REFERENCE_XI_PLUS_ETA - REFERENCE_XI_MINUS_ETA) / 2.0
    return SettingsQuadruple(xi, eta)


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
    correlators: tuple[float, float, float, float]
    ch: float
    chsh: float


# weights of the input terms: term k has k photons at Alice's ph port and
# 1 - k at Bob's
_TERM_WEIGHTS = np.array([1.0, 1.0j]) / math.sqrt(2.0)
_WEIGHT_PAIRS = np.outer(_TERM_WEIGHTS.conj(), _TERM_WEIGHTS)


def _station_vectors(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix <V_k|V_l> of a station's two output terms V_k =
    terms[..., k], and their favorable (1, 0) amplitudes."""
    flat = terms.reshape(-1, 2)
    return flat.conj().T @ flat, terms[1, 0]


def _pair_probabilities(alice, bob) -> tuple[float, float, float]:
    """(p_A, p_B, p_AB) of sum_k w_k A_k (x) B_k, each divided by its norm."""
    (gram_a, a), (gram_b, b) = alice, bob
    norm = np.sum(_WEIGHT_PAIRS * gram_a * gram_b).real
    p_a = np.sum(_WEIGHT_PAIRS * np.outer(a.conj(), a) * gram_b).real
    p_b = np.sum(_WEIGHT_PAIRS * gram_a * np.outer(b.conj(), b)).real
    p_ab = abs(np.sum(_TERM_WEIGHTS * a * b)) ** 2
    return float(p_a / norm), float(p_b / norm), float(p_ab / norm)


def evaluate_settings(config: ExperimentConfig, xi: float, xi2: float,
                      eta: float, eta2: float) -> BellRecord:
    """Evaluate the four setting pairs (xi, eta), (xi2, eta), (xi, eta2),
    (xi2, eta2) with signs +, +, -, + and assemble the record.

    Each distinct station setting is evolved once (optics.mix_station at
    the dense network's cutoff config.resolve_cutoff()) and every pair is a
    contraction of the station vectors. Canonical marginals: Alice's at
    setting x comes from pair (x, eta) and Bob's at y from pair (xi, y).
    """
    n = config.resolve_cutoff()
    alice_lo = config.alpha1 * cmath.exp(1j * config.phi1)
    bob_lo = config.alpha2 * cmath.exp(1j * config.phi2)
    alice = {x: _station_vectors(mix_station(alice_lo, x, n)) for x in (xi, xi2)}
    # Bob's ph port holds the photon in term 0 and none in term 1
    bob = {y: _station_vectors(mix_station(bob_lo, y, n)[..., ::-1])
           for y in (eta, eta2)}
    pairs = ((xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2))
    probs = {(x, y): _pair_probabilities(alice[x], bob[y]) for (x, y) in pairs}

    # one canonical marginal per distinct setting
    p_alice = {x: probs[(x, eta)][0] for x in (xi, xi2)}
    p_bob = {y: probs[(xi, y)][1] for y in (eta, eta2)}
    joints = tuple(probs[p][2] for p in pairs)
    correlators = tuple(
        1.0 - 2.0 * p_alice[x] - 2.0 * p_bob[y] + 4.0 * j
        for (x, y), j in zip(pairs, joints)
    )
    ch = (joints[0] + joints[1] - joints[2] + joints[3]
          - p_alice[xi2] - p_bob[eta])
    chsh = sum(s * e for s, e in zip(_SIGNS, correlators))
    return BellRecord(pairs, joints, p_alice[xi2], p_bob[eta],
                      correlators, ch, chsh)


def evaluate_quadruple(config: ExperimentConfig,
                       quad: SettingsQuadruple) -> BellRecord:
    return evaluate_settings(config, quad.xi, quad.xi + HALF_PI,
                             quad.eta, quad.eta + HALF_PI)


def ch_value(config: ExperimentConfig, quad: SettingsQuadruple) -> BellRecord:
    """Record for the quadruple; its .ch field is the CH combination
    joints[0] + joints[1] - joints[2] + joints[3] - local_alice - local_bob."""
    return evaluate_quadruple(config, quad)


def chsh_value(config: ExperimentConfig, quad: SettingsQuadruple) -> BellRecord:
    """Record for the quadruple; its .chsh field is the signed correlator sum
    and satisfies chsh == 2 + 4*ch to rounding."""
    return evaluate_quadruple(config, quad)


@dataclass(frozen=True)
class StateSplit:
    """Input state split into a single-photon entangled two-qubit component
    psi1 (weight c1) and the orthogonal unit-norm residual lam."""

    c1: float
    psi1: StateVector
    lam: StateVector
    lam_coeff: float


def entangled_component(config: ExperimentConfig) -> StateVector:
    """The two-term entangled component on (a1, b1, a2, b2):
    (e^{i phi1} |1,0,0,1> + i e^{i phi2} |0,1,1,0>) / sqrt(2)."""
    n = config.resolve_cutoff()
    z = 1.0 / math.sqrt(2.0)
    t1 = fock_basis_state(PRE_NETWORK_MODES, (1, 0, 0, 1), n)
    t2 = fock_basis_state(PRE_NETWORK_MODES, (0, 1, 1, 0), n)
    return (z * np.exp(1j * config.phi1)) * t1 + (z * 1j * np.exp(1j * config.phi2)) * t2


def split_state(config: ExperimentConfig) -> StateSplit:
    """Split the symmetric input state as c1*psi1 + lam_coeff*lam.

    c1 = alpha e^{-alpha^2} and lam_coeff = sqrt(1 - alpha^2 e^{-2 alpha^2}).
    psi1 carries exactly the two single-photon-per-station terms, so lam is
    orthogonal to it by construction. Defined only for alpha1 == alpha2.
    """
    if config.alpha1 != config.alpha2:
        raise ValueError("state split requires equal oscillator strengths")
    alpha = config.alpha1
    a2 = alpha * alpha
    c1 = alpha * math.exp(-a2)
    lam_coeff = math.sqrt(1.0 - a2 * math.exp(-2.0 * a2))
    # built first: build_input_state refuses a dense state that is too large
    # before anything of that size is allocated
    full = build_input_state(config)
    psi1 = entangled_component(config)
    lam = (1.0 / lam_coeff) * (full - c1 * psi1)
    return StateSplit(c1, psi1, lam, lam_coeff)


def chsh_on_component(component: StateVector, quad: SettingsQuadruple) -> float:
    """CHSH combination of <component| A x B |component> with the component
    propagated through the network at each of the quadruple's settings."""
    total = 0.0
    for sign, (x, y) in zip(_SIGNS, quad.pairs):
        out = apply_station_settings(component, x, y)
        total += sign * ab_product_expectation(out).real
    return total


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


def chsh_decomposition(config: ExperimentConfig,
                       quad: SettingsQuadruple) -> ChshDecomposition:
    """Decompose the full-state CHSH over the state split, computing the
    interference matrix elements explicitly rather than assuming them away.

    The network conserves photon number and the favorable projectors pin
    each station's photon count, so the interference between the two-photon
    entangled component and the residual comes out exactly zero and the
    decomposition is additive. The residual part is what breaks any
    'residual contributes the classical maximum' shortcut: it stays
    strictly below 2."""
    split = split_state(config)
    full_in = build_input_state(config)
    full = psi1_part = lam_part = interference = 0.0
    for sign, (x, y) in zip(_SIGNS, quad.pairs):
        out_full = apply_station_settings(full_in, x, y)
        out_psi = apply_station_settings(split.psi1, x, y)
        out_lam = apply_station_settings(split.lam, x, y)
        full += sign * ab_product_expectation(out_full).real
        psi1_part += sign * ab_product_expectation(out_psi).real
        lam_part += sign * ab_product_expectation(out_lam).real
        cross = ab_product_expectation(out_psi, out_lam)
        interference += sign * 2.0 * split.c1 * split.lam_coeff * cross.real
    return ChshDecomposition(full, psi1_part, lam_part, interference,
                             split.c1, split.lam_coeff)


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


def lambda_cross_terms(split: StateSplit, count: int = 10) -> list[CrossTerm]:
    """The `count` largest |<occ|lam>|^2 contributions, largest first.

    Ties are broken by flat (row-major) occupation index so the listing is
    deterministic.
    """
    lam = split.lam
    if lam.modes != PRE_NETWORK_MODES:
        raise ValueError("residual component must be in pre-network mode order")
    weights = np.abs(lam.amps.reshape(-1)) ** 2
    order = np.argsort(-weights, kind="stable")[:count]
    shape = lam.amps.shape
    terms = []
    for flat in order:
        occ = tuple(int(v) for v in np.unravel_index(int(flat), shape))
        terms.append(CrossTerm(
            occupation=occ,
            weight=float(weights[flat]),
            magnitude=float(math.sqrt(weights[flat])),
            alice_minus_one_reachable=(occ[0] + occ[1] == 1),
            bob_minus_one_reachable=(occ[2] + occ[3] == 1),
        ))
    return terms


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def logical_qubit_amplitudes(state: StateVector, atol: float = 1e-9) -> np.ndarray:
    """Project a pre-network state onto the per-station single-photon qubit
    encoding |1,0> -> logical 0, |0,1> -> logical 1, as a 2x2 amplitude
    matrix (rows Alice, columns Bob). Rejects states with support outside
    that subspace."""
    if state.modes != PRE_NETWORK_MODES:
        raise ValueError("expected pre-network mode order (a1, b1, a2, b2)")
    basis = ((1, 0), (0, 1))
    psi = np.zeros((2, 2), dtype=complex)
    for i, occ_a in enumerate(basis):
        for j, occ_b in enumerate(basis):
            psi[i, j] = state.amps[occ_a + occ_b]
    off_support = state.norm_sq() - float(np.sum(np.abs(psi) ** 2))
    if off_support > atol:
        raise ValueError(
            f"state has probability {off_support:.3e} outside the "
            "single-photon logical subspace")
    return psi


def tsirelson_two_qubit(state: StateVector) -> float:
    """Maximum CHSH value of a two-qubit pure state over all qubit
    measurements: 2 sqrt(m1 + m2) with m1, m2 the two largest eigenvalues
    of T^T T, where T is the 3x3 spin correlation matrix."""
    psi = logical_qubit_amplitudes(state)
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2))
    psi = psi / nrm
    t = np.empty((3, 3))
    for i, si in enumerate(_PAULIS):
        for j, sj in enumerate(_PAULIS):
            t[i, j] = np.einsum("ab,aA,bB,AB->", psi.conj(), si, sj, psi).real
    lams = np.linalg.eigvalsh(t.T @ t)[::-1]
    return 2.0 * math.sqrt(max(lams[0], 0.0) + max(lams[1], 0.0))
