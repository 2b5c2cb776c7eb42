"""CH and CHSH assembly, the entangled/residual state split, and the
two-qubit maximal-CHSH check for the entangled component.

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

The state split lives on the input's support (optics.input_support):
occupations (a1, b1, a2, b2) with b1, b2 in {0, 1}, 4(N+1)^2 amplitudes
instead of (N+1)^4. Its CHSH matrix elements contract those arrays through
each setting's station observable 1 - 2|1,0><1,0|, written on a station's
input support from the Gram matrix of one mix_station pass over its unit
oscillators.

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
from .optics import ExperimentConfig, input_support, mix_station, oscillators

HALF_PI = math.pi / 2.0

# Baseline operating point used throughout: phase difference pi/2 and
# station angles with difference 3pi/4 summing to pi.
REFERENCE_DPHI = HALF_PI
REFERENCE_XI_MINUS_ETA = 3.0 * math.pi / 4.0
REFERENCE_XI_PLUS_ETA = math.pi

_SIGNS = (1.0, 1.0, -1.0, 1.0)
CROSS_TERM_COUNT = 10
LOGICAL_SUBSPACE_ATOL = 1e-9


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

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        xi, xi2, eta, eta2 = self.settings
        return (xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2)


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
    correlators: tuple[float, float, float, float]
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
                      pa2, pb, correlators, ch, chsh)


def evaluate_quadruple(config: ExperimentConfig,
                       quad: SettingsQuadruple) -> BellRecord:
    return evaluate_settings(config, *quad.settings)


@dataclass(frozen=True)
class StateSplit:
    """Symmetric input state full = c1*psi1 + lam_coeff*lam, split into a
    single-photon entangled two-qubit component psi1 and the orthogonal
    unit-norm residual lam.

    full, psi1 and lam are amplitude arrays on the input's support, indexed
    [a1, b1, a2, b2] with a1, a2 up to the cutoff N and b1, b2 in {0, 1}:
    the input holds at most one photon at each ph port, so the dense
    (N+1)^4 state is zero everywhere else."""

    c1: float
    psi1: np.ndarray
    lam: np.ndarray
    lam_coeff: float
    full: np.ndarray


def split_state(config: ExperimentConfig) -> StateSplit:
    """Split the symmetric input state as c1*psi1 + lam_coeff*lam.

    c1 = alpha e^{-alpha^2} and lam_coeff = sqrt(1 - alpha^2 e^{-2 alpha^2}).
    psi1 = (e^{i phi1} |1,0,0,1> + i e^{i phi2} |0,1,1,0>) / sqrt(2) carries
    exactly the two single-photon-per-station terms, so lam is orthogonal
    to it by construction. full is optics.input_support. Defined only for
    alpha1_sq == alpha2_sq.
    """
    if config.alpha1_sq != config.alpha2_sq:
        raise ValueError("state split requires equal oscillator strengths")
    a2 = config.alpha1_sq
    c1 = math.sqrt(a2) * math.exp(-a2)
    lam_coeff = math.sqrt(1.0 - a2 * math.exp(-2.0 * a2))
    full = input_support(config)
    z = 1.0 / math.sqrt(2.0)
    psi1 = np.zeros_like(full)
    psi1[1, 0, 0, 1] = z * np.exp(1j * config.phi1)
    psi1[0, 1, 1, 0] = z * 1j * np.exp(1j * config.phi2)
    # full's two psi1 entries are c1 psi1's in exact arithmetic; zeroing
    # them, rather than subtracting c1 psi1, leaves exact zeros there at
    # every phase
    lam = (1.0 / lam_coeff) * full
    lam[1, 0, 0, 1] = lam[0, 1, 1, 0] = 0.0
    return StateSplit(c1, psi1, lam, lam_coeff, full)


def _station_observable(theta: float, cutoff: int) -> np.ndarray:
    """Station observable 1 - 2|1,0><1,0| after mixing at theta, as a
    matrix on the station's input support |a, b> (a <= cutoff, b <= 1,
    flat index 2a + b): G - 2 conj(f) f^T with G the Gram matrix of the
    mixed basis inputs and f their favorable amplitudes, from one pass of
    the unit oscillators |a>, all at theta. The pass holds the image of
    |a, b> in column b (cutoff + 1) + a, so order lists the columns in
    support order."""
    stride = cutoff + 1
    images = mix_station(np.eye(stride), np.full(stride, theta))
    flat = images.reshape(-1, 2 * stride)
    order = np.arange(2 * stride).reshape(2, stride).T.reshape(-1)
    gram = (flat.conj().T @ flat)[order[:, None], order]
    fav = images[1, 0].reshape(-1)[order]
    return gram - 2.0 * np.outer(fav.conj(), fav)


def _chsh_form(u: np.ndarray, v: np.ndarray, obs: dict,
               quad: SettingsQuadruple) -> complex:
    """CHSH combination of <u| A x B |v> for two support arrays, the
    stations mixed at each of the quadruple's settings (obs maps each angle
    to its _station_observable). With u, v as matrices over (Alice's input
    index, Bob's), each term is vdot(u, A v B^T): the literal bilinear form
    on the truncated space, divided by no norm."""
    dim = obs[quad.xi].shape[0]
    u, v = u.reshape(dim, dim), v.reshape(dim, dim)
    return complex(sum(sign * np.vdot(u, obs[x] @ v @ obs[y].T)
                       for sign, (x, y) in zip(_SIGNS, quad.pairs)))


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


def chsh_decomposition(split: StateSplit,
                       quad: SettingsQuadruple) -> ChshDecomposition:
    """Decompose the full-state CHSH over the state split, computing the
    interference matrix elements explicitly rather than assuming them away.
    Each part is the CHSH combination of <u| A x B |v> on the truncated
    space; each distinct angle's station observable is mixed once for all
    four forms.

    The network conserves photon number and the favorable projectors pin
    each station's photon count, so the interference between the two-photon
    entangled component and the residual comes out exactly zero and the
    decomposition is additive. The residual part is what breaks any
    'residual contributes the classical maximum' shortcut: it stays
    strictly below 2."""
    cutoff = split.full.shape[0] - 1
    obs = {theta: _station_observable(theta, cutoff)
           for theta in {theta for pair in quad.pairs for theta in pair}}
    cross = _chsh_form(split.psi1, split.lam, obs, quad)
    return ChshDecomposition(
        _chsh_form(split.full, split.full, obs, quad).real,
        _chsh_form(split.psi1, split.psi1, obs, quad).real,
        _chsh_form(split.lam, split.lam, obs, quad).real,
        2.0 * split.c1 * split.lam_coeff * cross.real,
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


def lambda_cross_terms(split: StateSplit) -> list[CrossTerm]:
    """The CROSS_TERM_COUNT largest |<occ|lam>|^2 contributions, largest first.

    Ties are broken by the row-major occupation index of the dense
    (N+1)^4 state so the listing is deterministic. Row-major order of the
    support array is that order restricted to the support, so a stable sort
    of the support gives it.
    """
    lam = split.lam
    weights = np.abs(lam.reshape(-1)) ** 2
    order = np.argsort(-weights, kind="stable")[:CROSS_TERM_COUNT]
    shape = lam.shape
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


def logical_qubit_amplitudes(state: np.ndarray) -> np.ndarray:
    """Project a support array [a1, b1, a2, b2] onto the per-station
    single-photon qubit encoding |1,0> -> logical 0, |0,1> -> logical 1, as
    a 2x2 amplitude matrix (rows Alice, columns Bob). Rejects states with
    more than LOGICAL_SUBSPACE_ATOL probability outside that subspace."""
    if state.ndim != 4 or state.shape[1::2] != (2, 2):
        raise ValueError("expected a support array [a1, b1, a2, b2] with b1, b2 <= 1")
    basis = ((1, 0), (0, 1))
    psi = np.zeros((2, 2), dtype=complex)
    for i, occ_a in enumerate(basis):
        for j, occ_b in enumerate(basis):
            psi[i, j] = state[occ_a + occ_b]
    off_support = float(np.vdot(state, state).real) - float(np.sum(np.abs(psi) ** 2))
    if off_support > LOGICAL_SUBSPACE_ATOL:
        raise ValueError(
            f"state has probability {off_support:.3e} outside the "
            "single-photon logical subspace")
    return psi


def tsirelson_two_qubit(state: np.ndarray) -> float:
    """Maximum CHSH value of a two-qubit pure state over all qubit
    measurements: 2 sqrt(1 + C^2) with C = 2 |psi00 psi11 - psi01 psi10| /
    |psi|^2 its concurrence, which is the Horodecki value 2 sqrt(m1 + m2)
    of the spin correlation matrix on pure states."""
    psi = logical_qubit_amplitudes(state)
    concurrence = 2.0 * abs(np.linalg.det(psi)) / np.sum(np.abs(psi) ** 2)
    return 2.0 * math.sqrt(1.0 + concurrence ** 2)
