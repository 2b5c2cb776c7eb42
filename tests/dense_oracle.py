"""Dense 4-mode oracles for the state split: the split, its CHSH matrix
elements and the residual's cross-term listing, computed on full
(N+1)^4 states propagated through optics.apply_station_settings. The
library computes all of these on the input's two-photon support; the tests
hold it to these brute-force forms."""

import math

import numpy as np

from homodyne_bell.bell import (
    ChshDecomposition,
    CrossTerm,
    StateSplit,
    SettingsQuadruple,
)
from homodyne_bell.detection import Station, _favorable_indexer
from homodyne_bell.fock import PRE_NETWORK_MODES, StateVector, fock_basis_state
from homodyne_bell.optics import (
    ExperimentConfig,
    apply_station_settings,
    build_input_state,
)

_SIGNS = (1.0, 1.0, -1.0, 1.0)


def ab_product_expectation(u: StateVector, v: StateVector | None = None) -> complex:
    """Matrix element <u| A x B |v> of the product of station observables.

    Unlike `correlator`, this is the literal quadratic/bilinear form on the
    truncated space (it uses <u|v>, not 1, and divides by no norm), which
    is what exact component decompositions need. With v omitted it returns
    <u| A x B |u>.
    """
    if v is None:
        v = u
    if u.modes != v.modes or u.cutoffs != v.cutoffs:
        raise ValueError("states must share modes and cutoffs")
    idx_a = _favorable_indexer(u, (Station.ALICE,))
    idx_b = _favorable_indexer(u, (Station.BOB,))
    idx_ab = _favorable_indexer(u, (Station.ALICE, Station.BOB))
    full = np.vdot(u.amps, v.amps)
    pa = np.vdot(u.amps[idx_a], v.amps[idx_a])
    pb = np.vdot(u.amps[idx_b], v.amps[idx_b])
    pab = np.vdot(u.amps[idx_ab], v.amps[idx_ab])
    return complex(full - 2.0 * pa - 2.0 * pb + 4.0 * pab)


def dense_split_state(config: ExperimentConfig) -> StateSplit:
    """The split built on dense 4-mode states: a StateSplit whose full, psi1
    and lam are StateVectors on (a1, b1, a2, b2), psi1 from two Fock basis
    states and lam = (full - c1 psi1) / lam_coeff."""
    alpha = config.alpha1
    a2 = alpha * alpha
    c1 = alpha * math.exp(-a2)
    lam_coeff = math.sqrt(1.0 - a2 * math.exp(-2.0 * a2))
    full = build_input_state(config)
    n = config.resolve_cutoff()
    z = 1.0 / math.sqrt(2.0)
    t1 = fock_basis_state(PRE_NETWORK_MODES, (1, 0, 0, 1), n)
    t2 = fock_basis_state(PRE_NETWORK_MODES, (0, 1, 1, 0), n)
    psi1 = ((z * np.exp(1j * config.phi1)) * t1
            + (z * 1j * np.exp(1j * config.phi2)) * t2)
    lam = (1.0 / lam_coeff) * (full - c1 * psi1)
    return StateSplit(c1, psi1, lam, lam_coeff, full)


def dense_chsh_on_component(component: StateVector,
                            quad: SettingsQuadruple) -> float:
    """CHSH of <component| A x B |component>, the component propagated
    through the dense network at each setting pair."""
    total = 0.0
    for sign, (x, y) in zip(_SIGNS, quad.pairs):
        out = apply_station_settings(component, x, y)
        total += sign * ab_product_expectation(out).real
    return total


def dense_chsh_decomposition(config: ExperimentConfig,
                             quad: SettingsQuadruple) -> ChshDecomposition:
    """chsh_decomposition with the full state and both components
    re-propagated through the dense network at every setting pair."""
    split = dense_split_state(config)
    full = psi1_part = lam_part = interference = 0.0
    for sign, (x, y) in zip(_SIGNS, quad.pairs):
        out_full = apply_station_settings(split.full, x, y)
        out_psi = apply_station_settings(split.psi1, x, y)
        out_lam = apply_station_settings(split.lam, x, y)
        full += sign * ab_product_expectation(out_full).real
        psi1_part += sign * ab_product_expectation(out_psi).real
        lam_part += sign * ab_product_expectation(out_lam).real
        cross = ab_product_expectation(out_psi, out_lam)
        interference += sign * 2.0 * split.c1 * split.lam_coeff * cross.real
    return ChshDecomposition(full, psi1_part, lam_part, interference,
                             split.c1, split.lam_coeff)


def dense_cross_terms(lam: StateVector, count: int = 10) -> list[CrossTerm]:
    """The `count` largest |<occ|lam>|^2 over every dense occupation, ties
    broken by flat (row-major) index."""
    weights = np.abs(lam.amps.reshape(-1)) ** 2
    order = np.argsort(-weights, kind="stable")[:count]
    terms = []
    for flat in order:
        occ = tuple(int(v) for v in np.unravel_index(int(flat), lam.amps.shape))
        terms.append(CrossTerm(
            occupation=occ,
            weight=float(weights[flat]),
            magnitude=float(math.sqrt(weights[flat])),
            alice_minus_one_reachable=(occ[0] + occ[1] == 1),
            bob_minus_one_reachable=(occ[2] + occ[3] == 1),
        ))
    return terms
