"""Dense 4-mode oracles on plain arrays, built on no splitter of the library:
the network input's support array (input_support) propagated through the
closed binomial station columns (dense_station_columns) to the full
(N+1)^4 output, and its index readout, the reference for the detection
module's rank-2 readout; from the same output the state split
(DenseSplit), its CHSH matrix elements and the residual's cross-term
listing. The library mixes every station with optics.mix_station and
reads every probability off each station's two mixed input terms without
building the output or the input; it reads lam's listing off the drive's
Poisson terms and the split's CHSH parts from analytic's closed forms,
and writes psi1's Tsirelson value as the constant that
tests/test_derivation.py proves. The tests hold all of them to these
brute-force forms, and read psi1's logical amplitudes from DenseSplit.
mix_station lays its images out on the photon-number support rows of
detection.support_rows; on_square places them in the dense (N+1, N+1)
output square the oracles index.

Dense input arrays are indexed [a1, b1, a2, b2] with every mode up to the
cutoff N; dense outputs [c1, d1, c2, d2]."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from homodyne_bell.analytic import ChshDecomposition
from homodyne_bell.bell import CrossTerm
from homodyne_bell.detection import PAIR_WEIGHTS, support_rows
from homodyne_bell.fock import coherent_amplitudes
from homodyne_bell.optics import ExperimentConfig, oscillators

_SIGNS = (1.0, 1.0, -1.0, 1.0)


def input_support(config: ExperimentConfig) -> np.ndarray:
    """Input amplitudes on their support, indexed [a1, b1, a2, b2] with a1,
    a2 up to the cutoff N and b1, b2 in {0, 1}: the stations' truncated
    oscillators (optics.oscillators) on a1 and a2 times the split photon
    on (b1, b2)."""
    lo1, lo2 = oscillators(config)
    pair = np.zeros((2, 2), dtype=np.complex128)
    pair[0, 1], pair[1, 0] = PAIR_WEIGHTS
    return lo1[:, None, None, None] * pair[:, None, :] * lo2[:, None]


def on_square(images: np.ndarray, cutoff: int) -> np.ndarray:
    """A mix_station pass images[r, s, i] cut at `cutoff` scattered into the
    dense square out[c, d, s, i]: row r = (t, c) of detection.support_rows
    at (c, t - c), zeros at every other output occupation."""
    total, c = support_rows(cutoff)
    out = np.zeros((cutoff + 1, cutoff + 1) + images.shape[1:], dtype=images.dtype)
    out[c, total - c] = images
    return out


def dense_favorable_probs(out: np.ndarray) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) read off a dense output out[c1, d1, c2, d2]
    by index: the slices out[1, 0] (Alice) and out[:, :, 1, 0] (Bob), the
    entry out[1, 0, 1, 0] (both), each over the norm vdot(out, out)."""
    norm_sq = float(np.vdot(out, out).real)
    p_a = float(np.sum(np.abs(out[1, 0]) ** 2)) / norm_sq
    p_b = float(np.sum(np.abs(out[:, :, 1, 0]) ** 2)) / norm_sq
    p_ab = float(abs(out[1, 0, 1, 0]) ** 2) / norm_sq
    return p_a, p_b, p_ab, norm_sq


def propagate(support: np.ndarray, xi: float, eta: float) -> np.ndarray:
    """Dense output [c1, d1, c2, d2] of a support array [a1, b1, a2, b2]
    (b1, b2 <= 1): Alice's station mixed at xi and Bob's at eta, both
    through their closed columns as matrices U (row c * (N+1) + d, column
    2a + b), out = U_A X U_B^T with X the support as a matrix over
    (Alice's input, Bob's input)."""
    n_a, n_b = support.shape[0], support.shape[2]
    u_a = dense_station_columns(xi, n_a - 1).reshape(n_a * n_a, 2 * n_a)
    u_b = dense_station_columns(eta, n_b - 1).reshape(n_b * n_b, 2 * n_b)
    out = u_a @ support.reshape(2 * n_a, 2 * n_b) @ u_b.T
    return out.reshape(n_a, n_a, n_b, n_b)


def on_support(dense: np.ndarray) -> np.ndarray:
    """The support slice b1, b2 <= 1 of a dense input array, refused when
    anything lies outside it."""
    outside = np.ones(dense.shape, dtype=bool)
    outside[:, :2, :, :2] = False
    if np.any(dense[outside]):
        raise ValueError("dense input has amplitude with b1 >= 2 or b2 >= 2")
    return dense[:, :2, :, :2]


def ab_product_expectation(u: np.ndarray, v: np.ndarray | None = None) -> complex:
    """Matrix element <u| A x B |v> of the product of station observables
    (1 - 2|1,0><1,0| at each station) between dense outputs.

    The literal quadratic/bilinear form on the truncated space: it uses
    <u|v>, not 1, and divides by no norm, which is what exact component
    decompositions need. With v omitted it returns <u| A x B |u>.
    """
    if v is None:
        v = u
    if u.shape != v.shape:
        raise ValueError("outputs must share their cutoffs")
    full = np.vdot(u, v)
    pa = np.vdot(u[1, 0], v[1, 0])
    pb = np.vdot(u[:, :, 1, 0], v[:, :, 1, 0])
    pab = np.conj(u[1, 0, 1, 0]) * v[1, 0, 1, 0]
    return complex(full - 2.0 * pa - 2.0 * pb + 4.0 * pab)


@dataclass(frozen=True)
class DenseSplit:
    """The symmetric input full = c1*psi1 + lam_coeff*lam as dense input
    arrays [a1, b1, a2, b2], every mode up to the cutoff N."""

    c1: float
    psi1: np.ndarray
    lam: np.ndarray
    lam_coeff: float
    full: np.ndarray


def dense_split_state(config: ExperimentConfig) -> DenseSplit:
    """The split built on dense input arrays: the tensor product of the two
    oscillators and the split photon over all (N+1)^4 occupations, psi1
    from two basis arrays and lam = full with psi1's two entries zeroed,
    divided by lam_coeff."""
    a2 = config.alpha1_sq
    alpha = math.sqrt(a2)
    c1 = alpha * math.exp(-a2)
    lam_coeff = math.sqrt(1.0 - a2 * math.exp(-2.0 * a2))
    n = config.resolve_cutoff()
    lo1, lo2 = coherent_amplitudes(
        (alpha * cmath.exp(1j * config.phi1),
         math.sqrt(config.alpha2_sq) * cmath.exp(1j * config.phi2)), n)
    z = 1.0 / math.sqrt(2.0)
    pair = np.zeros((n + 1, n + 1), dtype=complex)
    pair[0, 1], pair[1, 0] = z, 1j * z
    # outer product over (a1, b1, b2, a2), then the modes in input order
    full = np.moveaxis(np.multiply.outer(np.multiply.outer(lo1, pair), lo2), 3, 2)
    psi1 = np.zeros_like(full)
    psi1[1, 0, 0, 1] = z * np.exp(1j * config.phi1)
    psi1[0, 1, 1, 0] = z * 1j * np.exp(1j * config.phi2)
    lam = (1.0 / lam_coeff) * full
    lam[1, 0, 0, 1] = lam[0, 1, 1, 0] = 0.0
    return DenseSplit(c1, psi1, lam, lam_coeff, full)


def dense_chsh_decomposition(config: ExperimentConfig, xi, xi2, eta,
                             eta2) -> ChshDecomposition:
    """The split's CHSH parts (analytic.chsh_decomposition) at the setting
    pairs (xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2), with the full
    state and both components of the dense split propagated to the dense
    output at every pair, and their interference taken from the cross
    matrix elements."""
    split = dense_split_state(config)
    full = psi1_part = lam_part = interference = 0.0
    pairs = ((xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2))
    for sign, (x, y) in zip(_SIGNS, pairs):
        out_full = propagate(on_support(split.full), x, y)
        out_psi = propagate(on_support(split.psi1), x, y)
        out_lam = propagate(on_support(split.lam), x, y)
        full += sign * ab_product_expectation(out_full).real
        psi1_part += sign * ab_product_expectation(out_psi).real
        lam_part += sign * ab_product_expectation(out_lam).real
        cross = ab_product_expectation(out_psi, out_lam)
        interference += sign * 2.0 * split.c1 * split.lam_coeff * cross.real
    return ChshDecomposition(full, psi1_part, lam_part, interference,
                             split.c1, split.lam_coeff)


def dense_cross_terms(lam: np.ndarray, count: int = 10) -> list[CrossTerm]:
    """The `count` largest |<occ|lam>|^2 over every dense occupation, ties
    broken by flat (row-major) index."""
    weights = np.abs(lam.reshape(-1)) ** 2
    order = np.argsort(-weights, kind="stable")[:count]
    terms = []
    for flat in order:
        occ = tuple(int(v) for v in np.unravel_index(int(flat), lam.shape))
        terms.append(CrossTerm(
            occupation=occ,
            weight=float(weights[flat]),
            magnitude=float(math.sqrt(weights[flat])),
            alice_minus_one_reachable=(occ[0] + occ[1] == 1),
            bob_minus_one_reachable=(occ[2] + occ[3] == 1),
        ))
    return terms


def dense_station_columns(theta: float, cutoff: int) -> np.ndarray:
    """Columns of the station splitter on the input support, in closed
    binomial form: u[c, d, a, b] is the amplitude of output |c, d> from
    input |a, b> (lo count a <= cutoff, ph count b in {0, 1}), every output
    mode cut at the cutoff:

        U|a,0> = sum_p sqrt(C(a,p)) cos(theta/2)^p (i sin(theta/2))^(a-p) |p, a-p>
        U|a,1> = (i sin(theta/2) C+ + cos(theta/2) D+) U|a,0>

    The |a, 0> columns are written on their support, then both raises of
    the |a, 1> columns over the whole (N+1)^3 array, shifted by one output
    count and cut at the cutoff. Only |cutoff, 1> loses amplitude at the
    edge."""
    cos, i_sin = math.cos(theta / 2.0), 1j * math.sin(theta / 2.0)
    roots = np.sqrt([[float(math.comb(a, p)) for p in range(cutoff + 1)]
                     for a in range(cutoff + 1)])
    a, p = np.nonzero(roots)
    u = np.zeros((cutoff + 1, cutoff + 1, cutoff + 1, 2), dtype=np.complex128)
    u[p, a - p, a, 0] = roots[a, p] * cos ** p * i_sin ** (a - p)
    raise_weight = np.sqrt(np.arange(1, cutoff + 1))
    u[1:, :, :, 1] = i_sin * raise_weight[:, None, None] * u[:-1, :, :, 0]
    u[:, 1:, :, 1] += cos * raise_weight[None, :, None] * u[:, :-1, :, 0]
    return u
