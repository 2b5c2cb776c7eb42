"""Born-rule readout, the one home of every detection probability.

Both beamsplitters are local, so the output is sum_k w_k A_k (x) B_k with
w = optics.PAIR_WEIGHTS and A_k, B_k the terms of optics.station_inputs,
mixed by optics.mix_station for the station engine (bell) and for the
verification oracles' network (optics.run_network) alike. station_vectors
reduces a station to the Gram matrix G of its terms and their favorable
amplitudes f at (c, d) = (1, 0), exactly one photon at the counting port
and none at the veto port, the -1 outcome. With W = conj(w) w^T each
weight is a rank-2 contraction, and the (N+1)^4 output is never built:

    <psi|psi>      = sum W G_A G_B
    p_A <psi|psi>  = sum W conj(f_A) f_A^T G_B
    p_B <psi|psi>  = sum W G_A conj(f_B) f_B^T
    p_AB <psi|psi> = |sum_k w_k f_A[k] f_B[k]|^2

G carries what the columns lose at the cutoff edge into the norm, and each
probability is divided by <psi|psi>: conditional on the truncated space,
so p_A, p_B, p_AB and their complements share one normalization.
"""

from __future__ import annotations

import numpy as np

from .optics import PAIR_WEIGHTS

# W = conj(w) w^T and w as plain complex numbers, W flattened row-major: a
# station's 2x2 Gram matrix is too small for numpy's per-call overhead
WEIGHT_PAIRS = np.outer(PAIR_WEIGHTS.conj(), PAIR_WEIGHTS).ravel().tolist()
_WEIGHTS = PAIR_WEIGHTS.tolist()


def station_vectors(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix <V_k|V_l> of a station's output columns V_k =
    terms[..., k], and their favorable (1, 0) amplitudes."""
    flat = terms.reshape(-1, terms.shape[-1])
    return flat.conj().T @ flat, terms[1, 0]


def _weighted_sum(x, y) -> float:
    """Re sum W * x * y over the flat 2x2 entries of x and y."""
    (w0, w1, w2, w3), (x0, x1, x2, x3), (y0, y1, y2, y3) = WEIGHT_PAIRS, x, y
    return (w0 * x0 * y0 + w1 * x1 * y1 + w2 * x2 * y2 + w3 * x3 * y3).real


def _outer(v0, v1) -> tuple[complex, complex, complex, complex]:
    """conj(v) v^T of the 2-vector v = (v0, v1), flattened row-major."""
    c0, c1 = v0.conjugate(), v1.conjugate()
    return c0 * v0, c0 * v1, c1 * v0, c1 * v1


def pair_probabilities(alice, bob) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of sum_k w_k A_k (x) B_k from the two
    stations' station_vectors: the favorable probability at Alice, at Bob
    and at both at once, each divided by the norm, and the norm. Each
    station must hold two terms, a (2, 2) Gram matrix and a (2,) favorable
    vector; the sums run on plain Python complex numbers."""
    for gram, fav in (alice, bob):
        if gram.shape != (2, 2) or fav.shape != (2,):
            raise ValueError("a station needs a (2, 2) Gram matrix and a (2,) "
                             f"favorable vector, got {gram.shape} and {fav.shape}")
    (gram_a, a), (gram_b, b) = alice, bob
    gram_a, gram_b = gram_a.ravel().tolist(), gram_b.ravel().tolist()
    (a0, a1), (b0, b1), (w0, w1) = a.tolist(), b.tolist(), _WEIGHTS
    norm = _weighted_sum(gram_a, gram_b)
    p_a = _weighted_sum(_outer(a0, a1), gram_b)
    p_b = _weighted_sum(gram_a, _outer(b0, b1))
    p_ab = abs(w0 * a0 * b0 + w1 * a1 * b1) ** 2
    return p_a / norm, p_b / norm, p_ab / norm, norm


def favorable_probs(network: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[float, float, float, float]:
    """pair_probabilities of a network (alice_terms, bob_terms) as
    optics.run_network returns it."""
    alice, bob = network
    return pair_probabilities(station_vectors(alice), station_vectors(bob))
