"""Born-rule readout, the one home of every detection probability.

Both beamsplitters are local, so the output is sum_k w_k A_k (x) B_k with
w = optics.PAIR_WEIGHTS and A_k, B_k each station's two mixed input terms,
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

WEIGHT_PAIRS = np.outer(PAIR_WEIGHTS.conj(), PAIR_WEIGHTS)


def station_vectors(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix <V_k|V_l> of a station's output columns V_k =
    terms[..., k], and their favorable (1, 0) amplitudes."""
    flat = terms.reshape(-1, terms.shape[-1])
    return flat.conj().T @ flat, terms[1, 0]


def pair_probabilities(alice, bob) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of sum_k w_k A_k (x) B_k from the two
    stations' station_vectors: the favorable probability at Alice, at Bob
    and at both at once, each divided by the norm, and the norm."""
    (gram_a, a), (gram_b, b) = alice, bob
    norm = np.sum(WEIGHT_PAIRS * gram_a * gram_b).real
    p_a = np.sum(WEIGHT_PAIRS * np.outer(a.conj(), a) * gram_b).real
    p_b = np.sum(WEIGHT_PAIRS * gram_a * np.outer(b.conj(), b)).real
    p_ab = abs(np.sum(PAIR_WEIGHTS * a * b)) ** 2
    return float(p_a / norm), float(p_b / norm), float(p_ab / norm), float(norm)


def favorable_probs(network: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[float, float, float, float]:
    """pair_probabilities of a network (alice_terms, bob_terms) as
    optics.run_network returns it."""
    alice, bob = network
    return pair_probabilities(station_vectors(alice), station_vectors(bob))
