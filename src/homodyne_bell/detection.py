"""Born-rule readout, the one home of every detection probability.

Both beamsplitters are local, so the output is sum_k w_k A_k (x) B_k with
w = optics.PAIR_WEIGHTS and A_k, B_k each station's terms: the images of
its oscillator with k or 1 - k ph photons, mixed by optics.mix_station in
one pass over all of a network's settings, for the station engine (bell)
and for the verification oracles' network (optics.run_network) alike.
station_vectors reads every setting of a pass at once, reducing each to
the Gram matrix G of its terms, in the term order optics.station_inputs
decides, and their favorable amplitudes f at (c, d) = (1, 0), exactly one
photon at the counting port and none at the veto port, the -1 outcome.
With W = conj(w) w^T each weight is a rank-2 contraction, and the
(N+1)^4 output is never built:

    <psi|psi>      = sum W G_A G_B
    p_A <psi|psi>  = sum W conj(f_A) f_A^T G_B
    p_B <psi|psi>  = sum W G_A conj(f_B) f_B^T
    p_AB <psi|psi> = |sum_k w_k f_A[k] f_B[k]|^2

G carries what the columns lose at the cutoff edge into the norm, and each
probability is divided by <psi|psi>: conditional on the truncated space,
so p_A, p_B, p_AB and their complements share one normalization.
"""

from __future__ import annotations

import math

import numpy as np

from .optics import PAIR_WEIGHTS

# W = conj(w) w^T and w as plain complex numbers, W flattened row-major: a
# station's 2x2 Gram matrix is too small for numpy's per-call overhead
WEIGHT_PAIRS = np.outer(PAIR_WEIGHTS.conj(), PAIR_WEIGHTS).ravel().tolist()
_WEIGHTS = PAIR_WEIGHTS.tolist()


def station_vectors(images: np.ndarray, terms: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Every setting of one optics.mix_station pass read at once: the Gram
    matrices <V_k|V_l> of each setting's terms V_k and their favorable
    (1, 0) amplitudes.

    Column j of images.reshape(N+1, N+1, -1) is one image, and terms[i, k]
    the column of setting i's term k (optics.station_inputs). One Gram
    matmul over all of the pass's columns, then one index each for the
    settings' blocks and for the favorable row, give grams[i] (m, m) and
    favs[i] (m,) for the m terms of setting i."""
    flat = images.reshape(-1, images.shape[2] * images.shape[3])
    gram = flat.conj().T @ flat
    return (gram[terms[:, :, None], terms[:, None, :]],
            images[1, 0].reshape(-1)[terms])


def _weighted_sum(x, y) -> float:
    """Re sum W * x * y over the flat 2x2 entries of x and y."""
    (w0, w1, w2, w3), (x0, x1, x2, x3), (y0, y1, y2, y3) = WEIGHT_PAIRS, x, y
    return (w0 * x0 * y0 + w1 * x1 * y1 + w2 * x2 * y2 + w3 * x3 * y3).real


def _outer(v0, v1) -> tuple[complex, complex, complex, complex]:
    """conj(v) v^T of the 2-vector v = (v0, v1), flattened row-major."""
    c0, c1 = v0.conjugate(), v1.conjugate()
    return c0 * v0, c0 * v1, c1 * v0, c1 * v1


def plain_station(gram: np.ndarray, fav: np.ndarray
                  ) -> tuple[list[complex], list[complex]]:
    """One station of station_vectors as pair_probabilities reads it: its
    Gram matrix flattened row-major and its favorable vector, as plain
    Python complex numbers. The station must hold two terms, a (2, 2) Gram
    matrix and a (2,) favorable vector; any other shape is refused rather
    than read in part."""
    if gram.shape != (2, 2) or fav.shape != (2,):
        raise ValueError("a station needs a (2, 2) Gram matrix and a (2,) "
                         f"favorable vector, got {gram.shape} and {fav.shape}")
    return gram.ravel().tolist(), fav.tolist()


def pair_probabilities(alice, bob) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of sum_k w_k A_k (x) B_k from the two
    stations' plain_station readouts: the favorable probability at Alice,
    at Bob and at both at once, each divided by the norm, and the norm.
    The sums run on plain Python complex numbers, so a station converted
    once serves every pair it is in. A norm that is 0 or not finite (a
    state with no weight within the cutoff) is refused."""
    (gram_a, (a0, a1)), (gram_b, (b0, b1)), (w0, w1) = alice, bob, _WEIGHTS
    norm = _weighted_sum(gram_a, gram_b)
    if not 0.0 < norm < math.inf:  # written so that NaN is refused too
        raise ValueError(f"the truncated norm <psi|psi> = {norm!r} leaves no "
                         "probability to condition on: the state has no finite "
                         "weight within the per-mode cutoff N; raise the cutoff "
                         "(cutoff_n) or lower alpha_sq")
    p_a = _weighted_sum(_outer(a0, a1), gram_b)
    p_b = _weighted_sum(gram_a, _outer(b0, b1))
    p_ab = abs(w0 * a0 * b0 + w1 * a1 * b1) ** 2
    return p_a / norm, p_b / norm, p_ab / norm, norm


def favorable_probs(network: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[float, float, float, float]:
    """pair_probabilities of a network (images, terms) as
    optics.run_network returns it: Alice's setting, then Bob's."""
    grams, favs = station_vectors(*network)
    return pair_probabilities(plain_station(grams[0], favs[0]),
                              plain_station(grams[1], favs[1]))
