"""Born-rule readout, the one home of every detection probability, of a
pass's output row order, of the favorable outcome (1, 0) and of the term
order.

Both beamsplitters are local, so the output is sum_k w_k A_k (x) B_k with
w = PAIR_WEIGHTS and A_k, B_k each station's terms: Alice's term k is the
image of her oscillator lo (x) |k> and Bob's the image of lo (x) |1 - k>,
mixed by optics.mix_station in one pass over all of a network's settings,
for the station engine (bell) and for the verification oracles' network
(optics.run_network) alike. A pass holds only the outputs (c, d) that
conserve photon number, c + d = t <= N + 1 with c, d <= N, as rows in
support_rows' order: by t, then by c, so each total is one run of rows
and (1, 0) is row 2; optics reads that order once per cutoff, in its
cached _pair_block. read_pass reads every setting of a pass at once,
reducing each to the Gram matrix G of its terms and their favorable
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

G comes from a real product, the float64 view of the images times its
transpose (numpy runs it as BLAS dsyrk), never from the complex
flat^H flat (zgemm). Both cost about the same, but OpenBLAS's complex
kernel leaves the CPU in a state, likely dirty upper halves of the AVX-512
registers, that slows every libm call after it (sin, cos, exp) until some
numpy vector loop happens to run. On a 2-vCPU AVX-512 Xeon VM with
OpenBLAS 0.3.31 and one thread, analytic.ch_chsh_point took 2.3 us after
the real product of a record's pass and 5.5 us after the complex one, and
math.sin 5 to 7 times as long. The search evaluates the closed forms
right after each record, so no complex BLAS product belongs on its path.

The module imports no other module of the package.
"""

from __future__ import annotations

import math

import numpy as np

# weight of the input term with k photons at Alice's ph port and 1 - k at
# Bob's: the single photon split as (|0,1> + i|1,0>)/sqrt2 over (b1, b2)
PAIR_WEIGHTS = np.array([1.0, 1.0j]) / math.sqrt(2.0)

# W = conj(w) w^T and w as plain complex numbers, W flattened row-major: a
# station's 2x2 Gram matrix is too small for numpy's per-call overhead
WEIGHT_PAIRS = np.outer(PAIR_WEIGHTS.conj(), PAIR_WEIGHTS).ravel().tolist()
_WEIGHTS = PAIR_WEIGHTS.tolist()

# the favorable occupation (1, 0)'s row, after (0, 0) and (0, 1)
FAVORABLE_ROW = 2


def support_rows(cutoff: int) -> np.ndarray:
    """(t, c) of every output row of a mix_station pass cut at `cutoff`, as
    two read-only rows: row r holds the occupation (c[r], t[r] - c[r]).
    Uncached: its one caller, optics._pair_block, is cached."""
    rows = np.array([(t, c) for t in range(cutoff + 2)
                     for c in range(max(0, t - cutoff), min(t, cutoff) + 1)]).T.copy()
    rows.setflags(write=False)
    return rows


def read_pass(images: np.ndarray, alice: int
              ) -> list[tuple[list[complex], list[complex]]]:
    """Every setting of one optics.mix_station pass as pair_probabilities
    reads it: the Gram matrix <V_k|V_l> of the setting's terms V_k,
    flattened row-major, and their favorable (1, 0) amplitudes, as plain
    Python complex numbers.

    The pass's first `alice` settings are Alice's and the rest Bob's.
    images[r, s, i], S settings, is output row r (support_rows) of setting
    i's image of lo (x) |s>, so Alice's term k is column k S + i of
    images.reshape(rows, -1) and Bob's column (1 - k) S + i. One real Gram
    product over the float64 view of all of the pass's rows gives every
    setting's entries: the complex product would cost the same but slow
    the plain-float closed forms run after it more than twofold (module
    docstring). A pass's rows are C-contiguous, so the view copies
    nothing. Each G is exactly Hermitian with a real diagonal."""
    settings = images.shape[2]
    two = 2 * settings
    parts = np.ascontiguousarray(images).reshape(-1, two).view(np.float64)
    r = parts.T @ parts
    # column k's real and imaginary parts are parts' columns 2k and 2k + 1,
    # so <V_k|V_l> = r[2k, 2l] + r[2k+1, 2l+1] + i (r[2k, 2l+1] - r[2k+1, 2l]).
    # Setting i's terms are columns i and S + i: its entries lie on r's
    # diagonal and on three diagonals of the block r[:2S, 2S:]
    cross = r[:two, two:]
    sq, real, up, down = (r.diagonal().tolist(), cross.diagonal().tolist(),
                          cross.diagonal(1).tolist(), cross.diagonal(-1).tolist())
    fav = images[FAVORABLE_ROW].reshape(-1).tolist()
    stations = []
    for i in range(settings):
        a, b = 2 * i, two + 2 * i  # r's rows of columns i and S + i
        g00, g11 = complex(sq[a] + sq[a + 1]), complex(sq[b] + sq[b + 1])
        g01 = complex(real[a] + real[a + 1], up[a] - down[a])
        if i < alice:
            stations.append(([g00, g01, g01.conjugate(), g11],
                             [fav[i], fav[settings + i]]))
        else:
            stations.append(([g11, g01.conjugate(), g01, g00],
                             [fav[settings + i], fav[i]]))
    return stations


def weighted_sum(x, y) -> float:
    """Re sum W * x * y over two stations' flat 2x2 term matrices x, y."""
    (w0, w1, w2, w3), (x0, x1, x2, x3), (y0, y1, y2, y3) = WEIGHT_PAIRS, x, y
    return (w0 * x0 * y0 + w1 * x1 * y1 + w2 * x2 * y2 + w3 * x3 * y3).real


def _outer(v0, v1) -> tuple[complex, complex, complex, complex]:
    """conj(v) v^T of the 2-vector v = (v0, v1), flattened row-major."""
    c0, c1 = v0.conjugate(), v1.conjugate()
    return c0 * v0, c0 * v1, c1 * v0, c1 * v1


def pair_probabilities(alice, bob) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of sum_k w_k A_k (x) B_k from the two
    stations' read_pass readouts: the favorable probability at Alice, at
    Bob and at both at once, each divided by the norm, and the norm. The
    sums run on plain Python complex numbers, so a station read once serves
    every pair it is in. A station unpacks into exactly four Gram entries
    and two favorable amplitudes, so one of any other shape is refused
    rather than read in part, and so is a norm that is 0 or not finite (a
    state with no weight within the cutoff)."""
    (gram_a, (a0, a1)), (gram_b, (b0, b1)), (w0, w1) = alice, bob, _WEIGHTS
    norm = weighted_sum(gram_a, gram_b)
    if not 0.0 < norm < math.inf:  # written so that NaN is refused too
        raise ValueError(f"the truncated norm <psi|psi> = {norm!r} leaves no "
                         "probability to condition on: the state has no finite "
                         "weight within the per-mode cutoff N; raise the cutoff "
                         "(cutoff_n) or lower alpha_sq")
    p_a = weighted_sum(_outer(a0, a1), gram_b)
    p_b = weighted_sum(gram_a, _outer(b0, b1))
    p_ab = abs(w0 * a0 * b0 + w1 * a1 * b1) ** 2
    return p_a / norm, p_b / norm, p_ab / norm, norm
