"""Photon-number truncation: the per-mode cutoff policy, truncated
coherent amplitudes and the Poisson terms of their photon numbers.

Every engine works on per-mode occupations 0..N. A coherent input loses its
Poisson tail beyond N; required_cutoff picks the smallest N that keeps that
tail under a budget. The amplitudes and the Poisson terms are separate
calls, each with its own readers: the stations' oscillators
(optics.oscillators) take only the amplitudes (coherent_amplitudes), and
the terms p_0..p_N (poisson_terms), taken on real numbers with no
amplitude built, give the split's residual listing its weights
(bell.lambda_cross_terms) and, summed by row (cli._input_norm), verify's
network_unitarity check the input's norm apart from the amplitudes the
network mixes.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

# e^{-|a|^2/2} underflows long before this; reject absurd drive strengths.
MAX_ALPHA_SQ = 700.0

# Largest per-mode cutoff any engine accepts. No engine builds an (N+1)^4
# array: the largest left is mix_station's per-cutoff mixing table
# (2 (N+2) eigenvector products on each of the (N+1)(N+2)/2 + N
# photon-number support rows, 2.2 MB at N = 63). verify resolves
# at most N = 26 at the default tail; alpha_sq = 50 resolves to N = 108.
MAX_CUTOFF = 63

# Smallest tail budget required_cutoff resolves: below it the Poisson terms
# that make up such a tail leave the normal double range.
MIN_TAIL_EPS = 1e-280


def required_cutoff(alpha_sq: float, tail_eps: float) -> int:
    """Smallest N whose Poisson(alpha_sq) tail beyond N is strictly below tail_eps.

    The photon-number distribution of a coherent state with mean photon
    number alpha_sq is Poisson, so this is the minimal per-mode cutoff that
    keeps the discarded probability of one coherent input under tail_eps.
    Each tail is summed smallest terms first: 1 - sum(p_0..p_N) stalls at
    the rounding of 1, about 1e-16, below many budgets.
    """
    if not alpha_sq >= 0:  # written so that NaN is refused too
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    if not MIN_TAIL_EPS <= tail_eps < 1.0:
        raise ValueError(f"tail_eps must be in [{MIN_TAIL_EPS:g}, 1), got {tail_eps}")
    if alpha_sq > MAX_ALPHA_SQ:
        raise ValueError(f"alpha_sq={alpha_sq} exceeds the float-safe range "
                         f"(at most {MAX_ALPHA_SQ:g})")
    # p_0..p_n up to n past 2 alpha_sq, where the terms at least halve, and
    # p_n below 1e-14 tail_eps, which bounds all the terms left out
    term = math.exp(-alpha_sq)
    terms = [term]
    n, halving, floor = 0, 2.0 * alpha_sq, 1e-14 * tail_eps
    while n <= halving or term > floor:
        n += 1
        term *= alpha_sq / n
        terms.append(term)
    # tails[j] is the tail beyond n - j - 1, to a relative error below
    # 1e-12, so a tail within that of tail_eps counts as reaching it
    tails = list(accumulate(reversed(terms)))
    return max(0, n - bisect_left(tails, tail_eps * (1.0 - 1e-12)))


@dataclass(frozen=True)
class CutoffSpec:
    """Per-mode photon-number cutoff policy.

    ``n_max=None`` derives the cutoff from the largest coherent amplitude in
    play: required_cutoff(alpha_sq, tail_eps) plus one slot of headroom for
    the single injected photon, so that mode mixing at the edge leaks less
    than tail_eps per station. An explicit n_max outside [1, MAX_CUTOFF] is
    refused here, a derived one above MAX_CUTOFF by resolve.
    """

    n_max: int | None = None
    tail_eps: float = 1e-12

    def __post_init__(self):
        if self.n_max is not None and not 1 <= self.n_max <= MAX_CUTOFF:
            raise ValueError(f"n_max must be in [1, {MAX_CUTOFF}], "
                             f"got N={self.n_max}")
        if not MIN_TAIL_EPS <= self.tail_eps < 1.0:
            raise ValueError(f"tail_eps must be in [{MIN_TAIL_EPS:g}, 1), "
                             f"got {self.tail_eps}")

    def resolve(self, alpha_sq: float) -> int:
        """Per-mode cutoff N for the largest drive alpha_sq in play."""
        if self.n_max is not None:
            return self.n_max
        n = required_cutoff(alpha_sq, self.tail_eps) + 1
        if n > MAX_CUTOFF:
            raise ValueError(f"cutoff N={n} exceeds the limit N={MAX_CUTOFF}; "
                             "lower alpha_sq")
        return n


def coherent_amplitudes(alphas, cutoff: int) -> np.ndarray:
    """Truncated coherent amplitudes c_0..c_cutoff, read-only, one row per
    amplitude in alphas (a sequence, one per station).

    c_n = e^{-|a|^2/2} a^n / sqrt(n!), the running product (cumprod, no
    loop and no factorials) of e^{-|a|^2/2}, a / sqrt(1), ...,
    a / sqrt(cutoff), every row in the same cumprod and bit for bit the row
    of a call with its amplitude alone. A non-finite amplitude is refused
    before any allocation. The Poisson terms are not taken here: the
    stations' oscillators (optics.oscillators) need only the amplitudes,
    and the terms come from poisson_terms.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    heads = []
    for a in alphas:
        if not cmath.isfinite(a):
            raise ValueError(f"alpha must be finite, got {a}")
        mag = abs(a)
        if mag > MAX_ALPHA_SQ or mag ** 2 > MAX_ALPHA_SQ:  # no square overflows
            raise ValueError(f"|alpha|={mag:g} exceeds the float-safe range "
                             f"(|alpha|^2 at most {MAX_ALPHA_SQ:g})")
        heads.append(math.exp(-mag ** 2 / 2.0))
    factors = np.empty((len(alphas), cutoff + 1), dtype=np.complex128)
    factors[:, 0] = heads
    factors[:, 1:] = np.divide.outer(alphas, np.sqrt(np.arange(1.0, cutoff + 1)))
    amps = factors.cumprod(axis=1)
    amps.setflags(write=False)
    return amps


def poisson_terms(alpha_sq, cutoff: int) -> np.ndarray:
    """p_0..p_cutoff of Poisson(alpha_sq), p_n = e^{-alpha_sq} alpha_sq^n / n!,
    one row for each of the drives alpha_sq (a sequence): the running
    product of e^{-alpha_sq}, alpha_sq / 1, ..., alpha_sq / cutoff on real
    numbers, with no amplitude built. p_n equals |c_n|^2 of the truncated
    amplitudes to rounding without reading them."""
    terms = np.empty((len(alpha_sq), cutoff + 1))
    terms[:, 0] = [math.exp(-m) for m in alpha_sq]
    terms[:, 1:] = np.divide.outer(alpha_sq, np.arange(1.0, cutoff + 1))
    return terms.cumprod(axis=1)
