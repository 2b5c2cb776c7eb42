"""Photon-number truncation: the per-mode cutoff policy and truncated
coherent amplitudes.

Every engine works on per-mode occupations 0..N. A coherent input loses its
Poisson tail beyond N; required_cutoff picks the smallest N that keeps that
tail under a budget, and coherent_state returns the truncated amplitudes
together with the probability they drop.
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
# (2 (N+1)(N+2)^2 eigenvector products, 4.3 MB at N = 63). verify resolves
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


def coherent_state(alpha, cutoff: int
                   ) -> tuple[np.ndarray, float | tuple[float, ...]]:
    """Truncated coherent amplitudes c_0..c_cutoff and their dropped tail.

    c_n = e^{-|a|^2/2} a^n / sqrt(n!), the running product (cumprod, no
    loop and no factorials) of e^{-|a|^2/2}, a / sqrt(1), ...,
    a / sqrt(cutoff); the array is read-only. The tail, the discarded
    probability, is 1 - sum p_n over the Poisson terms p_n = |c_n|^2 taken
    as the running product of e^{-|a|^2}, |a|^2 / 1, ..., |a|^2 / cutoff
    on real numbers. A rounding error in |a|^2 moves that sum only by
    p_cutoff times the error but every c_n by |a|^2 / 2 times it, so
    1 - sum |c_n|^2 would miss the tail by about 4e-15 at |a|^2 = 22.

    alpha is one amplitude, or a tuple or list of them (one per station):
    then every row comes from the same cumprod, amps is (len(alpha),
    cutoff + 1) and the tail a tuple, each row bit for bit the row of a
    call with that amplitude alone. A non-finite alpha is refused before
    any allocation.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    several = isinstance(alpha, (tuple, list))
    alphas = tuple(alpha) if several else (alpha,)
    mag_sq = []
    for a in alphas:
        if not cmath.isfinite(a):
            raise ValueError(f"alpha must be finite, got {a}")
        mag = abs(a)
        if mag > MAX_ALPHA_SQ or mag ** 2 > MAX_ALPHA_SQ:  # no square overflows
            raise ValueError(f"|alpha|={mag:g} exceeds the float-safe range "
                             f"(|alpha|^2 at most {MAX_ALPHA_SQ:g})")
        mag_sq.append(mag ** 2)
    n = np.arange(1.0, cutoff + 1)
    factors = np.empty((len(alphas), 2, cutoff + 1), dtype=np.complex128)
    factors[:, 0, 0] = [math.exp(-m / 2.0) for m in mag_sq]
    factors[:, 1, 0] = [math.exp(-m) for m in mag_sq]
    factors[:, 0, 1:] = np.divide.outer(alphas, np.sqrt(n))
    factors[:, 1, 1:] = np.divide.outer(mag_sq, n)
    running = factors.cumprod(axis=2)
    amps = running[:, 0]
    amps.setflags(write=False)
    tails = tuple(max(0.0, 1.0 - tail)
                  for tail in running[:, 1].real.sum(axis=1).tolist())
    return (amps, tails) if several else (amps[0], tails[0])
