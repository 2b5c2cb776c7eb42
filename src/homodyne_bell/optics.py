"""The two-station network: experiment configuration, the station mixing of
the factorized engine, and the closed-column network of the verification
oracles.

Reflection-phase convention, used identically at every splitter:

    lo+  ->  cos(theta/2) c+  +  i sin(theta/2) d+
    ph+  ->  i sin(theta/2) c+  +  cos(theta/2) d+

so a photon entering the ph port reaches the counting port c with
probability sin^2(theta/2), and the transmittivity seen from either input
is cos^2(theta/2). Under this convention the closed-form phase-difference
argument used by the analytic module corresponds to phi2 - phi1 of the two
local-oscillator phases (see analytic module notes).

The input holds at most one photon at each ph port: its support is
input_support's (N+1, 2, N+1, 2) array over (a1, b1, a2, b2). Two
independent constructions of a splitter act on it, both cutting every
output mode at the per-mode cutoff N:

- mix_station, which the bell module uses, applies the exact mixing block
  of each total photon number, from a cached eigendecomposition of the
  mixing generator;
- station_columns writes the unitary's columns on a station's input
  support in closed binomial form. run_network returns them with the input
  support as the factors (U_A, X, U_B) of the output U_A X U_B^T, the
  brute-force route of the verification oracles (closed station columns
  -> factored network -> Born-rule readout in the detection module). It
  shares no mixing code with mix_station.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import MAX_CUTOFF, CutoffSpec, coherent_state

# weight of the input term with k photons at Alice's ph port and 1 - k at
# Bob's: the single photon split as (|0,1> + i|1,0>)/sqrt2 over (b1, b2)
PAIR_WEIGHTS = np.array([1.0, 1.0j]) / math.sqrt(2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Local-oscillator drive of the two stations plus the cutoff policy.

    alpha1/alpha2 are non-negative magnitudes; phi1/phi2 the oscillator
    phases. The phase difference is always derived, never stored.
    """

    alpha1: float
    alpha2: float
    phi1: float = 0.0
    phi2: float = 0.0
    cutoff: CutoffSpec = CutoffSpec()

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("oscillator magnitudes must be non-negative")

    @property
    def max_alpha_sq(self) -> float:
        return max(self.alpha1, self.alpha2) ** 2

    def resolve_cutoff(self) -> int:
        """Per-mode cutoff N of every engine (fock.CutoffSpec's policy)."""
        return self.cutoff.resolve(self.max_alpha_sq)


def symmetric_config(alpha_sq: float, dphi: float = 0.0,
                     cutoff: CutoffSpec = CutoffSpec()) -> ExperimentConfig:
    """Equal-strength config with phi1=0 and phi2=dphi under the cutoff
    policy.

    dphi here is the phase-difference argument as the closed forms take it
    (phi2 - phi1 under this network's reflection convention).
    """
    a = math.sqrt(alpha_sq)
    return ExperimentConfig(a, a, 0.0, dphi, cutoff)


def input_support(config: ExperimentConfig) -> np.ndarray:
    """Input amplitudes on their support, indexed [a1, b1, a2, b2] with a1,
    a2 up to the cutoff N and b1, b2 in {0, 1}: the truncated oscillators on
    a1 and a2 times the split photon on (b1, b2). The cutoff is resolved
    first, so a config above MAX_CUTOFF is refused before any allocation."""
    n = config.resolve_cutoff()
    lo1, _ = coherent_state(config.alpha1 * cmath.exp(1j * config.phi1), n)
    lo2, _ = coherent_state(config.alpha2 * cmath.exp(1j * config.phi2), n)
    pair = np.zeros((2, 2), dtype=np.complex128)
    pair[0, 1], pair[1, 0] = PAIR_WEIGHTS
    return lo1[:, None, None, None] * pair[:, None, :] * lo2[:, None]


@lru_cache(maxsize=512)
def _mixing_eig(total: int):
    """Eigendecomposition of the two-mode mixing generator on the total-photon
    subspace with `total` photons (real symmetric tridiagonal, size total+1)."""
    x = np.zeros((total + 1, total + 1))
    for m in range(total):
        v = math.sqrt((m + 1) * (total - m))
        x[m + 1, m] = v
        x[m, m + 1] = v
    lam, vec = np.linalg.eigh(x)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


# Searches rarely revisit an angle, so the cache mostly holds blocks that
# are not asked for again; 256 slots bound what it keeps (a block holds
# (total + 1)^2 complex entries, 66 KiB at total 64).
@lru_cache(maxsize=256)
def _pair_block(theta: float, total: int) -> np.ndarray:
    """Exact two-mode mixing unitary on the total-photon subspace, basis
    ordered by the lo-mode count m = 0..total."""
    lam, vec = _mixing_eig(total)
    phases = np.exp(1j * (theta / 2.0) * lam)
    block = (vec * phases) @ vec.T
    block.setflags(write=False)
    return block


def mix_station(columns: np.ndarray, theta: float) -> np.ndarray:
    """Input columns of one station mixed at angle theta.

    columns[a, b, k] is the amplitude of input occupation (lo = a, ph = b)
    in column k, with b in {0, 1} and a up to the station cutoff
    columns.shape[0] - 1. Returns out[c, d, k], the amplitude of output
    occupation (c, d) for column k, both output modes cut at the station
    cutoff.

    All columns are evolved in one block pass with the pair index leading
    and the column index trailing: within total photon number t the flat
    pair indices c * (cutoff + 1) + d of the kept occupations are
    t + c * cutoff for c = c_lo..c_hi. The input holds at most cutoff + 1
    photons and mixing conserves the pair's photon number, so every block
    above total cutoff + 1 has zero input and zero output; those blocks are
    skipped, which is exact and keeps their large mixing blocks out of the
    cache.
    """
    cutoff = columns.shape[0] - 1
    if cutoff < 1:
        raise ValueError("station cutoff must be >= 1 to hold the ph-port photon")
    stride = cutoff + 1
    inputs = np.zeros((stride, stride, columns.shape[2]), dtype=np.complex128)
    inputs[:, :2] = columns
    flat = inputs.reshape(stride * stride, -1)
    out = np.zeros_like(flat)
    for t in range(cutoff + 2):
        c_lo, c_hi = max(0, t - cutoff), min(cutoff, t)
        rows = slice(t + c_lo * cutoff, t + c_hi * cutoff + 1, cutoff)
        block = _pair_block(theta, t)[c_lo:c_hi + 1, c_lo:c_hi + 1]
        out[rows] = block @ flat[rows]
    return out.reshape(stride, stride, -1)


@lru_cache(maxsize=MAX_CUTOFF)
def _root_binomials(cutoff: int) -> np.ndarray:
    """sqrt(C(a, p)) for a, p = 0..cutoff (zero for p > a), read-only."""
    table = np.sqrt([[float(math.comb(a, p)) for p in range(cutoff + 1)]
                     for a in range(cutoff + 1)])
    table.setflags(write=False)
    return table


def station_columns(theta: float, cutoff: int) -> np.ndarray:
    """Columns of the station splitter on the input support, in closed form.

    Returns u[c, d, a, b], the amplitude of output |c, d> from input
    |a, b> (lo count a <= cutoff, ph count b in {0, 1}), every output mode
    cut at the cutoff:

        U|a,0> = sum_p sqrt(C(a,p)) cos(theta/2)^p (i sin(theta/2))^(a-p) |p, a-p>
        U|a,1> = (i sin(theta/2) C+ + cos(theta/2) D+) U|a,0>

    Only |cutoff, 1> loses amplitude at the edge, the probability
    (cutoff + 1) (s^2 c^(2 cutoff) + c^2 s^(2 cutoff)) with c, s the cosine
    and sine of theta/2.
    """
    if cutoff < 1:
        raise ValueError("station cutoff must be >= 1 to hold the ph-port photon")
    cos, i_sin = math.cos(theta / 2.0), 1j * math.sin(theta / 2.0)
    roots = _root_binomials(cutoff)
    a, p = np.nonzero(roots)
    u = np.zeros((cutoff + 1, cutoff + 1, cutoff + 1, 2), dtype=np.complex128)
    u[p, a - p, a, 0] = roots[a, p] * cos ** p * i_sin ** (a - p)
    # C+ and D+ raise one output count n by one with weight sqrt(n + 1);
    # raised counts beyond the cutoff are dropped
    raise_weight = np.sqrt(np.arange(1, cutoff + 1))
    u[1:, :, :, 1] = i_sin * raise_weight[:, None, None] * u[:-1, :, :, 0]
    u[:, 1:, :, 1] += cos * raise_weight[None, :, None] * u[:, :-1, :, 0]
    return u


def run_network(config: ExperimentConfig, xi: float,
                eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network in factored form (u_a, x, u_b): Alice's station mixed at
    xi and Bob's at eta, each by its closed columns as a ((N+1)^2, 2(N+1))
    matrix (row c * (N+1) + d is output |c, d>, column 2a + b input
    |a, b>), and x the input support as a (2(N+1), 2(N+1)) matrix over
    (Alice's input, Bob's input). The output amplitude of |c1, d1, c2, d2>
    is entry (c1 * (N+1) + d1, c2 * (N+1) + d2) of u_a @ x @ u_b.T, which
    is never built: detection.favorable_probs contracts the factors."""
    source = input_support(config)
    n = source.shape[0] - 1
    dim = 2 * (n + 1)
    return (station_columns(xi, n).reshape(-1, dim), source.reshape(dim, dim),
            station_columns(eta, n).reshape(-1, dim))
