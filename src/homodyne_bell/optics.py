"""The two-station network: experiment configuration and the station
splitter.

Reflection-phase convention, used identically at every splitter:

    lo+  ->  cos(theta/2) c+  +  i sin(theta/2) d+
    ph+  ->  i sin(theta/2) c+  +  cos(theta/2) d+

so a photon entering the ph port reaches the counting port c with
probability sin^2(theta/2), and the transmittivity seen from either input
is cos^2(theta/2). Under this convention the closed-form phase-difference
argument used by the analytic module corresponds to phi2 - phi1 of the two
local-oscillator phases (see analytic module notes).

The input holds at most one photon at each ph port: its support is
input_support's (N+1, 2, N+1, 2) array over (a1, b1, a2, b2), and
station_inputs gives each station's two input terms as splitter columns.
mix_station mixes them, every output mode cut at the per-mode cutoff N:
one batched contraction of the phases with a per-cutoff table of the
mixing generator's eigendecomposition (its eigenvalues and the eigenvector
products of the two block columns a station input reaches), then one
gather of the mixed rows into the output occupations. The station
engine (bell) and the verification oracles' network (run_network) both
mix through it.
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

    alpha1_sq/alpha2_sq are the drive strengths |alpha|^2, the units of the
    closed forms and the search; phi1/phi2 the oscillator phases. The
    magnitude sqrt(alpha_sq) is taken only where a coherent amplitude is
    built, and the phase difference is always derived, never stored.
    """

    alpha1_sq: float
    alpha2_sq: float
    phi1: float = 0.0
    phi2: float = 0.0
    cutoff: CutoffSpec = CutoffSpec()

    def __post_init__(self):
        for name in ("alpha1_sq", "alpha2_sq", "phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha1_sq < 0 or self.alpha2_sq < 0:
            raise ValueError("alpha1_sq and alpha2_sq must be >= 0, got "
                             f"{self.alpha1_sq}, {self.alpha2_sq}")

    def resolve_cutoff(self) -> int:
        """Per-mode cutoff N of every engine (fock.CutoffSpec's policy)."""
        return self.cutoff.resolve(max(self.alpha1_sq, self.alpha2_sq))


def symmetric_config(alpha_sq: float, dphi: float = 0.0,
                     cutoff: CutoffSpec = CutoffSpec()) -> ExperimentConfig:
    """Equal-strength config with phi1=0 and phi2=dphi under the cutoff
    policy.

    dphi here is the phase-difference argument as the closed forms take it
    (phi2 - phi1 under this network's reflection convention).
    """
    return ExperimentConfig(alpha_sq, alpha_sq, 0.0, dphi, cutoff)


def _oscillators(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' truncated oscillators at the per-mode cutoff N. The
    cutoff is resolved first, so a config above MAX_CUTOFF is refused
    before any allocation."""
    n = config.resolve_cutoff()
    return (coherent_state(math.sqrt(config.alpha1_sq)
                           * cmath.exp(1j * config.phi1), n)[0],
            coherent_state(math.sqrt(config.alpha2_sq)
                           * cmath.exp(1j * config.phi2), n)[0])


def input_support(config: ExperimentConfig) -> np.ndarray:
    """Input amplitudes on their support, indexed [a1, b1, a2, b2] with a1,
    a2 up to the cutoff N and b1, b2 in {0, 1}: the truncated oscillators on
    a1 and a2 times the split photon on (b1, b2)."""
    lo1, lo2 = _oscillators(config)
    pair = np.zeros((2, 2), dtype=np.complex128)
    pair[0, 1], pair[1, 0] = PAIR_WEIGHTS
    return lo1[:, None, None, None] * pair[:, None, :] * lo2[:, None]


def station_inputs(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' input terms as splitter columns, each (N+1, 2, 2), in
    the term order of sum_k w_k A_k (x) B_k: column k holds the truncated
    oscillator on the lo port, with k photons on Alice's ph port and
    1 - k on Bob's."""
    lo1, lo2 = _oscillators(config)
    columns = np.zeros((2, len(lo1), 2, 2), dtype=np.complex128)
    columns[0, :, 0, 0] = columns[0, :, 1, 1] = lo1
    columns[1, :, 1, 0] = columns[1, :, 0, 1] = lo2
    return columns[0], columns[1]


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


# The mixing table of one cutoff: (N+2)^2 eigenvalues, 2 (N+1)(N+2)^2
# eigenvector products (557 KB at N = 31, 4.3 MB at N = 63) and the gather
# index; an engine touches a few cutoffs, so one slot per cutoff bounds
# the cache.
@lru_cache(maxsize=MAX_CUTOFF)
def _pair_block(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angle-free mixing table of a station cut at `cutoff`, read-only.

    Within total photon number t the mixing block is
    vec diag(e^{i theta lam / 2}) vec^T in the eigenbasis of _mixing_eig(t),
    indexed by the lo-mode count. A station input holds at most one ph
    photon, so it reaches only block columns m = t (ph count 0) and
    m = t - 1 (ph count 1), and t <= cutoff + 1. Returns

    - lam[t, j]: the eigenvalues of total t, zero-padded to (N+2, N+2);
    - prod[t, 2c + s, j] = vec[c, j] vec[t - s, j] for output rows c <= N,
      zero where c > t or the input count t - s falls outside [0, N];
    - take[c (N+1) + d]: the row of the mixed (t, c) rows that output
      pair (c, d) reads in one gather, (c + d)(N+1) + c where
      c + d <= N + 1. Every other output reads row 1, (t, c) = (0, 1),
      which is exactly zero: prod[0, 2 + s] is zero, since no total-0
      input reaches c = 1.
    """
    stride, totals = cutoff + 1, cutoff + 2
    lam = np.zeros((totals, totals))
    prod = np.zeros((totals, stride, 2, totals))
    for t in range(totals):
        lam_t, vec = _mixing_eig(t)
        lam[t, :t + 1] = lam_t
        rows = vec[:min(t, cutoff) + 1]
        if t <= cutoff:
            prod[t, :len(rows), 0, :t + 1] = rows * vec[t]
        if t >= 1:
            prod[t, :len(rows), 1, :t + 1] = rows * vec[t - 1]
    c, d = np.divmod(np.arange(stride * stride), stride)
    take = np.where(c + d <= cutoff + 1, (c + d) * stride + c, 1)
    prod = prod.reshape(totals, 2 * stride, totals)
    for array in (lam, prod, take):
        array.setflags(write=False)
    return lam, prod, take


def mix_station(columns: np.ndarray, theta: float) -> np.ndarray:
    """Input columns of one station mixed at angle theta.

    columns[a, b, k] is the amplitude of input occupation (lo = a, ph = b)
    in column k, with b in {0, 1} and a up to the station cutoff
    columns.shape[0] - 1. Returns out[c, d, k], the amplitude of output
    occupation (c, d) for column k, both output modes cut at the station
    cutoff.

    All totals t <= cutoff + 1 are mixed in one batched pass over the
    cutoff's _pair_block table, with no loop over t: one real product of
    the eigenvector products with the phases e^{i theta lam / 2}, as
    (cos, sin) pairs, gives the two block columns M[t, c, s] each total's
    input reaches, one product with the inputs x[t, s, k] =
    columns[t - s, s, k] gives the mixed rows (t, c), and one gather (the
    table's take index) reads out[c, d, k] from row (c + d, c). That is
    O(N^3) per angle. The input holds at most cutoff + 1 photons and mixing
    conserves the pair's photon number, so every output of total above
    cutoff + 1 is exactly zero (the gather reads it from a row that is
    zero by construction), and so is every product of two columns' outputs
    at different totals.
    """
    cutoff = columns.shape[0] - 1
    if cutoff < 1:
        raise ValueError("station cutoff must be >= 1 to hold the ph-port photon")
    stride, width = cutoff + 1, columns.shape[2]
    lam, prod, take = _pair_block(cutoff)
    # complex entries are read as their (re, im) pairs and back: the phases
    # e^{i theta lam / 2} as (cos, sin), the product as the block columns
    trig = np.exp((0.5j * theta) * lam).view(np.float64).reshape(lam.shape + (2,))
    block = (prod @ trig).view(np.complex128).reshape(cutoff + 2, stride, 2)
    inputs = np.zeros((cutoff + 2, 2, width), dtype=np.complex128)
    inputs[:-1, 0] = columns[:, 0]
    inputs[1:, 1] = columns[:, 1]
    mixed = (block @ inputs).reshape(-1, width)
    return mixed.take(take, axis=0).reshape(stride, stride, width)


def run_network(config: ExperimentConfig, xi: float,
                eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The network as its two stations' mixed input terms (alice, bob),
    each (N+1, N+1, 2): entry [c, d, k] is the amplitude of output |c, d>
    in term k of sum_k w_k A_k (x) B_k, Alice's station mixed at xi and
    Bob's at eta by mix_station, as in bell.evaluate_settings.
    detection.favorable_probs reads it out."""
    alice_in, bob_in = station_inputs(config)
    return mix_station(alice_in, xi), mix_station(bob_in, eta)
