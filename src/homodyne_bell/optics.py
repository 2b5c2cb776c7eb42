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
input_support's (N+1, 2, N+1, 2) array over (a1, b1, a2, b2), and what a
station holds is its truncated oscillator on the lo port with 0 or 1
photon on the ph port. mix_station takes one oscillator per setting and
the angles of all of a pass's settings, and returns every setting's images
of lo (x) |0> and lo (x) |1> in one pass, every output mode cut at the
per-mode cutoff N: the mixing generator's spectrum is exact, so one real
product of a per-cutoff eigenvector table with every setting's phases
gives the block columns a station input reaches, one elementwise product
applies the input, and one gather places the mixed rows into the output
occupations. The station engine (bell) mixes all four settings of a record
in one pass, and the verification oracles' network (run_network) both
stations' settings in one; detection.read_pass reads either pass out in
the term order detection decides.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import PAIR_WEIGHTS, pair_probabilities, read_pass
from .fock import MAX_CUTOFF, CutoffSpec, coherent_amplitudes


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


def oscillators(config: ExperimentConfig) -> np.ndarray:
    """Both stations' truncated oscillators at the per-mode cutoff N, rows
    (Alice, Bob) of one fock.coherent_amplitudes call, bit for bit
    coherent_state's amplitudes; a mix_station pass takes each row once per
    setting of its station. The Poisson tails are not taken: no engine
    reads them, and the verification's norm reference takes its Poisson
    sums from fock.poisson_mass, apart from these amplitudes. The cutoff is
    resolved first, so a config above MAX_CUTOFF is refused before any
    allocation."""
    n = config.resolve_cutoff()
    return coherent_amplitudes(
        (math.sqrt(config.alpha1_sq) * cmath.exp(1j * config.phi1),
         math.sqrt(config.alpha2_sq) * cmath.exp(1j * config.phi2)), n)


def input_support(config: ExperimentConfig) -> np.ndarray:
    """Input amplitudes on their support, indexed [a1, b1, a2, b2] with a1,
    a2 up to the cutoff N and b1, b2 in {0, 1}: the truncated oscillators on
    a1 and a2 times the split photon on (b1, b2)."""
    lo1, lo2 = oscillators(config)
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


# The mixing table of one cutoff: 2 (N+1)(N+2)^2 eigenvector products
# (4.3 MB at N = 63), the phase exponents and two indices; an engine
# touches a few cutoffs, so one slot per cutoff bounds the cache.
@lru_cache(maxsize=MAX_CUTOFF)
def _pair_block(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angle-free mixing table of a station cut at `cutoff`, read-only.

    Within total photon number t the mixing generator is 2 J_x of spin
    t / 2: its eigenvalues are exactly 2j - t, j = 0..t, so with the
    eigenvectors vec of _mixing_eig(t) the mixing block, indexed by the
    lo-mode count, is e^{-i theta t / 2} vec diag(e^{i theta j}) vec^T. A
    station input holds at most one ph photon, so it reaches only block
    columns m = t (ph count 0) and m = t - 1 (ph count 1), and
    t <= cutoff + 1. Returns

    - prod[(t, c, s), j] = vec[c, j] vec[t - s, j] for output rows c <= N,
      as a (N+2)(N+1)2 x (N+2) matrix, zero where c > t or the input
      count t - s falls outside [0, N];
    - exponents: i j for j = 0..N+1, then -i t / 2 for t = 0..N+1, the
      phases' exponents per unit angle;
    - source[t, s] = t - s clipped to [0, N]: the lo count of input (t, s),
      clipped only where prod is zero;
    - take[c (N+1) + d]: the row of the mixed (t, c) rows that output
      pair (c, d) reads in one gather, (c + d)(N+1) + c where
      c + d <= N + 1. Every other output reads row 1, (t, c) = (0, 1),
      which is exactly zero: prod[(0, 1, s)] is zero, since no total-0
      input reaches c = 1.
    """
    stride, totals = cutoff + 1, cutoff + 2
    prod = np.zeros((totals, stride, 2, totals))
    for t in range(totals):
        vec = _mixing_eig(t)[1]
        rows = vec[:min(t, cutoff) + 1]
        if t <= cutoff:
            prod[t, :len(rows), 0, :t + 1] = rows * vec[t]
        if t >= 1:
            prod[t, :len(rows), 1, :t + 1] = rows * vec[t - 1]
    prod = prod.reshape(-1, totals)
    steps = np.arange(totals)
    exponents = np.concatenate((1j * steps, -0.5j * steps))
    source = np.clip(steps[:, None] - np.arange(2), 0, cutoff)
    c, d = np.divmod(np.arange(stride * stride), stride)
    take = np.where(c + d <= cutoff + 1, (c + d) * stride + c, 1)
    for array in (prod, exponents, source, take):
        array.setflags(write=False)
    return prod, exponents, source, take


def mix_station(lo: np.ndarray, angles) -> np.ndarray:
    """The images of lo (x) |0> and lo (x) |1> for every setting of one
    pass, each setting's oscillator mixed at its angle.

    lo[i] is setting i's oscillator on the lo port, amplitudes up to the
    station cutoff lo.shape[1] - 1, and angles[i] its angle. Returns
    out[c, d, s, i], the amplitude of output occupation (c, d) in the image
    of lo[i] (x) |s> at angles[i], both output modes cut at the station
    cutoff; column s * len(angles) + i of out.reshape(N+1, N+1, -1).

    Every setting and every total t <= cutoff + 1 is mixed in one pass over
    the cutoff's _pair_block table, with no loop: one real product of the
    eigenvector products with the phases e^{i theta j} of every angle, as
    (cos, sin) pairs, gives each total's two block columns M[t, c, s] up
    to the phase e^{-i theta t / 2}; one elementwise product with that phase
    and the input lo[t - s] gives the mixed rows (t, c), and one gather
    (the table's take index) reads out[c, d] from row (c + d, c). That is
    O(N^3) per setting. The settings of a pass share only the one product:
    its BLAS kernel depends on the pass's width, so a setting's images
    match those of a one-setting pass to rounding, not always bit for bit.
    The input holds at most cutoff + 1 photons and mixing conserves the
    pair's photon number, so every output of total above cutoff + 1 is
    exactly zero (the gather reads it from a row that is zero by
    construction), and so is every product of two images' outputs at
    different totals.
    """
    settings, stride = lo.shape
    if stride < 2:
        raise ValueError("station cutoff must be >= 1 to hold the ph-port photon")
    totals = stride + 1
    prod, exponents, source, take = _pair_block(stride - 1)
    phases = np.exp(np.multiply.outer(exponents, angles))
    # the phases e^{i theta j} read as (cos, sin) pairs, and the product
    # read back as complex block columns
    mixed = (prod @ phases[:totals].view(np.float64)).view(np.complex128)
    mixed = mixed.reshape(totals, stride, 2, settings)
    mixed *= (lo.T[source] * phases[totals:, None])[:, None]
    return mixed.reshape(totals * stride, 2 * settings).take(take, axis=0).reshape(
        stride, stride, 2, settings)


def run_network(config: ExperimentConfig, xi: float,
                eta: float) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of the network with Alice's station at
    xi and Bob's at eta (detection.pair_probabilities): both settings mixed
    in one mix_station pass and read out by detection.read_pass, as in
    bell.evaluate_settings."""
    alice, bob = read_pass(mix_station(oscillators(config), (xi, eta)), 1)
    return pair_probabilities(alice, bob)
