"""Beamsplitter action on labeled mode pairs, the two-station network, and
the station mixing of the factorized engine.

Reflection-phase convention, used identically at every splitter:

    lo+  ->  cos(theta/2) c+  +  i sin(theta/2) d+
    ph+  ->  i sin(theta/2) c+  +  cos(theta/2) d+

so a photon entering the ph port reaches the counting port c with
probability sin^2(theta/2), and the transmittivity seen from either input
is cos^2(theta/2). Under this convention the closed-form phase-difference
argument used by the analytic module corresponds to phi2 - phi1 of the two
local-oscillator phases (see analytic module notes).

Two engines share the exact per-block mixing. mix_station evolves input
columns of one station (the ph port holding at most one photon), which is
all the bell module needs. The dense 4-mode network (build_input_state,
apply_beamsplitter, run_network) is the brute-force route the verification
oracles compare against, independent of that factorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    CutoffSpec,
    StateVector,
    POST_NETWORK_MODES,
    PRE_NETWORK_MODES,
    coherent_state,
    fock_basis_state,
    reorder_modes,
    tensor,
)

_STATION_OUTPUTS = {("a1", "b1"): ("c1", "d1"), ("a2", "b2"): ("c2", "d2")}

# Largest per-mode cutoff any engine accepts. The dense 4-mode state,
# (N+1)^4 complex amplitudes of 16 bytes, stays within 256 MiB exactly up to
# N = 63 (alpha_sq up to 22 at tail 1e-12), and the cached mixing blocks of
# a station grow as N^3. alpha_sq = 50 resolves to N = 108, a 2.1 GiB dense
# state.
MAX_CUTOFF = 63


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
        """Per-mode cutoff N of every engine, refused above MAX_CUTOFF."""
        n = self.cutoff.resolve(self.max_alpha_sq)
        if n < 1 and self.max_alpha_sq > 0:
            raise ValueError("cutoff must be >= 1 when a coherent drive is present")
        if n > MAX_CUTOFF:
            dense_gib = (n + 1) ** 4 * np.dtype(np.complex128).itemsize / 2**30
            raise ValueError(
                f"cutoff N={n} exceeds the limit N={MAX_CUTOFF} (a dense 4-mode "
                f"state would need {dense_gib:.1f} GiB); lower alpha_sq")
        return max(n, 1)


def symmetric_config(alpha_sq: float, dphi: float = 0.0,
                     tail_eps: float = 1e-12,
                     n_max: int | None = None) -> ExperimentConfig:
    """Equal-strength config with phi1=0 and phi2=dphi.

    dphi here is the phase-difference argument as the closed forms take it
    (phi2 - phi1 under this network's reflection convention).
    """
    a = math.sqrt(alpha_sq)
    return ExperimentConfig(a, a, 0.0, dphi, CutoffSpec(n_max, tail_eps))


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


@lru_cache(maxsize=4096)
def _pair_block(theta: float, total: int) -> np.ndarray:
    """Exact two-mode mixing unitary on the total-photon subspace, basis
    ordered by the lo-mode count m = 0..total."""
    lam, vec = _mixing_eig(total)
    phases = np.exp(1j * (theta / 2.0) * lam)
    block = (vec * phases) @ vec.T
    block.setflags(write=False)
    return block


def _block_slices(n_lo: int, n_ph: int, max_total: int | None = None):
    """Strided flat-index slices of each total-photon block up to max_total
    (default: every block): within total t the valid flat indices are
    t + m*n_ph for m = m_lo..m_hi."""
    top = n_lo + n_ph if max_total is None else min(max_total, n_lo + n_ph)
    for t in range(top + 1):
        m_lo = max(0, t - n_ph)
        m_hi = min(n_lo, t)
        count = m_hi - m_lo + 1
        step = max(n_ph, 1)
        start = m_lo * (n_ph + 1) + (t - m_lo)
        yield t, m_lo, count, slice(start, start + (count - 1) * step + 1, step)


def _apply_blocks(mat: np.ndarray, theta: float, n_lo: int, n_ph: int,
                  pair_axis: int, max_total: int | None = None) -> np.ndarray:
    """Apply the pair mixing blockwise to a 2d array whose pair index runs
    along pair_axis (0: rows, 1: columns). Every pair index belongs to
    exactly one block, so the output is fully written; with max_total the
    blocks above it are skipped and left zero, which is exact only when the
    input has no amplitude there."""
    out = np.empty_like(mat) if max_total is None else np.zeros_like(mat)
    for t, m_lo, count, sl in _block_slices(n_lo, n_ph, max_total):
        block = _pair_block(theta, t)[m_lo:m_lo + count, m_lo:m_lo + count]
        if pair_axis == 0:
            out[sl, :] = block @ mat[sl, :]
        else:
            out[:, sl] = mat[:, sl] @ block.T
    return out


def apply_beamsplitter(state: StateVector, lo_mode: str, ph_mode: str,
                       theta: float,
                       out_modes: tuple[str, str] | None = None) -> StateVector:
    """Mix two labeled modes of a state with mixing angle theta.

    The transform is applied exactly on every total-photon-number block of
    the pair; output occupations beyond either mode's cutoff are dropped and
    the dropped probability is added to the returned state's tail budget.
    The pair is relabeled (lo, ph) -> (c, d): station inputs (a1, b1) and
    (a2, b2) map to (c1, d1) and (c2, d2), other labels are kept unless
    out_modes is given.
    """
    if lo_mode == ph_mode:
        raise ValueError("beamsplitter needs two distinct modes")
    i_lo = state.axis(lo_mode)
    i_ph = state.axis(ph_mode)
    n_lo = state.cutoffs[i_lo]
    n_ph = state.cutoffs[i_ph]
    dim = (n_lo + 1) * (n_ph + 1)
    ndim = state.amps.ndim
    shape = state.amps.shape

    if (i_lo, i_ph) == (0, 1):
        out = _apply_blocks(state.amps.reshape(dim, -1), theta, n_lo, n_ph, 0)
        out = out.reshape(shape)
    elif state.amps.size <= (1 << 14) and (i_lo, i_ph) == (ndim - 2, ndim - 1):
        out = _apply_blocks(state.amps.reshape(-1, dim), theta, n_lo, n_ph, 1)
        out = out.reshape(shape)
    else:
        # leading-axes path is the cache-friendly one; route everything big
        # through it
        work = np.ascontiguousarray(np.moveaxis(state.amps, (i_lo, i_ph), (0, 1)))
        out = _apply_blocks(work.reshape(dim, -1), theta, n_lo, n_ph, 0)
        out = np.moveaxis(out.reshape(work.shape), (0, 1), (i_lo, i_ph))

    out_norm_sq = float(np.vdot(out, out).real)
    dropped = max(state.norm_sq() - out_norm_sq, 0.0)
    if out_modes is None:
        out_modes = _STATION_OUTPUTS.get((lo_mode, ph_mode), (lo_mode, ph_mode))
    modes = list(state.modes)
    modes[i_lo], modes[i_ph] = out_modes
    return StateVector(tuple(modes), state.cutoffs, out,
                       state.tail + dropped, out_norm_sq)


def mix_station(columns: np.ndarray, theta: float) -> np.ndarray:
    """Input columns of one station mixed at angle theta.

    columns[a, b, k] is the amplitude of input occupation (lo = a, ph = b)
    in column k, with b in {0, 1} and a up to the station cutoff
    columns.shape[0] - 1. Returns out[c, d, k], the amplitude of output
    occupation (c, d) for column k, both output modes cut at the station
    cutoff exactly as apply_beamsplitter cuts them, so out[..., k] equals
    apply_beamsplitter on column k's 2-mode state.

    All columns are evolved in one block pass with the pair index leading
    and the column index trailing. The input holds at most cutoff + 1
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
    out = _apply_blocks(inputs.reshape(stride * stride, -1), theta, cutoff,
                        cutoff, 0, max_total=cutoff + 1)
    return out.reshape(stride, stride, -1)


def photon_pair_state(cutoff: int, mode_c: str = "b1", mode_d: str = "b2") -> StateVector:
    """Single photon split by a balanced splitter: (|0,1> + i|1,0>)/sqrt(2)."""
    z = 1.0 / math.sqrt(2.0)
    return z * fock_basis_state((mode_c, mode_d), (0, 1), cutoff) \
        + (1j * z) * fock_basis_state((mode_c, mode_d), (1, 0), cutoff)


def build_input_state(config: ExperimentConfig) -> StateVector:
    """Full pre-measurement state on modes (a1, b1, a2, b2).

    Coherent oscillators on a1 and a2, and the split single photon on
    (b1, b2). The accumulated tail is the sum of the two coherent
    truncation tails. The cutoff is resolved first, so a state above
    MAX_CUTOFF is refused before anything is allocated.
    """
    n = config.resolve_cutoff()
    lo1 = coherent_state("a1", config.alpha1 * cmath.exp(1j * config.phi1), n)
    lo2 = coherent_state("a2", config.alpha2 * cmath.exp(1j * config.phi2), n)
    full = tensor([lo1, photon_pair_state(n), lo2])
    return reorder_modes(full, PRE_NETWORK_MODES)


def alice_half_network(state: StateVector, xi: float) -> StateVector:
    """Mix Alice's (a1, b1) pair and move Bob's untouched input pair to the
    leading axes, so the second station also hits the fast mixing path.
    Mode order of the result is (a2, b2, c1, d1)."""
    out = apply_beamsplitter(state, "a1", "b1", xi)
    return reorder_modes(out, ("a2", "b2", "c1", "d1"))


def apply_station_settings(state: StateVector, xi: float, eta: float) -> StateVector:
    """Mix (a1, b1) with angle xi and (a2, b2) with angle eta.

    Output mode order is (c1, d1, c2, d2).
    """
    out = apply_beamsplitter(alice_half_network(state, xi), "a2", "b2", eta)
    return reorder_modes(out, POST_NETWORK_MODES)


def run_network(config: ExperimentConfig, xi: float, eta: float) -> StateVector:
    """Build the input state and run both station splitters.

    Output mode order is (c1, d1, c2, d2).
    """
    return apply_station_settings(build_input_state(config), xi, eta)
