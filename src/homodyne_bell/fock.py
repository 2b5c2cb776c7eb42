"""Truncated multimode Fock space with labeled modes.

States are dense complex amplitude arrays indexed mixed-radix, one axis per
mode (axis length = per-mode cutoff + 1). All values are immutable after
construction and every operation returns a fresh state, so states are safe
to share across threads.

Each state carries a ``tail`` field: an upper bound on the probability lost
to photon-number truncation so far (coherent-state tails, plus any amplitude
dropped later by mode mixing at the cutoff edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

PRE_NETWORK_MODES = ("a1", "b1", "a2", "b2")
POST_NETWORK_MODES = ("c1", "d1", "c2", "d2")

# e^{-|a|^2/2} underflows long before this; reject absurd drive strengths.
_MAX_ALPHA_SQ = 700.0


def required_cutoff(alpha_sq: float, tail_eps: float) -> int:
    """Smallest N whose Poisson(alpha_sq) tail beyond N is strictly below tail_eps.

    The photon-number distribution of a coherent state with mean photon
    number alpha_sq is Poisson, so this is the minimal per-mode cutoff that
    keeps the discarded probability of one coherent input under tail_eps.
    """
    if alpha_sq < 0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps must be in (0, 1), got {tail_eps}")
    if alpha_sq > _MAX_ALPHA_SQ:
        raise ValueError(f"alpha_sq={alpha_sq} exceeds the float-safe range "
                         f"(at most {_MAX_ALPHA_SQ:g})")
    term = math.exp(-alpha_sq)
    cum = term
    n = 0
    while 1.0 - cum >= tail_eps:
        n += 1
        term *= alpha_sq / n
        cum += term
    return n


@dataclass(frozen=True)
class CutoffSpec:
    """Per-mode photon-number cutoff policy.

    ``n_max=None`` derives the cutoff from the largest coherent amplitude in
    play: required_cutoff(alpha_sq, tail_eps) plus one slot of headroom for
    the single injected photon, so that mode mixing at the edge leaks less
    than tail_eps per station.
    """

    n_max: int | None = None
    tail_eps: float = 1e-12

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if not 0.0 < self.tail_eps < 1.0:
            raise ValueError("tail_eps must be in (0, 1)")

    def resolve(self, alpha_sq: float) -> int:
        if self.n_max is not None:
            return self.n_max
        return required_cutoff(alpha_sq, self.tail_eps) + 1


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense state over occupation numbers of an ordered list of labeled modes."""

    modes: tuple[str, ...]
    cutoffs: tuple[int, ...]
    amps: np.ndarray
    tail: float = 0.0
    # <psi|psi> when the constructing operation already knows it; see norm_sq
    _norm_sq: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode labels in {self.modes}")
        if len(self.cutoffs) != len(self.modes):
            raise ValueError("need exactly one cutoff per mode")
        if any(n < 0 for n in self.cutoffs):
            raise ValueError("cutoffs must be non-negative")
        shape = tuple(n + 1 for n in self.cutoffs)
        if self.amps.shape != shape:
            raise ValueError(f"amplitude shape {self.amps.shape} != {shape}")
        if self.amps.dtype != np.complex128:
            object.__setattr__(self, "amps", self.amps.astype(np.complex128))
        self.amps.setflags(write=False)

    def axis(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode!r} not in state modes {self.modes}") from None

    def norm_sq(self) -> float:
        """<psi|psi>, computed at most once per state and cached.

        Caching is safe because __post_init__ makes amps read-only, so the
        value cannot go stale. Operations that already know the norm of
        their output (a norm-preserving mode permutation, a beamsplitter
        that computes it for its leakage term) fill the cache at
        construction instead of paying for another full-array pass.
        """
        if self._norm_sq is None:
            object.__setattr__(self, "_norm_sq",
                               float(np.vdot(self.amps, self.amps).real))
        return self._norm_sq

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "StateVector") -> "StateVector":
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.modes != other.modes or self.cutoffs != other.cutoffs:
            raise ValueError("can only add states on identical modes and cutoffs")
        return StateVector(self.modes, self.cutoffs, self.amps + other.amps,
                           self.tail + other.tail)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, z: complex) -> "StateVector":
        return StateVector(self.modes, self.cutoffs, self.amps * z,
                           self.tail * abs(z) ** 2)

    __rmul__ = __mul__


def fock_basis_state(modes: Sequence[str], occ: Sequence[int],
                     cutoffs: int | Sequence[int]) -> StateVector:
    """Unit-norm basis state with a single amplitude 1 at the given occupation."""
    modes = tuple(modes)
    if isinstance(cutoffs, int):
        cutoffs = (cutoffs,) * len(modes)
    cutoffs = tuple(cutoffs)
    occ = tuple(occ)
    if len(occ) != len(modes):
        raise ValueError("occupation length must equal mode count")
    for n, nmax in zip(occ, cutoffs):
        if not 0 <= n <= nmax:
            raise ValueError(f"occupation {occ} exceeds cutoffs {cutoffs}")
    amps = np.zeros(tuple(n + 1 for n in cutoffs), dtype=np.complex128)
    amps[occ] = 1.0
    return StateVector(modes, cutoffs, amps)


def coherent_state(mode: str, alpha: complex, cutoff: int) -> StateVector:
    """Truncated coherent state on one labeled mode.

    Amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!), evaluated by the stable
    recurrence c_n = c_{n-1} a / sqrt(n) (no explicit factorials, safe up to
    the n range used here). The discarded probability 1 - sum |c_n|^2 is
    recorded on the returned state's tail budget.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mag_sq = abs(alpha) ** 2
    if mag_sq > _MAX_ALPHA_SQ:
        raise ValueError(f"|alpha|^2={mag_sq} exceeds the float-safe range "
                         f"(at most {_MAX_ALPHA_SQ:g})")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-mag_sq / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return StateVector((mode,), (cutoff,), amps, tail)


def tensor(parts: Iterable[StateVector]) -> StateVector:
    """Tensor product of states on pairwise-disjoint mode sets, in order."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor needs at least one factor")
    modes: tuple[str, ...] = ()
    cutoffs: tuple[int, ...] = ()
    for p in parts:
        overlap = set(modes) & set(p.modes)
        if overlap:
            raise ValueError(f"duplicate mode labels across factors: {sorted(overlap)}")
        modes += p.modes
        cutoffs += p.cutoffs
    amps = reduce(np.multiply.outer, (p.amps for p in parts))
    return StateVector(modes, cutoffs, amps, sum(p.tail for p in parts))


def amplitude_of(state: StateVector, occ: Sequence[int]) -> complex:
    """Stored amplitude at one occupation vector (mode order of the state)."""
    occ = tuple(occ)
    if len(occ) != len(state.modes):
        raise ValueError("occupation length must equal mode count")
    for n, nmax in zip(occ, state.cutoffs):
        if not 0 <= n <= nmax:
            raise ValueError(f"occupation {occ} out of range for cutoffs {state.cutoffs}")
    return complex(state.amps[occ])


def inner(s1: StateVector, s2: StateVector) -> complex:
    """Inner product <s1|s2>, conjugate-linear in the first argument."""
    if s1.modes != s2.modes or s1.cutoffs != s2.cutoffs:
        raise ValueError("inner product requires identical modes and cutoffs")
    return complex(np.vdot(s1.amps, s2.amps))


def reorder_modes(state: StateVector, order: Sequence[str]) -> StateVector:
    """Same state with its mode axes permuted into the given label order."""
    order = tuple(order)
    if sorted(order) != sorted(state.modes):
        raise ValueError(f"order {order} is not a permutation of {state.modes}")
    src = [state.axis(m) for m in order]
    amps = np.ascontiguousarray(np.moveaxis(state.amps, src, range(len(order))))
    cutoffs = tuple(state.cutoffs[i] for i in src)
    return StateVector(order, cutoffs, amps, state.tail, state.norm_sq())
