"""Photon-number-resolved detection statistics at the two stations.

A station's favorable event is exactly one photon at its counting port c
and none at its veto port d; that outcome is assigned -1, everything else
+1. The +1 outcome is always handled as the complement of the favorable
projector, never enumerated.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .fock import StateVector


class Station(Enum):
    """Measurement station and the output mode pair it owns."""

    ALICE = ("c1", "d1")
    BOB = ("c2", "d2")

    @property
    def counting_mode(self) -> str:
        return self.value[0]

    @property
    def veto_mode(self) -> str:
        return self.value[1]


def _favorable_indexer(state: StateVector, stations: tuple[Station, ...]) -> tuple:
    """Indexer selecting (n_c, n_d) = (1, 0) at each given station."""
    idx: list = [slice(None)] * len(state.modes)
    for st in stations:
        ax_c = state.axis(st.counting_mode)
        ax_d = state.axis(st.veto_mode)
        if state.cutoffs[ax_c] < 1:
            raise ValueError(f"counting mode {st.counting_mode} has cutoff 0")
        idx[ax_c] = 1
        idx[ax_d] = 0
    return tuple(idx)


def station_favorable_prob(state: StateVector, station: Station) -> float:
    """Probability of the favorable (1, 0) pattern at one station,
    marginalized over all other modes."""
    sub = state.amps[_favorable_indexer(state, (station,))]
    return float(np.sum(np.abs(sub) ** 2))


def joint_favorable_prob(state: StateVector) -> float:
    """Probability of the favorable pattern at both stations at once."""
    sub = state.amps[_favorable_indexer(state, (Station.ALICE, Station.BOB))]
    return float(np.sum(np.abs(sub) ** 2))


def correlator(state: StateVector) -> float:
    """Two-station outcome correlator E for a normalized post-network state.

    With each station's observable equal to identity minus twice its
    favorable projector, E = 1 - 2 p_A - 2 p_B + 4 p_AB exactly.
    """
    p_a = station_favorable_prob(state, Station.ALICE)
    p_b = station_favorable_prob(state, Station.BOB)
    p_ab = joint_favorable_prob(state)
    return 1.0 - 2.0 * p_a - 2.0 * p_b + 4.0 * p_ab


def outcome_distribution(state: StateVector) -> dict[tuple[int, int], float]:
    """Joint distribution over the four (+-1, +-1) outcomes, built from the
    favorable probabilities and their complements."""
    p_a = station_favorable_prob(state, Station.ALICE)
    p_b = station_favorable_prob(state, Station.BOB)
    p_ab = joint_favorable_prob(state)
    return {
        (-1, -1): p_ab,
        (-1, +1): p_a - p_ab,
        (+1, -1): p_b - p_ab,
        (+1, +1): 1.0 - p_a - p_b + p_ab,
    }


def ab_product_expectation(u: StateVector, v: StateVector | None = None) -> complex:
    """Matrix element <u| A x B |v> of the product of station observables.

    Unlike `correlator`, this is the literal quadratic/bilinear form on the
    truncated space (it uses <u|v>, not 1), which is what exact component
    decompositions need. With v omitted it returns <u| A x B |u>.
    """
    if v is None:
        v = u
    if u.modes != v.modes or u.cutoffs != v.cutoffs:
        raise ValueError("states must share modes and cutoffs")
    idx_a = _favorable_indexer(u, (Station.ALICE,))
    idx_b = _favorable_indexer(u, (Station.BOB,))
    idx_ab = _favorable_indexer(u, (Station.ALICE, Station.BOB))
    full = np.vdot(u.amps, v.amps)
    pa = np.vdot(u.amps[idx_a], v.amps[idx_a])
    pb = np.vdot(u.amps[idx_b], v.amps[idx_b])
    pab = np.vdot(u.amps[idx_ab], v.amps[idx_ab])
    return complex(full - 2.0 * pa - 2.0 * pb + 4.0 * pab)
