"""Photon-number-resolved detection statistics at the two stations.

A station's favorable event is exactly one photon at its counting port c
and none at its veto port d; that outcome is assigned -1, everything else
+1. The +1 outcome is always handled as the complement of the favorable
projector, never enumerated.

Probabilities are Born-rule probabilities conditional on the truncated
space: each is divided by <psi|psi>, so a state that lost probability to
photon-number truncation still gives p_A, p_B, p_AB and their complements
one shared normalization.
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


def _conditional_prob(state: StateVector, stations: tuple[Station, ...]) -> float:
    """Weight of the favorable pattern at the given stations over <psi|psi>."""
    sub = state.amps[_favorable_indexer(state, stations)]
    return float(np.sum(np.abs(sub) ** 2)) / state.norm_sq()


def station_favorable_prob(state: StateVector, station: Station) -> float:
    """Probability of the favorable (1, 0) pattern at one station,
    marginalized over all other modes and conditional on the truncated
    space (divided by <psi|psi>)."""
    return _conditional_prob(state, (station,))


def joint_favorable_prob(state: StateVector) -> float:
    """Probability of the favorable pattern at both stations at once,
    conditional on the truncated space (divided by <psi|psi>)."""
    return _conditional_prob(state, (Station.ALICE, Station.BOB))


def correlator(state: StateVector) -> float:
    """Two-station outcome correlator E of a post-network state.

    With each station's observable equal to identity minus twice its
    favorable projector, E = 1 - 2 p_A - 2 p_B + 4 p_AB exactly. The
    probabilities are conditional on the truncated space, so the identity
    term is 1 for any nonzero state, sub-normalized or not; this equals
    <psi| A x B |psi> / <psi|psi>.
    """
    p_a = station_favorable_prob(state, Station.ALICE)
    p_b = station_favorable_prob(state, Station.BOB)
    p_ab = joint_favorable_prob(state)
    return 1.0 - 2.0 * p_a - 2.0 * p_b + 4.0 * p_ab


def outcome_distribution(state: StateVector) -> dict[tuple[int, int], float]:
    """Joint distribution over the four (+-1, +-1) outcomes, built from the
    favorable probabilities and their complements. Conditional on the
    truncated space (divided by <psi|psi>), so it sums to 1."""
    p_a = station_favorable_prob(state, Station.ALICE)
    p_b = station_favorable_prob(state, Station.BOB)
    p_ab = joint_favorable_prob(state)
    return {
        (-1, -1): p_ab,
        (-1, +1): p_a - p_ab,
        (+1, -1): p_b - p_ab,
        (+1, +1): 1.0 - p_a - p_b + p_ab,
    }
