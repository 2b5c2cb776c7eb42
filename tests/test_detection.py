import math

import numpy as np
import pytest

from dense_oracle import ab_product_expectation
from homodyne_bell.detection import (
    Station,
    correlator,
    joint_favorable_prob,
    outcome_distribution,
    station_favorable_prob,
)
from homodyne_bell.fock import POST_NETWORK_MODES, fock_basis_state
from homodyne_bell.optics import run_network, symmetric_config

E_MINUS_1_HALF = 0.18393972058572116
E_MINUS_2_HALF = 0.06766764161830635


def enumerated_correlator(state):
    """Oracle: classify every occupation into (+-1, +-1) and sum the signed
    probabilities directly."""
    amps = state.amps
    axes = {m: state.modes.index(m) for m in POST_NETWORK_MODES}
    total = 0.0
    for occ in np.ndindex(amps.shape):
        a = -1 if (occ[axes["c1"]], occ[axes["d1"]]) == (1, 0) else 1
        b = -1 if (occ[axes["c2"]], occ[axes["d2"]]) == (1, 0) else 1
        total += a * b * abs(amps[occ]) ** 2
    return total


class TestMarginals:
    def test_vacuum_has_no_favorable_events(self):
        vac = fock_basis_state(POST_NETWORK_MODES, (0, 0, 0, 0), 2)
        assert station_favorable_prob(vac, Station.ALICE) == 0.0
        assert joint_favorable_prob(vac) == 0.0
        assert correlator(vac) == 1.0

    def test_single_photon_reflection_probability(self):
        s = run_network(symmetric_config(0.0), math.pi / 2, 0.0)
        assert station_favorable_prob(s, Station.ALICE) == pytest.approx(0.25, abs=1e-14)
        assert station_favorable_prob(s, Station.BOB) == pytest.approx(0.0, abs=1e-14)

    def test_unit_drive_marginal(self):
        s = run_network(symmetric_config(1.0, 0.3), math.pi / 2, 1.1)
        assert station_favorable_prob(s, Station.ALICE) == pytest.approx(
            E_MINUS_1_HALF, abs=1e-10)

    def test_wrong_mode_set_rejected(self):
        s = fock_basis_state(("c1", "d1"), (0, 0), 2)
        with pytest.raises(ValueError):
            station_favorable_prob(s, Station.BOB)


class TestJointProbability:
    def test_single_photon_cannot_trigger_both(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = run_network(symmetric_config(0.0), rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            assert joint_favorable_prob(s) < 1e-14

    def test_destructive_phase_point(self):
        s = run_network(symmetric_config(1.0, math.pi / 2),
                        math.pi / 2, math.pi / 2)
        assert joint_favorable_prob(s) < 1e-10

    def test_constructive_phase_point(self):
        s = run_network(symmetric_config(1.0, -math.pi / 2),
                        math.pi / 2, math.pi / 2)
        assert joint_favorable_prob(s) == pytest.approx(E_MINUS_2_HALF, abs=1e-10)

    def test_joint_bounded_by_marginals(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            a2 = 3.0 * rng.random() + 0.05
            s = run_network(symmetric_config(a2, rng.uniform(0, 2 * math.pi)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            p_ab = joint_favorable_prob(s)
            p_a = station_favorable_prob(s, Station.ALICE)
            p_b = station_favorable_prob(s, Station.BOB)
            assert 0.0 <= p_ab <= min(p_a, p_b) <= 1.0


class TestCorrelator:
    def test_fully_transmitting_settings(self):
        s = run_network(symmetric_config(0.0), 0.0, 0.0)
        assert correlator(s) == pytest.approx(1.0, abs=1e-14)

    def test_linear_formula_matches_distribution_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            s = run_network(symmetric_config(2.0 * rng.random() + 0.1,
                                             rng.uniform(0, 2 * math.pi)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            dist = outcome_distribution(s)
            summed = sum(i * j * p for (i, j), p in dist.items())
            assert correlator(s) == pytest.approx(summed, abs=1e-12)

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            s = run_network(symmetric_config(1.0, rng.uniform(0, 2 * math.pi)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            assert correlator(s) == pytest.approx(enumerated_correlator(s), abs=1e-10)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            s = run_network(symmetric_config(1.5, rng.uniform(0, 2 * math.pi)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            assert sum(outcome_distribution(s).values()) == pytest.approx(
                1.0, abs=1e-10)


class TestTruncationNormalization:
    def test_probabilities_invariant_under_state_scaling(self):
        s = run_network(symmetric_config(1.2, 0.5, tail_eps=1e-4), 0.8, 2.3)
        for z in (2.0, 0.3 - 0.7j, -1j):
            scaled = z * s
            for station in Station:
                assert station_favorable_prob(scaled, station) == pytest.approx(
                    station_favorable_prob(s, station), rel=1e-13)
            assert joint_favorable_prob(scaled) == pytest.approx(
                joint_favorable_prob(s), rel=1e-13)

    def test_cached_norm_matches_fresh_vdot(self):
        for tail_eps in (1e-12, 1e-4):
            s = run_network(symmetric_config(1.5, 0.4, tail_eps=tail_eps), 0.9, 2.0)
            fresh = float(np.vdot(s.amps, s.amps).real)
            assert s.norm_sq() == pytest.approx(fresh, rel=1e-14)


class TestNoSignalling:
    def test_alice_marginal_independent_of_bob(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(15):
            a2 = 4.0 * (1.0 - rng.random())
            xi = rng.uniform(0, 2 * math.pi)
            p = [station_favorable_prob(
                run_network(symmetric_config(a2, rng.uniform(0, 2 * math.pi)),
                            xi, rng.uniform(0, 2 * math.pi)), Station.ALICE)
                 for _ in range(2)]
            worst = max(worst, abs(p[0] - p[1]))
        assert worst < 1e-10


class TestProductExpectation:
    def test_matches_correlator_on_normalized_states(self):
        # the correlator is conditional on the truncated space, the product
        # expectation is not: they differ by exactly the factor <psi|psi>
        s = run_network(symmetric_config(1.0, 0.9), 1.3, 0.4)
        loose = run_network(symmetric_config(1.0, 0.9, tail_eps=1e-4), 1.3, 0.4)
        assert 1.0 - loose.norm_sq() > 1e-6
        for state in (s, 2.0 * s, loose):
            quad_form = ab_product_expectation(state).real
            assert quad_form == pytest.approx(
                correlator(state) * state.norm_sq(), rel=1e-12, abs=1e-14)

    def test_bilinearity(self):
        rng = np.random.default_rng(6)
        cfg = symmetric_config(0.8, 1.1)
        u = run_network(cfg, 0.7, 1.9)
        v = run_network(cfg, 2.1, 0.3)
        z = 0.6 - 0.3j
        lhs = ab_product_expectation(u, z * v)
        rhs = z * ab_product_expectation(u, v)
        assert lhs == pytest.approx(rhs, abs=1e-12)
