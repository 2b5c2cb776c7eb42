import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homodyne_bell import analytic
from homodyne_bell.analytic import (
    ClosedFormPoint,
    ch_assembled,
    ch_chsh_general,
    ch_closed,
    chsh_closed,
    joint_prob_closed,
    local_prob_closed,
    local_prob_printed_variant,
)
from homodyne_bell.bell import evaluate_settings
from homodyne_bell.detection import (
    Station,
    joint_favorable_prob,
    station_favorable_prob,
)
from homodyne_bell.fock import CutoffSpec
from homodyne_bell.optics import ExperimentConfig, run_network

HALF_PI = math.pi / 2.0

# reference operating point: dphi = pi/2, xi - eta = 3pi/4, xi + eta = pi
REF_XI = (math.pi + 3 * math.pi / 4) / 2
REF_ETA = (math.pi - 3 * math.pi / 4) / 2
# frozen closed-form values at the reference point
CH_REF = -0.20451530304272505
CHSH_REF = 1.1819387878290998

E_MINUS_1_HALF = 0.18393972058572116
E_MINUS_2_HALF = 0.06766764161830635


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield ClosedFormPoint(rng.uniform(0, 2 * math.pi),
                              rng.uniform(0, 2 * math.pi),
                              rng.uniform(0, 2 * math.pi),
                              4.0 * (1.0 - rng.random()))


class TestJointProb:
    def test_zero_drive(self):
        assert joint_prob_closed(ClosedFormPoint(1.0, 2.0, 0.5, 0.0)) == 0.0

    def test_destructive_point(self):
        assert joint_prob_closed(
            ClosedFormPoint(HALF_PI, HALF_PI, HALF_PI, 1.0)) == 0.0

    def test_constructive_point(self):
        assert joint_prob_closed(
            ClosedFormPoint(HALF_PI, HALF_PI, -HALF_PI, 1.0)) == pytest.approx(
            E_MINUS_2_HALF, abs=1e-15)

    def test_always_a_probability(self):
        for p in random_points(300, 10):
            assert 0.0 <= joint_prob_closed(p) <= 1.0


class TestLocalProb:
    def test_zero_drive_transmitting(self):
        assert local_prob_closed(0.0, 0.0) == 0.0

    def test_zero_drive_balanced(self):
        assert local_prob_closed(HALF_PI, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_unit_drive_balanced(self):
        assert local_prob_closed(HALF_PI, 1.0) == pytest.approx(
            E_MINUS_1_HALF, abs=1e-15)

    def test_variants_differ_by_drive_damping(self):
        # the two candidate exponents disagree by e^{-alpha_sq}; keep them
        # clearly distinguishable where the adjudication samples
        assert local_prob_printed_variant(HALF_PI, 1.0) == pytest.approx(
            E_MINUS_2_HALF, abs=1e-15)
        ratio = local_prob_printed_variant(1.1, 1.0) / local_prob_closed(1.1, 1.0)
        assert ratio == pytest.approx(math.exp(-1.0), abs=1e-12)


class TestChClosed:
    def test_zero_drive_zero_angles(self):
        assert ch_closed(ClosedFormPoint(0.0, 0.0, 0.7, 0.0)) == pytest.approx(
            -0.25, abs=1e-15)

    def test_reference_point(self):
        assert ch_closed(ClosedFormPoint(REF_XI, REF_ETA, HALF_PI, 1.0)) == \
            pytest.approx(CH_REF, abs=1e-14)

    def test_assembly_identity(self):
        for p in random_points(500, 11):
            assert abs(ch_closed(p) - ch_assembled(p)) < 1e-12

    def test_depends_on_angle_sum(self):
        # same xi - eta = 3pi/4, different xi + eta: the value must move
        def at_sum(total, alpha_sq):
            return ch_closed(ClosedFormPoint((total + 3 * math.pi / 4) / 2,
                                             (total - 3 * math.pi / 4) / 2,
                                             HALF_PI, alpha_sq))
        lhs = at_sum(math.pi, 0.5)
        rhs = at_sum(3 * math.pi / 2, 0.5)
        assert lhs == pytest.approx(-0.1918316072789451, abs=1e-14)
        assert rhs == pytest.approx(-0.17483580206251906, abs=1e-14)
        assert abs(lhs - rhs) > 1e-3


class TestChshClosed:
    def test_zero_drive_zero_angles(self):
        assert chsh_closed(ClosedFormPoint(0.0, 0.0, 0.7, 0.0)) == pytest.approx(
            1.0, abs=1e-15)

    def test_reference_point(self):
        assert chsh_closed(ClosedFormPoint(REF_XI, REF_ETA, HALF_PI, 1.0)) == \
            pytest.approx(CHSH_REF, abs=1e-13)

    def test_expanded_form_matches_ch_relation(self):
        for p in random_points(500, 12):
            assert abs(chsh_closed(p) - (2.0 + 4.0 * ch_closed(p))) < 1e-12

    def test_never_violates_classical_bound(self):
        rng = np.random.default_rng(13)
        worst = -4.0
        for _ in range(10_000):
            p = ClosedFormPoint(rng.uniform(0, 2 * math.pi),
                                rng.uniform(0, 2 * math.pi),
                                rng.uniform(0, 2 * math.pi),
                                4.0 * (1.0 - rng.random()))
            worst = max(worst, chsh_closed(p))
        assert worst < 2.0


class TestClosedFormPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ClosedFormPoint(math.nan, 0.0, 0.0, 1.0)

    def test_rejects_negative_drive(self):
        with pytest.raises(ValueError):
            ClosedFormPoint(0.0, 0.0, 0.0, -1.0)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
ANGLES = st.floats(0.0, 2.0 * math.pi)
STRENGTHS = st.floats(0.0, 4.0)


def general_probs(a1_sq, a2_sq, phi1, phi2, x, y):
    """(P(-1,-1|x,y), P_A(-1|x), P_B(-1|y)) from the general forms."""
    alice = analytic._station(math.sqrt(a1_sq) * cmath.exp(1j * phi1), x)
    bob = analytic._station(math.sqrt(a2_sq) * cmath.exp(1j * phi2), y)
    return (analytic._joint_prob(alice, bob, math.exp(-a1_sq - a2_sq)),
            analytic._local_prob(alice, a1_sq), analytic._local_prob(bob, a2_sq))


def strict_config(a1_sq, a2_sq, phi1, phi2):
    return ExperimentConfig(math.sqrt(a1_sq), math.sqrt(a2_sq), phi1, phi2,
                            CutoffSpec(tail_eps=1e-12))


class TestGeneralForms:
    @PROPERTY_SETTINGS
    @given(a1_sq=STRENGTHS, a2_sq=STRENGTHS, phases=st.tuples(ANGLES, ANGLES),
           angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_matches_station_numerics(self, a1_sq, a2_sq, phases, angles):
        ch, chsh = ch_chsh_general(a1_sq, a2_sq, *phases, *angles)
        rec = evaluate_settings(strict_config(a1_sq, a2_sq, *phases), *angles)
        assert abs(ch - rec.ch) <= 1e-12
        assert chsh == 2.0 + 4.0 * ch

    @PROPERTY_SETTINGS
    @given(a1_sq=st.floats(0.0, 1.0), a2_sq=st.floats(0.0, 1.0),
           phases=st.tuples(ANGLES, ANGLES), x=ANGLES, y=ANGLES)
    def test_probabilities_match_dense_network(self, a1_sq, a2_sq, phases, x, y):
        state = run_network(strict_config(a1_sq, a2_sq, *phases), x, y)
        joint, p_a, p_b = general_probs(a1_sq, a2_sq, *phases, x, y)
        assert abs(joint - joint_favorable_prob(state)) <= 1e-12
        assert abs(p_a - station_favorable_prob(state, Station.ALICE)) <= 1e-12
        assert abs(p_b - station_favorable_prob(state, Station.BOB)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(alpha_sq=STRENGTHS, phases=st.tuples(ANGLES, ANGLES), x=ANGLES, y=ANGLES)
    def test_reduce_to_symmetric_forms(self, alpha_sq, phases, x, y):
        phi1, phi2 = phases
        point = ClosedFormPoint(x, y, phi2 - phi1, alpha_sq)
        joint, p_a, p_b = general_probs(alpha_sq, alpha_sq, phi1, phi2, x, y)
        assert abs(joint - joint_prob_closed(point)) <= 1e-15
        assert abs(p_a - local_prob_closed(x, alpha_sq)) <= 1e-15
        assert abs(p_b - local_prob_closed(y, alpha_sq)) <= 1e-15
        ch, chsh = ch_chsh_general(alpha_sq, alpha_sq, phi1, phi2,
                                   x, x + HALF_PI, y, y + HALF_PI)
        assert abs(ch - ch_closed(point)) <= 1e-15
        assert abs(chsh - chsh_closed(point)) <= 4e-15

    def test_broadcasts_over_arrays(self):
        rng = np.random.default_rng(14)
        a1_sq, a2_sq = rng.uniform(0.0, 4.0, (2, 50))
        rest = rng.uniform(0.0, 2.0 * math.pi, (6, 50))
        ch, chsh = ch_chsh_general(a1_sq, a2_sq, *rest)
        assert ch.shape == chsh.shape == (50,)
        assert np.array_equal(chsh, 2.0 + 4.0 * ch)
        for k in range(50):
            one, _ = ch_chsh_general(a1_sq[k], a2_sq[k], *rest[:, k])
            assert one == ch[k]

    @pytest.mark.parametrize("a1_sq,a2_sq", [(-0.1, 1.0), (1.0, math.nan),
                                             (math.inf, 1.0)])
    def test_rejects_bad_drive(self, a1_sq, a2_sq):
        with pytest.raises(ValueError):
            ch_chsh_general(a1_sq, a2_sq, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4)
