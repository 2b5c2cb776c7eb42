import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homodyne_bell import fock
from homodyne_bell.analytic import (
    ClosedFormPoint,
    ch_chsh_general,
    ch_chsh_point,
    ch_closed,
    chsh_closed,
    local_prob_printed_variant,
    probs_general,
    probs_point,
)
from homodyne_bell.bell import evaluate_settings
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


def standard_quadruple_ch(p):
    """CH of ch_closed's quadruple from the general forms."""
    ch, _ = ch_chsh_general(p.alpha_sq, p.alpha_sq, 0.0, p.dphi, p.xi,
                            p.xi + HALF_PI, p.eta, p.eta + HALF_PI)
    return ch


class TestJointProb:
    def test_zero_drive(self):
        assert probs_general(0.0, 0.0, 0.0, 0.5, 1.0, 2.0)[2] == 0.0

    def test_destructive_point(self):
        # exactly zero in exact arithmetic; of the two squares only
        # (cos(pi/2) c_x s_y)^2 ~ 1e-33 is left, where the expanded form
        # would cancel only to ~1e-17
        assert probs_general(1.0, 1.0, 0.0, HALF_PI, HALF_PI, HALF_PI)[2] == \
            pytest.approx(0.0, abs=1e-32)

    def test_constructive_point(self):
        assert probs_general(1.0, 1.0, 0.0, -HALF_PI, HALF_PI, HALF_PI)[2] == \
            pytest.approx(E_MINUS_2_HALF, abs=1e-15)

    def test_always_a_probability(self):
        rng = np.random.default_rng(10)
        strengths = 4.0 * (1.0 - rng.random((2, 300)))
        p_a, p_b, p_ab = probs_general(*strengths,
                                       *rng.uniform(0, 2 * math.pi, (4, 300)))
        assert np.all((0.0 <= p_ab) & (p_ab <= np.minimum(p_a, p_b)))
        assert np.all(np.maximum(p_a, p_b) <= 1.0)


class TestLocalProb:
    def test_zero_drive_transmitting(self):
        assert probs_general(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)[0] == 0.0

    def test_zero_drive_balanced(self):
        assert probs_general(0.0, 0.0, 0.0, 0.0, HALF_PI, 0.0)[0] == \
            pytest.approx(0.25, abs=1e-15)

    def test_unit_drive_balanced(self):
        assert probs_general(1.0, 1.0, 0.0, 0.0, HALF_PI, 0.0)[0] == \
            pytest.approx(E_MINUS_1_HALF, abs=1e-15)

    def test_variants_differ_by_drive_damping(self):
        # the two candidate exponents disagree by e^{-alpha_sq}; keep them
        # clearly distinguishable where the adjudication samples
        assert local_prob_printed_variant(HALF_PI, 1.0) == pytest.approx(
            E_MINUS_2_HALF, abs=1e-15)
        corrected = probs_general(1.0, 1.0, 0.0, 0.0, 1.1, 0.0)[0]
        ratio = local_prob_printed_variant(1.1, 1.0) / corrected
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
            assert abs(ch_closed(p) - standard_quadruple_ch(p)) < 1e-12

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(xi=st.floats(-10.0, 10.0), eta=st.floats(-10.0, 10.0),
           dphi=st.floats(-10.0, 10.0), alpha_sq=st.floats(0.0, 6.0))
    def test_equals_ch_relation_to_the_last_bit(self, xi, eta, dphi, alpha_sq):
        # both forms scale the same bracket, by 1/4 and 1, so 2 + 4 ch
        # rounds to the same float: figure writes its chsh column this way
        p = ClosedFormPoint(xi, eta, dphi, alpha_sq)
        assert chsh_closed(p) == 2.0 + 4.0 * ch_closed(p)

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


def attribute_ch(p):
    """ch_closed as written when it read its point by attribute: eight
    reads and xi - eta computed twice. The reference of the bit test."""
    a2 = p.alpha_sq
    ea2 = math.exp(a2)
    return 0.25 * math.exp(-2.0 * a2) * (
        a2 * (1.0 + math.sin(p.dphi))
        * (math.sin(p.xi - p.eta) - math.cos(p.xi - p.eta))
        + ea2 * (1.0 - a2) * (math.cos(p.eta) - math.sin(p.xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


def attribute_chsh(p):
    """chsh_closed in the same attribute form."""
    a2 = p.alpha_sq
    ea2 = math.exp(a2)
    return 2.0 + math.exp(-2.0 * a2) * (
        a2 * (1.0 + math.sin(p.dphi))
        * (math.sin(p.xi - p.eta) - math.cos(p.xi - p.eta))
        + ea2 * (1.0 - a2) * (math.cos(p.eta) - math.sin(p.xi))
        + 2.0 * a2
        - 2.0 * ea2 * (a2 + 1.0)
    )


WIDE_ANGLES = st.floats(-1e3, 1e3)


class TestPrintedFormBits:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(xi=WIDE_ANGLES, eta=WIDE_ANGLES, dphi=WIDE_ANGLES,
           alpha_sq=st.floats(0.0, 700.0))
    def test_equal_to_the_attribute_form(self, xi, eta, dphi, alpha_sq):
        # unpacking once runs the same float operations in the same order
        p = ClosedFormPoint(xi, eta, dphi, alpha_sq)
        assert ch_closed(p) == attribute_ch(p)
        assert chsh_closed(p) == attribute_chsh(p)

    def test_any_four_sequence(self):
        p = ClosedFormPoint(REF_XI, REF_ETA, HALF_PI, 1.0)
        for seq in (tuple(p), list(p)):
            assert ch_closed(seq) == ch_closed(p) == CH_REF
            assert chsh_closed(seq) == chsh_closed(p)


class TestClosedFormPoint:
    def test_rejects_non_finite(self):
        for field, name in enumerate(("xi", "eta", "dphi", "alpha_sq")):
            for bad in (math.nan, math.inf, -math.inf):
                values = [0.0, 0.0, 0.0, 1.0]
                values[field] = bad
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    ClosedFormPoint(*values)

    def test_rejects_negative_drive(self):
        with pytest.raises(ValueError, match="^alpha_sq must be >= 0$"):
            ClosedFormPoint(0.0, 0.0, 0.0, -1.0)

    def test_immutable_hashable_tuple(self):
        p = ClosedFormPoint(0.1, 0.2, 0.3, 0.4)
        assert ClosedFormPoint._fields == ("xi", "eta", "dphi", "alpha_sq")
        assert (p.xi, p.eta, p.dphi, p.alpha_sq) == (0.1, 0.2, 0.3, 0.4)
        with pytest.raises(AttributeError):
            p.xi = 1.0
        assert hash(p) == hash(ClosedFormPoint(0.1, 0.2, 0.3, 0.4))
        # a tuple subclass: equal to the plain tuple of its fields
        assert p == (0.1, 0.2, 0.3, 0.4)

    def test_drive_bound_is_the_fock_bound(self):
        # the printed forms' e^{alpha_sq} overflows near 709.8; analytic
        # does not import fock, so its copy of the bound is pinned here
        p = ClosedFormPoint(0.0, 0.0, 0.0, fock.MAX_ALPHA_SQ)
        assert math.isfinite(ch_closed(p)) and math.isfinite(chsh_closed(p))
        with pytest.raises(ValueError, match="^alpha_sq must be <= 700$"):
            ClosedFormPoint(0.0, 0.0, 0.0, math.nextafter(fock.MAX_ALPHA_SQ, 1e3))
        with pytest.raises(ValueError, match="^alpha_sq must be <= 700$"):
            ClosedFormPoint(0.0, 0.0, 0.0, 1e308)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(field=st.integers(0, 3),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           values=st.tuples(WIDE_ANGLES, WIDE_ANGLES, WIDE_ANGLES,
                            st.floats(0.0, 700.0)))
    def test_rejects_any_non_finite_field(self, field, bad, values):
        # the figure grid builds its cells without these checks; the public
        # constructor keeps every one
        values = list(values)
        values[field] = bad
        name = ClosedFormPoint._fields[field]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ClosedFormPoint(*values)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha_sq=st.floats(700.0, exclude_min=True, allow_infinity=False))
    def test_rejects_any_drive_above_the_bound(self, alpha_sq):
        with pytest.raises(ValueError, match="^alpha_sq must be <= 700$"):
            ClosedFormPoint(0.0, 0.0, 0.0, alpha_sq)

    def test_replace_is_checked(self):
        p = ClosedFormPoint(0.1, 0.2, 0.3, 0.4)
        assert p._replace(alpha_sq=2.0) == ClosedFormPoint(0.1, 0.2, 0.3, 2.0)
        with pytest.raises(ValueError, match="^alpha_sq must be >= 0$"):
            p._replace(alpha_sq=-1.0)
        with pytest.raises(ValueError, match="^dphi must be finite$"):
            p._replace(dphi=math.nan)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
ANGLES = st.floats(0.0, 2.0 * math.pi)
STRENGTHS = st.floats(0.0, 4.0)


def paper_joint(x, y, dphi, alpha_sq):
    """The paper's joint probability P(-1,-1|x,y) at equal strengths: the
    reference the general form reduces to at alpha1 = alpha2."""
    return 0.25 * alpha_sq * math.exp(-2.0 * alpha_sq) * (
        1.0 - math.cos(y) * math.cos(x) - math.sin(y) * math.sin(x) * math.sin(dphi))


def paper_local(x, alpha_sq):
    """The local probability P(-1|x) with the corrected e^{-alpha_sq}."""
    return 0.5 * math.exp(-alpha_sq) * (
        alpha_sq * math.cos(x / 2.0) ** 2 + math.sin(x / 2.0) ** 2)


def strict_config(a1_sq, a2_sq, phi1, phi2):
    return ExperimentConfig(a1_sq, a2_sq, phi1, phi2, CutoffSpec(tail_eps=1e-12))


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
        num_a, num_b, num_joint, _ = run_network(
            strict_config(a1_sq, a2_sq, *phases), x, y)
        p_a, p_b, joint = probs_general(a1_sq, a2_sq, *phases, x, y)
        assert abs(joint - num_joint) <= 1e-12
        assert abs(p_a - num_a) <= 1e-12
        assert abs(p_b - num_b) <= 1e-12

    @PROPERTY_SETTINGS
    @given(alpha_sq=STRENGTHS, phases=st.tuples(ANGLES, ANGLES), x=ANGLES, y=ANGLES)
    def test_reduce_to_symmetric_forms(self, alpha_sq, phases, x, y):
        phi1, phi2 = phases
        point = ClosedFormPoint(x, y, phi2 - phi1, alpha_sq)
        p_a, p_b, joint = probs_general(alpha_sq, alpha_sq, phi1, phi2, x, y)
        assert abs(joint - paper_joint(x, y, phi2 - phi1, alpha_sq)) <= 1e-15
        assert abs(p_a - paper_local(x, alpha_sq)) <= 1e-15
        assert abs(p_b - paper_local(y, alpha_sq)) <= 1e-15
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
        probs = probs_general(a1_sq, a2_sq, *rest[:4])
        assert all(p.shape == (50,) for p in probs)
        for k in range(50):
            one, _ = ch_chsh_general(a1_sq[k], a2_sq[k], *rest[:, k])
            assert one == ch[k]
            assert probs_general(a1_sq[k], a2_sq[k], *rest[:4, k]) == \
                tuple(p[k] for p in probs)

    @pytest.mark.parametrize("a1_sq,a2_sq", [(-0.1, 1.0), (1.0, math.nan),
                                             (math.inf, 1.0)])
    def test_rejects_bad_drive(self, a1_sq, a2_sq):
        with pytest.raises(ValueError):
            ch_chsh_general(a1_sq, a2_sq, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError):
            probs_general(a1_sq, a2_sq, 0.0, 0.0, 0.1, 0.3)
        name = "alpha1_sq" if a1_sq != 1.0 else "alpha2_sq"
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
            ch_chsh_point(a1_sq, a2_sq, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
            probs_point(a1_sq, a2_sq, 0.0, 0.0, 0.1, 0.3)


SEARCH_STRENGTHS = st.floats(0.0, 6.0)
FREE = st.floats(-10.0, 10.0)


class TestPointForms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a1_sq=SEARCH_STRENGTHS, a2_sq=SEARCH_STRENGTHS,
           rest=st.tuples(*[FREE] * 6))
    def test_equal_the_array_forms(self, a1_sq, a2_sq, rest):
        ch, chsh = ch_chsh_point(a1_sq, a2_sq, *rest)
        want_ch, want_chsh = ch_chsh_general(a1_sq, a2_sq, *rest)
        assert type(ch) is float and type(chsh) is float
        assert abs(ch - want_ch) <= 1e-15
        assert abs(chsh - want_chsh) <= 1e-15
        assert chsh == 2.0 + 4.0 * ch
        probs = probs_point(a1_sq, a2_sq, *rest[:4])
        for got, want in zip(probs, probs_general(a1_sq, a2_sq, *rest[:4])):
            assert abs(got - want) <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(strengths=st.tuples(SEARCH_STRENGTHS, SEARCH_STRENGTHS),
           phases=st.tuples(FREE, FREE), shift=FREE,
           angles=st.tuples(*[FREE] * 4))
    def test_phases_enter_linearly_through_sin_of_difference(
            self, strengths, phases, shift, angles):
        # CH = (1 + s)/2 CH(s = 1) + (1 - s)/2 CH(s = -1), s = sin(phi1 - phi2)
        phi1, phi2 = phases
        ch, _ = ch_chsh_point(*strengths, phi1, phi2, *angles)
        shifted, _ = ch_chsh_point(*strengths, phi1 + shift, phi2 + shift,
                                   *angles)
        assert abs(shifted - ch) <= 1e-15
        plus, _ = ch_chsh_point(*strengths, HALF_PI, 0.0, *angles)
        minus, _ = ch_chsh_point(*strengths, -HALF_PI, 0.0, *angles)
        s = math.sin(phi1 - phi2)
        assert abs(ch - (0.5 * (1.0 + s) * plus + 0.5 * (1.0 - s) * minus)) <= 1e-15
