import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import (
    dense_chsh_decomposition,
    dense_cross_terms,
    dense_favorable_probs,
    dense_split_state,
    dense_station_columns,
    input_support,
    on_square,
    on_support,
    propagate,
)
from test_fock import exact_poisson_tail
from test_optics import pair_unitary
from homodyne_bell import analytic, bell, optics
from homodyne_bell.bell import (
    BellRecord,
    SettingsQuadruple,
    evaluate_quadruple,
    evaluate_settings,
    lambda_cross_terms,
    reference_quadruple,
)
from homodyne_bell.cli import IDENTITY_TOL, ORACLE_TOL
from homodyne_bell.detection import support_rows
from homodyne_bell.fock import MAX_CUTOFF, CutoffSpec, coherent_amplitudes
from homodyne_bell.optics import ExperimentConfig, mix_station, symmetric_config

HALF_PI = math.pi / 2.0
TWO_SQRT2 = 2.0 * math.sqrt(2.0)

CH_REF = -0.20451530304272505
CHSH_REF = 1.1819387878290998

# frozen: sqrt(a2) e^{-a2} and cross-term magnitude
# (a2 / sqrt 2) e^{-a2} / sqrt(1 - a2 e^{-2 a2})
C1_BY_ALPHA_SQ = {0.25: 0.38940039153570243, 0.5: 0.4288819424803534,
                  1.0: 0.36787944117144233, 2.0: 0.19139299302082185,
                  4.0: 0.036631277777468361}
CROSS_BY_ALPHA_SQ = {0.25: 0.14947185391803652, 0.5: 0.23738137751336144,
                     1.0: 0.27974778171566048, 2.0: 0.19499782310470082,
                     4.0: 0.051839241771809247}


# each station's single-photon occupations |1,0>, |0,1>: logical 0 and 1
LOGICAL_BASIS = ((1, 0), (0, 1))
PSI1_OCCUPATIONS = {(1, 0, 0, 1), (0, 1, 1, 0)}


def closed_split(config, quad):
    """analytic.chsh_decomposition at an equal-drive config's strength and
    phases and the quadruple's settings."""
    return analytic.chsh_decomposition(config.alpha1_sq, config.phi1,
                                       config.phi2, *quad.settings)


def dense_evaluate_settings(config, xi, xi2, eta, eta2):
    """Oracle for evaluate_settings: run the dense 4-mode network at the four
    setting pairs and read every probability off the dense output by index,
    with the same canonical-marginal rule (Alice's at x from (x, eta),
    Bob's at y from (xi, y))."""
    pairs = ((xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2))
    support = input_support(config)
    probs = {p: dense_favorable_probs(propagate(support, *p)) for p in pairs}
    p_alice = {x: probs[(x, eta)][0] for x in (xi, xi2)}
    p_bob = {y: probs[(xi, y)][1] for y in (eta, eta2)}
    joints = tuple(probs[p][2] for p in pairs)
    correlators = tuple(1.0 - 2.0 * p_alice[x] - 2.0 * p_bob[y] + 4.0 * j
                        for (x, y), j in zip(pairs, joints))
    ch = (joints[0] + joints[1] - joints[2] + joints[3]
          - p_alice[xi2] - p_bob[eta])
    chsh = correlators[0] + correlators[1] - correlators[2] + correlators[3]
    return BellRecord(pairs, joints, p_alice[xi2], p_bob[eta], ch, chsh)


RECORD_FIELDS = ("joints", "local_alice", "local_bob", "ch", "chsh")
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
ANGLES = st.floats(0.0, 2.0 * math.pi)
# alpha^2 <= 2 keeps the dense oracle small (cutoff <= 21 at tail 1e-12)
ALPHA_SQ = st.floats(0.0, 2.0)
TAIL_EPS = st.sampled_from((1e-12, 1e-6, 1e-4))


@st.composite
def equal_drives(draw):
    """Symmetric ExperimentConfig (the split needs alpha1_sq == alpha2_sq)
    with free phases."""
    alpha_sq = draw(ALPHA_SQ)
    return ExperimentConfig(alpha_sq, alpha_sq, draw(ANGLES), draw(ANGLES),
                            CutoffSpec(tail_eps=draw(TAIL_EPS)))


QUADS = st.builds(SettingsQuadruple, ANGLES, ANGLES)
# the dense decomposition oracle propagates three (N+1)^4 states per pair
DENSE_SPLIT_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
# a tail budget at which the dense oracle stands in for the untruncated
# state the closed forms describe: the test holds the dropped Poisson mass
# below 1e-16
EXACT_TAIL_EPS = 1e-17


@st.composite
def exact_drives(draw):
    """equal_drives at the EXACT_TAIL_EPS budget."""
    alpha_sq = draw(ALPHA_SQ)
    return ExperimentConfig(alpha_sq, alpha_sq, draw(ANGLES), draw(ANGLES),
                            CutoffSpec(tail_eps=EXACT_TAIL_EPS))


@st.composite
def unequal_drives(draw):
    """ExperimentConfig with alpha1_sq != alpha2_sq and free phases."""
    a1_sq = draw(ALPHA_SQ)
    a2_sq = draw(ALPHA_SQ.filter(lambda v: v != a1_sq))
    return ExperimentConfig(a1_sq, a2_sq, draw(ANGLES), draw(ANGLES),
                            CutoffSpec(tail_eps=draw(TAIL_EPS)))


# |listed weight - dense weight| <= WEIGHT_RTOL times the larger: the
# listing takes Poisson products p_a1 p_a2, the dense split |complex
# amplitude|^2 over lam_coeff^2. Measured worst: 11.2 eps over 2000
# equal_drives draws, 2.8 eps at test_ties_keep_dense_order's configs (24
# eps at alpha^2 = 20, outside these ranges). Below the smallest normal
# double no weight keeps relative precision, so that much slack is absolute.
WEIGHT_RTOL = 16 * np.finfo(float).eps
TINY = np.finfo(float).tiny
# weights this close, relative, count as one tie: far above either route's
# rounding, far below the gap between weights that differ in exact arithmetic
TIE_RTOL = 1e-12


def close(u, v, rtol):
    return abs(u - v) <= rtol * max(u, v) + TINY


def tie_runs(entries):
    """(weight, occupation) pairs, largest weight first, as runs of tied
    weights (TIE_RTOL), each run the set of its occupations; a run is
    yielded once the next weight leaves it."""
    run, last = set(), None
    for weight, occ in entries:
        if run and not close(weight, last, TIE_RTOL):
            yield run
            run = set()
        run.add(occ)
        last = weight
    if run:
        yield run


def assert_matches_dense_listing(config):
    """lambda_cross_terms against the dense split's lam: every listed weight
    and magnitude within WEIGHT_RTOL of the dense lam's at that occupation,
    and the same occupations once tied weights are grouped. Every run of
    ties the listing holds whole is the dense listing's run, and the last,
    which the count may cut, lies in the dense run."""
    terms = lambda_cross_terms(config)
    lam = dense_split_state(config).lam
    for term in terms:
        dense_weight = float(abs(lam[term.occupation]) ** 2)
        assert close(term.weight, dense_weight, WEIGHT_RTOL), term
        assert close(term.magnitude, math.sqrt(dense_weight), WEIGHT_RTOL), term
    listed = list(tie_runs((t.weight, t.occupation) for t in terms))
    weights = np.abs(lam.reshape(-1)) ** 2
    dense = tie_runs((float(weights[flat]),
                      tuple(int(v) for v in np.unravel_index(flat, lam.shape)))
                     for flat in np.argsort(-weights, kind="stable"))
    dense = [run for _, run in zip(listed, dense)]
    assert listed[:-1] == dense[:-1]
    assert listed[-1] <= dense[-1]


# every support occupation of any cutoff: a listing this long is the whole
# support, sorted
WHOLE_SUPPORT = 4 * (MAX_CUTOFF + 1) ** 2


def mirrors(occ):
    """occ = (a1, b1, a2, b2) with the oscillator counts swapped, the photon
    moved to the other station, or both."""
    a1, b1, a2, b2 = occ
    return {occ, (a1, b2, a2, b1), (a2, b1, a1, b2), (a2, b2, a1, b1)}


def assert_exact_ties(config):
    """Mirror occupations (mirrors) weigh the same to the bit, psi1's two
    and theirs aside, and the listing is the first CROSS_TERM_COUNT of the
    whole support sorted exactly by (-weight, row-major index)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bell, "CROSS_TERM_COUNT", WHOLE_SUPPORT)
        whole = lambda_cross_terms(config)
    n = config.resolve_cutoff()
    domain = (n + 1, 2, n + 1, 2)
    assert len(whole) == 4 * (n + 1) ** 2
    weight = {t.occupation: t.weight for t in whole}
    for occ, w in weight.items():
        group = mirrors(occ)
        if occ[1] + occ[3] == 1 and not group & PSI1_OCCUPATIONS:
            assert {weight[m] for m in group} == {w}, occ
    keys = [(-t.weight, np.ravel_multi_index(t.occupation, domain)) for t in whole]
    assert keys == sorted(keys)
    assert lambda_cross_terms(config) == whole[:bell.CROSS_TERM_COUNT]


class TestStationFactorization:
    @PROPERTY_SETTINGS
    @given(config=unequal_drives(), angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_matches_dense_oracle(self, config, angles):
        rec = evaluate_settings(config, *angles)
        ref = dense_evaluate_settings(config, *angles)
        assert rec.settings == ref.settings
        for name in RECORD_FIELDS:
            got = np.atleast_1d(getattr(rec, name))
            want = np.atleast_1d(getattr(ref, name))
            assert np.max(np.abs(got - want)) <= 1e-12, name

    @PROPERTY_SETTINGS
    @given(config=unequal_drives(), angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_ch_chsh_identity(self, config, angles):
        rec = evaluate_settings(config, *angles)
        assert abs(rec.chsh - (2.0 + 4.0 * rec.ch)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(alpha_sq=ALPHA_SQ, phase=ANGLES, theta=ANGLES,
           cutoff=st.integers(1, 12))
    def test_station_terms_match_full_beamsplitter(self, alpha_sq, phase,
                                                   theta, cutoff):
        # the full 2-mode evolution runs every block up to 2 * cutoff, so
        # agreement shows that the blocks mix_station skips hold nothing;
        # the closed binomial columns build the same terms with no blocks
        # at all
        alpha = math.sqrt(alpha_sq) * np.exp(1j * phase)
        lo = coherent_amplitudes((alpha,), cutoff)
        images = mix_station(lo, (theta,))
        assert images.shape == (len(support_rows(cutoff)[0]), 2, 1)
        images = on_square(images, cutoff)
        unitary = pair_unitary(theta, cutoff, cutoff)
        closed = dense_station_columns(theta, cutoff)
        for s in (0, 1):
            station = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
            station[:, s] = lo[0]
            full = (unitary @ station.reshape(-1)).reshape(station.shape)
            assert np.max(np.abs(images[:, :, s, 0] - full)) <= 1e-15
            # mix_station's eigendecomposed mixing carries up to ~6e-15 of
            # rounding (test_optics.TestStationColumns)
            independent = np.tensordot(closed[:, :, :, s], lo[0], axes=(2, 0))
            assert np.max(np.abs(images[:, :, s, 0] - independent)) <= 1e-14

    def test_station_needs_room_for_the_photon(self):
        with pytest.raises(ValueError):
            mix_station(np.ones((1, 1)), (0.3,))


class TestOnePassPerNetwork:
    """Every setting of a network is mixed in one mix_station pass: a
    record's four settings in one call and the verify oracle's network in
    one. A loop over angles that comes back fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"bell": 0, "optics": 0}
        for name, module in (("bell", bell), ("optics", optics)):
            def counted(lo, angles, _mix=module.mix_station, _name=name):
                counts[_name] += 1
                return _mix(lo, angles)
            monkeypatch.setattr(module, "mix_station", counted)
        return counts

    @pytest.mark.parametrize("angles", [(0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.5, 0.5)],
                             ids=["distinct", "repeated"])
    def test_one_call_per_record(self, calls, angles):
        evaluate_settings(ExperimentConfig(1.3, 0.4, 0.2, 1.1), *angles)
        assert calls == {"bell": 1, "optics": 0}

    def test_one_call_per_network(self, calls):
        optics.run_network(ExperimentConfig(1.3, 0.4, 0.2, 1.1), 0.7, 2.1)
        assert calls == {"bell": 0, "optics": 1}


class TestSettingsQuadruple:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(total=st.floats(-1e6, 1e6), difference=st.floats(-1e6, 1e6))
    def test_constructor_is_the_written_out_arithmetic(self, total, difference):
        quad = SettingsQuadruple.from_sum_difference(total, difference)
        xi, eta = (total + difference) / 2.0, (total - difference) / 2.0
        assert (quad.xi, quad.eta) == (xi, eta)
        assert quad.settings == (xi, xi + HALF_PI, eta, eta + HALF_PI)

    def test_reference_quadruple_unchanged(self):
        # (pi +- 3 pi / 4) / 2, as floats
        quad = reference_quadruple()
        assert (quad.xi, quad.eta) == (2.748893571891069, 0.39269908169872414)

    def test_settings_of_an_array_batch(self):
        xi, eta = np.array([0.1, 2.0]), np.array([1.5, -3.0])
        settings_ = SettingsQuadruple(xi, eta).settings
        for got, want in zip(settings_, (xi, xi + HALF_PI, eta, eta + HALF_PI)):
            assert np.array_equal(got, want)


class TestBellRecords:
    def test_zero_drive_zero_angles(self):
        rec = evaluate_quadruple(symmetric_config(0.0), SettingsQuadruple(0.0, 0.0))
        assert rec.ch == pytest.approx(-0.25, abs=1e-12)
        assert rec.chsh == pytest.approx(1.0, abs=1e-12)
        assert rec.local_alice == pytest.approx(0.25, abs=1e-12)
        assert rec.local_bob == pytest.approx(0.0, abs=1e-12)

    def test_reference_point_both_paths(self):
        rec = evaluate_quadruple(symmetric_config(1.0, HALF_PI), reference_quadruple())
        assert rec.ch == pytest.approx(CH_REF, abs=1e-9)
        assert rec.chsh == pytest.approx(CHSH_REF, abs=1e-9)

    def test_ch_chsh_relation_on_every_record(self):
        rng = np.random.default_rng(20)
        for _ in range(8):
            cfg = symmetric_config(4.0 * (1.0 - rng.random()),
                                   rng.uniform(0, 2 * math.pi))
            quad = SettingsQuadruple(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            rec = evaluate_quadruple(cfg, quad)
            assert abs(rec.chsh - (2.0 + 4.0 * rec.ch)) < 1e-12
            assert -2.0 <= rec.ch <= 1.0

    def test_record_fields_consistent(self):
        rec = evaluate_quadruple(symmetric_config(0.7, 1.3),
                                 SettingsQuadruple(0.4, 2.0))
        ch = (rec.joints[0] + rec.joints[1] - rec.joints[2] + rec.joints[3]
              - rec.local_alice - rec.local_bob)
        assert rec.ch == pytest.approx(ch, abs=0)


class TestCoincidentSettings:
    """evaluate_settings(cfg, x, x, y, y): both of a party's settings at one
    angle, which happens where the simplex clips a vertex to the box bound
    2pi. The record keeps four stations and four pairs by position."""

    @PROPERTY_SETTINGS
    @given(a1_sq=ALPHA_SQ, a2_sq=ALPHA_SQ, phases=st.tuples(ANGLES, ANGLES),
           x=ANGLES, y=ANGLES)
    @example(a1_sq=1.0, a2_sq=1.0, phases=(0.0, HALF_PI), x=2 * math.pi,
             y=2 * math.pi)
    @example(a1_sq=0.3, a2_sq=1.7, phases=(2 * math.pi, 0.4), x=2 * math.pi,
             y=0.0)
    def test_identity_and_closed_form(self, a1_sq, a2_sq, phases, x, y):
        rec = evaluate_settings(ExperimentConfig(a1_sq, a2_sq, *phases), x, x, y, y)
        assert rec.settings == ((x, y),) * 4
        assert abs(rec.chsh - (2.0 + 4.0 * rec.ch)) <= IDENTITY_TOL
        ch, _ = analytic.ch_chsh_point(a1_sq, a2_sq, *phases, x, x, y, y)
        assert abs(rec.ch - ch) <= ORACLE_TOL


class TestStateSplit:
    """The split full = c1*psi1 + lam_coeff*lam as the report reads it: c1
    and lam_coeff off analytic.chsh_decomposition and lam through its listing
    (lambda_cross_terms), held to the dense split."""

    @pytest.mark.parametrize("alpha_sq", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_entangled_weight(self, alpha_sq):
        dec = closed_split(symmetric_config(alpha_sq), reference_quadruple())
        assert dec.c1 == pytest.approx(C1_BY_ALPHA_SQ[alpha_sq], abs=1e-12)
        assert dec.lam_coeff == pytest.approx(
            math.sqrt(1.0 - dec.c1 ** 2), abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_reconstruction(self, alpha_sq):
        # c1 psi1 is the input on the four logical occupations, and
        # lam_coeff times each listed magnitude the input's modulus there
        cfg = symmetric_config(alpha_sq, 0.8)
        dec = closed_split(cfg, reference_quadruple())
        split = dense_split_state(cfg)
        dense = on_support(split.full)
        for occ_a in LOGICAL_BASIS:
            for occ_b in LOGICAL_BASIS:
                assert abs(dec.c1 * split.psi1[occ_a + occ_b]
                           - dense[occ_a + occ_b]) < 1e-10
        for term in lambda_cross_terms(cfg):
            assert abs(dec.lam_coeff * term.magnitude
                       - abs(dense[term.occupation])) < 1e-10

    def test_orthogonality(self):
        # lam holds nothing on psi1's two occupations; unzeroed, both would
        # rank in its listing at these drives (from alpha^2 = 2 they would not)
        for alpha_sq in (0.25, 0.5, 1.0, 1.5):
            terms = lambda_cross_terms(symmetric_config(alpha_sq, 1.1))
            assert not {t.occupation for t in terms} & PSI1_OCCUPATIONS

    def test_zero_drive_degenerates(self):
        # c1 = 0: lam is the whole input, the photon split over two
        # vacuum oscillators
        cfg = symmetric_config(0.0)
        dec = closed_split(cfg, reference_quadruple())
        assert dec.c1 == 0.0
        assert dec.lam_coeff == 1.0
        dense = on_support(dense_split_state(cfg).full)
        terms = lambda_cross_terms(cfg)
        assert [t.occupation for t in terms[:2]] == [(0, 0, 0, 1), (0, 1, 0, 0)]
        assert sum(t.weight for t in terms) == pytest.approx(1.0, abs=1e-14)
        for term in terms:
            assert abs(term.magnitude - abs(dense[term.occupation])) < 1e-14

    def test_residual_amplitude_at_paired_occupation(self):
        by_occ = {t.occupation: t for t in lambda_cross_terms(symmetric_config(1.0))}
        assert by_occ[(1, 0, 1, 1)].magnitude == pytest.approx(
            CROSS_BY_ALPHA_SQ[1.0], abs=1e-12)

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives())
    def test_support_holds_dense_state(self, config):
        # the dense psi1 holds nothing off the logical occupations, is
        # unit-norm there with concurrence 2 |det| = 1 (maximally entangled,
        # the 2 sqrt 2 of tests/test_derivation.py), and c1, lam_coeff are
        # the dense split's
        dense = dense_split_state(config)
        rest = dense.psi1.copy()
        psi = np.zeros((2, 2), dtype=complex)
        for i, occ_a in enumerate(LOGICAL_BASIS):
            for j, occ_b in enumerate(LOGICAL_BASIS):
                psi[i, j] = dense.psi1[occ_a + occ_b]
                rest[occ_a + occ_b] = 0.0
        assert not np.any(rest)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-15)
        assert 2.0 * abs(psi[0, 0] * psi[1, 1] - psi[0, 1] * psi[1, 0]) == \
            pytest.approx(1.0, abs=1e-15)
        dec = closed_split(config, reference_quadruple())
        assert (dec.c1, dec.lam_coeff) == (dense.c1, dense.lam_coeff)

    def test_asymmetric_drive_rejected(self):
        with pytest.raises(ValueError, match="equal oscillator strengths"):
            lambda_cross_terms(ExperimentConfig(1.0, 2.0))


class TestLambdaCrossTerms:
    def test_mixed_outcome_term_present(self):
        terms = lambda_cross_terms(symmetric_config(1.0))
        by_occ = {t.occupation: t for t in terms}
        assert (1, 0, 1, 1) in by_occ
        term = by_occ[(1, 0, 1, 1)]
        assert term.magnitude == pytest.approx(CROSS_BY_ALPHA_SQ[1.0], abs=1e-9)
        assert term.alice_minus_one_reachable is True
        assert term.bob_minus_one_reachable is False

    def test_terms_sorted_and_deterministic(self):
        config = symmetric_config(1.0)
        first = lambda_cross_terms(config)
        second = lambda_cross_terms(config)
        assert [t.occupation for t in first] == [t.occupation for t in second]
        weights = [t.weight for t in first]
        assert weights == sorted(weights, reverse=True)

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives())
    def test_matches_dense_listing(self, config):
        assert_matches_dense_listing(config)

    @pytest.mark.parametrize("alpha_sq", [1e-6, 6.0])
    def test_ties_keep_dense_order(self, alpha_sq):
        # many occupations tie in weight here, and the dense split's
        # rounding leaves its mirror weights apart by an ulp or two
        cfg = symmetric_config(alpha_sq, HALF_PI, CutoffSpec(tail_eps=1e-6))
        assert_matches_dense_listing(cfg)
        weights = [t.weight for t in lambda_cross_terms(cfg)]
        assert len(set(weights)) < len(weights)

    def test_mirror_weights_tie_exactly_at_the_pinned_split(self):
        # tests/fixtures/split_alpha3.5_phi0.4.json lists these two runs of
        # four tied weights
        cfg = ExperimentConfig(3.5, 3.5, 0.0, 0.4)
        assert_exact_ties(cfg)
        assert [t.occupation for t in lambda_cross_terms(cfg)[2:]] == [
            (3, 0, 4, 1), (3, 1, 4, 0), (4, 0, 3, 1), (4, 1, 3, 0),
            (2, 0, 3, 1), (2, 1, 3, 0), (3, 0, 2, 1), (3, 1, 2, 0)]

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives())
    def test_mirror_weights_tie_exactly(self, config):
        assert_exact_ties(config)

    def test_zero_padding_at_the_smallest_cutoff(self):
        # N = 1 leaves six nonzero weights on the 16 support occupations, so
        # the listing ends in four zero weights, in row-major order as in
        # the dense listing (whose domain at N = 1 is the support's)
        cfg = symmetric_config(1.3, 0.7, CutoffSpec(n_max=1))
        terms = lambda_cross_terms(cfg)
        assert all(t.weight > 0.0 for t in terms[:6])
        assert [(t.occupation, t.weight, t.magnitude) for t in terms[6:]] == [
            ((0, 0, 0, 0), 0.0, 0.0), ((0, 0, 1, 0), 0.0, 0.0),
            ((0, 1, 0, 1), 0.0, 0.0), ((0, 1, 1, 0), 0.0, 0.0)]
        dense = dense_cross_terms(dense_split_state(cfg).lam,
                                  count=bell.CROSS_TERM_COUNT)
        assert terms[6:] == dense[6:]


class TestComponentChsh:
    """The component parts of analytic.chsh_decomposition: the CHSH
    combination of <u| A x B |u> for the split's full state, psi1 and lam."""

    def test_photon_only_with_transmitting_settings(self):
        dec = closed_split(symmetric_config(0.0), SettingsQuadruple(0.0, 0.0))
        assert dec.full == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_residual_stays_classical_at_reference_settings(self, alpha_sq):
        config = symmetric_config(alpha_sq, HALF_PI)
        assert closed_split(config, reference_quadruple()).lam_part < 2.0

    def test_entangled_component_within_quantum_bound(self):
        rng = np.random.default_rng(21)
        config = symmetric_config(1.0, 0.7)
        for _ in range(4):
            quad = SettingsQuadruple(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            value = closed_split(config, quad).psi1_part
            assert -TWO_SQRT2 - 1e-12 <= value <= TWO_SQRT2 + 1e-12

    @DENSE_SPLIT_SETTINGS
    @given(config=exact_drives(), angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_matches_dense_oracle(self, config, angles):
        # the closed parts are exact, so the dense oracle's cutoff must drop
        # nothing that shows at 1e-12. Free second settings: on a quadruple's
        # (second settings pi/2 off) psi1's CHSH keeps its value with cos and
        # sin swapped in the correlator
        assert exact_poisson_tail(config.alpha1_sq, config.resolve_cutoff()) < 1e-16
        dec = analytic.chsh_decomposition(config.alpha1_sq, config.phi1,
                                          config.phi2, *angles)
        ref = dense_chsh_decomposition(config, *angles)
        for name in ("full", "psi1_part", "lam_part"):
            assert abs(getattr(dec, name) - getattr(ref, name)) <= 1e-12, name

    def test_zero_drive_leaves_psi1_maximally_violating(self):
        # c1 = 0 here: psi1's part comes from its own correlator, not from
        # full divided by c1^2
        dec = closed_split(symmetric_config(0.0, HALF_PI), reference_quadruple())
        assert dec.c1 == 0.0
        assert dec.psi1_part == pytest.approx(TWO_SQRT2, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(alpha_sq=st.floats(0.0, 20.0), phases=st.tuples(ANGLES, ANGLES),
           quad=QUADS)
    def test_full_matches_record_route(self, alpha_sq, phases, quad):
        # split's numeric_crosscheck: one record at the policy cutoff, at
        # drives the dense oracle cannot reach
        config = ExperimentConfig(alpha_sq, alpha_sq, *phases)
        record = evaluate_settings(config, *quad.settings)
        assert abs(closed_split(config, quad).full - record.chsh) <= ORACLE_TOL


class TestDecomposition:
    @pytest.mark.parametrize("alpha_sq", [0.5, 1.0, 2.0])
    def test_parts_reassemble_to_full(self, alpha_sq):
        cfg = symmetric_config(alpha_sq, HALF_PI)
        dec = closed_split(cfg, reference_quadruple())
        assert abs(dec.full - dec.reassembled) < 1e-9
        assert dec.lam_part < 2.0

    def test_matches_record_value(self):
        cfg = symmetric_config(1.0, HALF_PI)
        quad = reference_quadruple()
        dec = closed_split(cfg, quad)
        rec = evaluate_quadruple(cfg, quad)
        assert dec.full == pytest.approx(rec.chsh, abs=1e-9)

    def test_interference_vanishes_by_photon_number_conservation(self):
        # the favorable projectors fix each station's photon count, so the
        # two-photon entangled component never interferes with the residual
        # (the dense oracle measures it: test_matches_dense_oracle)
        rng = np.random.default_rng(25)
        for _ in range(4):
            cfg = symmetric_config(1.0 + rng.random(),
                                   rng.uniform(0, 2 * math.pi))
            dec = closed_split(cfg, SettingsQuadruple(
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            assert dec.interference == 0.0
            assert abs(dec.full - dec.reassembled) < 1e-12

    @PROPERTY_SETTINGS
    @given(config=equal_drives(), quad=QUADS)
    def test_interference_exactly_zero_at_any_phase(self, config, quad):
        # the report prints an exact 0 whatever the oscillator phases
        assert closed_split(config, quad).interference == 0.0

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives(), quad=QUADS)
    def test_matches_dense_oracle(self, config, quad):
        # the evidence for the exact 0: propagated on the dense space at any
        # cutoff, psi1 and lam leave no cross term; c1 and lam_coeff are the
        # dense split's to the last bit
        dec = closed_split(config, quad)
        ref = dense_chsh_decomposition(config, *quad.settings)
        assert abs(ref.interference) < 1e-12
        assert (dec.c1, dec.lam_coeff) == (ref.c1, ref.lam_coeff)

