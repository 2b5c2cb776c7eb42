import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize as sciopt

from dense_oracle import (
    ab_product_expectation,
    dense_chsh_decomposition,
    dense_chsh_on_component,
    dense_cross_terms,
    dense_favorable_probs,
    dense_split_state,
    dense_station_columns,
    on_support,
    propagate,
)
from test_optics import pair_unitary
from homodyne_bell import analytic, bell, optics
from homodyne_bell.bell import (
    BellRecord,
    SettingsQuadruple,
    StateSplit,
    chsh_decomposition,
    evaluate_quadruple,
    evaluate_settings,
    lambda_cross_terms,
    logical_qubit_amplitudes,
    reference_quadruple,
    split_state,
    tsirelson_two_qubit,
)
from homodyne_bell.cli import IDENTITY_TOL, ORACLE_TOL
from homodyne_bell.fock import CutoffSpec, coherent_state
from homodyne_bell.optics import (
    ExperimentConfig,
    input_support,
    mix_station,
    symmetric_config,
)

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
DAMPED_TSIRELSON = 2.8096257321932941


def support_state(amplitudes, cutoff=2):
    """Support array [a1, b1, a2, b2] with the given {occupation: amplitude}."""
    state = np.zeros((cutoff + 1, 2, cutoff + 1, 2), dtype=complex)
    for occ, amp in amplitudes.items():
        state[occ] = amp
    return state


def two_term_state(amp_first, amp_second, cutoff=2):
    """State amp_first |1,0,0,1> + i amp_second |0,1,1,0> on the input modes."""
    return support_state({(1, 0, 0, 1): amp_first,
                          (0, 1, 1, 0): 1j * amp_second}, cutoff)


def qubit_chsh_search_oracle(psi, seed, starts=24):
    """Independent check of the qubit CHSH maximum: optimize the four Bloch
    measurement directions directly."""
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]

    def bloch_op(theta, phi):
        n = (math.sin(theta) * math.cos(phi),
             math.sin(theta) * math.sin(phi), math.cos(theta))
        return sum(c * p for c, p in zip(n, paulis))

    def expectation(op_a, op_b):
        return np.einsum("ab,aA,bB,AB->", psi.conj(), op_a, op_b, psi).real

    def negative_chsh(x):
        a, a2, b, b2 = (bloch_op(x[2 * k], x[2 * k + 1]) for k in range(4))
        return -(expectation(a, b) + expectation(a2, b)
                 + expectation(a, b2) - expectation(a2, b2))

    rng = np.random.default_rng(seed)
    best = -4.0
    for _ in range(starts):
        x0 = rng.uniform(0, 2 * math.pi, 8)
        res = sciopt.minimize(negative_chsh, x0, method="Nelder-Mead",
                              options={"xatol": 1e-12, "fatol": 1e-14,
                                       "maxfev": 4000})
        best = max(best, -res.fun)
    return best


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
    return BellRecord(pairs, joints, p_alice[xi2], p_bob[eta],
                      correlators, ch, chsh)


RECORD_FIELDS = ("joints", "local_alice", "local_bob", "correlators", "ch",
                 "chsh")
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


def support_slice(state):
    """A dense input array on the split's support, b1, b2 <= 1."""
    return state[:, :2, :, :2]


def off_support(state):
    """Every dense amplitude with b1 >= 2 or b2 >= 2."""
    mask = np.ones(state.shape, dtype=bool)
    mask[:, :2, :, :2] = False
    return state[mask]


@st.composite
def unequal_drives(draw):
    """ExperimentConfig with alpha1_sq != alpha2_sq and free phases."""
    a1_sq = draw(ALPHA_SQ)
    a2_sq = draw(ALPHA_SQ.filter(lambda v: v != a1_sq))
    return ExperimentConfig(a1_sq, a2_sq, draw(ANGLES), draw(ANGLES),
                            CutoffSpec(tail_eps=draw(TAIL_EPS)))


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
        lo, _ = coherent_state(alpha, cutoff)
        images = mix_station(lo[None], (theta,))
        assert images.shape == (cutoff + 1, cutoff + 1, 2, 1)
        unitary = pair_unitary(theta, cutoff, cutoff)
        closed = dense_station_columns(theta, cutoff)
        for s in (0, 1):
            station = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
            station[:, s] = lo
            full = (unitary @ station.reshape(-1)).reshape(station.shape)
            assert np.max(np.abs(images[:, :, s, 0] - full)) <= 1e-15
            # mix_station's eigendecomposed mixing carries up to ~6e-15 of
            # rounding (test_optics.TestStationColumns)
            independent = np.tensordot(closed[:, :, :, s], lo, axes=(2, 0))
            assert np.max(np.abs(images[:, :, s, 0] - independent)) <= 1e-14

    def test_station_needs_room_for_the_photon(self):
        with pytest.raises(ValueError):
            mix_station(np.ones((1, 1)), (0.3,))


class TestOnePassPerNetwork:
    """Every setting of a network is mixed in one mix_station pass: a
    record's four settings in one call, the verify oracle's network in
    one, split's station observable in one per distinct angle. A loop over
    angles that comes back fails here."""

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

    def test_one_call_per_observable_angle(self, calls):
        quad = reference_quadruple()
        chsh_decomposition(split_state(symmetric_config(0.6, 0.3)), quad)
        assert calls == {"bell": len(set(quad.settings)), "optics": 0}


class TestSettingsQuadruple:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(total=st.floats(-1e6, 1e6), difference=st.floats(-1e6, 1e6))
    def test_constructor_is_the_written_out_arithmetic(self, total, difference):
        quad = SettingsQuadruple.from_sum_difference(total, difference)
        xi, eta = (total + difference) / 2.0, (total - difference) / 2.0
        assert (quad.xi, quad.eta) == (xi, eta)
        assert quad.settings == (xi, xi + HALF_PI, eta, eta + HALF_PI)
        assert quad.pairs == ((xi, eta), (xi + HALF_PI, eta),
                              (xi, eta + HALF_PI), (xi + HALF_PI, eta + HALF_PI))

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
        chsh = (rec.correlators[0] + rec.correlators[1]
                - rec.correlators[2] + rec.correlators[3])
        assert rec.chsh == pytest.approx(chsh, abs=0)


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
    @pytest.mark.parametrize("alpha_sq", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_entangled_weight(self, alpha_sq):
        split = split_state(symmetric_config(alpha_sq))
        assert split.c1 == pytest.approx(C1_BY_ALPHA_SQ[alpha_sq], abs=1e-12)
        assert split.lam_coeff == pytest.approx(
            math.sqrt(1.0 - split.c1 ** 2), abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_reconstruction(self, alpha_sq):
        cfg = symmetric_config(alpha_sq, 0.8)
        split = split_state(cfg)
        recon = split.c1 * split.psi1 + split.lam_coeff * split.lam
        dense = on_support(dense_split_state(cfg).full)
        assert np.linalg.norm(recon - dense) < 1e-10

    def test_orthogonality(self):
        for alpha_sq in (0.5, 1.0, 3.0):
            split = split_state(symmetric_config(alpha_sq, 1.1))
            assert abs(np.vdot(split.psi1, split.lam)) < 1e-10

    def test_zero_drive_degenerates(self):
        cfg = symmetric_config(0.0)
        split = split_state(cfg)
        assert split.c1 == 0.0
        assert split.lam_coeff == 1.0
        dense = on_support(dense_split_state(cfg).full)
        assert np.linalg.norm(split.lam - dense) < 1e-14

    def test_residual_amplitude_at_paired_occupation(self):
        split = split_state(symmetric_config(1.0))
        amp = split.lam[1, 0, 1, 1]
        assert amp.real == pytest.approx(CROSS_BY_ALPHA_SQ[1.0], abs=1e-12)
        assert abs(amp.imag) < 1e-15

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives())
    def test_support_holds_dense_state(self, config):
        # the same operations in the same order: equal to the last bit on
        # the support, and the dense states hold nothing outside it
        split = split_state(config)
        dense = dense_split_state(config)
        assert split.full.shape == (config.resolve_cutoff() + 1, 2) * 2
        for name in ("full", "psi1", "lam"):
            assert np.array_equal(getattr(split, name),
                                  support_slice(getattr(dense, name))), name
            assert not np.any(off_support(getattr(dense, name))), name
        assert (split.c1, split.lam_coeff) == (dense.c1, dense.lam_coeff)

    def test_asymmetric_drive_rejected(self):
        from homodyne_bell.optics import ExperimentConfig
        with pytest.raises(ValueError):
            split_state(ExperimentConfig(1.0, 2.0))


class TestLambdaCrossTerms:
    def test_mixed_outcome_term_present(self):
        split = split_state(symmetric_config(1.0))
        terms = lambda_cross_terms(split)
        by_occ = {t.occupation: t for t in terms}
        assert (1, 0, 1, 1) in by_occ
        term = by_occ[(1, 0, 1, 1)]
        assert term.magnitude == pytest.approx(CROSS_BY_ALPHA_SQ[1.0], abs=1e-9)
        assert term.alice_minus_one_reachable is True
        assert term.bob_minus_one_reachable is False

    def test_terms_sorted_and_deterministic(self):
        split = split_state(symmetric_config(1.0))
        first = lambda_cross_terms(split)
        second = lambda_cross_terms(split)
        assert [t.occupation for t in first] == [t.occupation for t in second]
        weights = [t.weight for t in first]
        assert weights == sorted(weights, reverse=True)

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives())
    def test_matches_dense_listing(self, config):
        split = split_state(config)
        assert lambda_cross_terms(split) == \
            dense_cross_terms(dense_split_state(config).lam,
                              count=bell.CROSS_TERM_COUNT)

    @pytest.mark.parametrize("alpha_sq", [1e-6, 6.0])
    def test_ties_keep_dense_order(self, alpha_sq):
        # many occupations tie in weight here; a contraction in another
        # order perturbs the last bits and swaps tied entries
        cfg = symmetric_config(alpha_sq, HALF_PI, CutoffSpec(tail_eps=1e-6))
        terms = lambda_cross_terms(split_state(cfg))
        assert terms == dense_cross_terms(dense_split_state(cfg).lam,
                                          count=bell.CROSS_TERM_COUNT)
        weights = [t.weight for t in terms]
        assert len(set(weights)) < len(weights)


class TestComponentChsh:
    """The component parts of chsh_decomposition: the CHSH combination of
    <u| A x B |u> for the split's full state, psi1 and lam."""

    def test_photon_only_with_transmitting_settings(self):
        dec = chsh_decomposition(split_state(symmetric_config(0.0)),
                                 SettingsQuadruple(0.0, 0.0))
        assert dec.full == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_residual_stays_classical_at_reference_settings(self, alpha_sq):
        split = split_state(symmetric_config(alpha_sq, HALF_PI))
        assert chsh_decomposition(split, reference_quadruple()).lam_part < 2.0

    def test_entangled_component_within_quantum_bound(self):
        rng = np.random.default_rng(21)
        split = split_state(symmetric_config(1.0, 0.7))
        for _ in range(4):
            quad = SettingsQuadruple(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            value = chsh_decomposition(split, quad).psi1_part
            assert -TWO_SQRT2 - 1e-12 <= value <= TWO_SQRT2 + 1e-12

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives(), quad=QUADS, seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, config, quad, seed):
        dec = chsh_decomposition(split_state(config), quad)
        dense = dense_split_state(config)
        for name, part in (("full", "full"), ("psi1", "psi1_part"),
                           ("lam", "lam_part")):
            want = dense_chsh_on_component(on_support(getattr(dense, name)), quad)
            assert abs(getattr(dec, part) - want) <= 1e-12, name
        # generic support states also couple occupations that photon number
        # keeps apart in the split's states; with c1 = 1/2 and lam_coeff = 1
        # the interference is Re <u| A x B |v>
        rng = np.random.default_rng(seed)
        shape = (2,) + on_support(dense.full).shape + (2,)
        u, v = rng.standard_normal(shape) @ (1.0, 1.0j)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        dec = chsh_decomposition(StateSplit(0.5, u, v, 1.0, u), quad)
        assert abs(dec.full - dense_chsh_on_component(u, quad)) <= 1e-12
        assert abs(dec.lam_part - dense_chsh_on_component(v, quad)) <= 1e-12
        cross = sum(sign * ab_product_expectation(propagate(u, x, y),
                                                  propagate(v, x, y)).real
                    for sign, (x, y) in zip((1.0, 1.0, -1.0, 1.0), quad.pairs))
        assert abs(dec.interference - cross) <= 1e-12


class TestDecomposition:
    @pytest.mark.parametrize("alpha_sq", [0.5, 1.0, 2.0])
    def test_parts_reassemble_to_full(self, alpha_sq):
        cfg = symmetric_config(alpha_sq, HALF_PI)
        dec = chsh_decomposition(split_state(cfg), reference_quadruple())
        assert abs(dec.full - dec.reassembled) < 1e-9
        assert dec.lam_part < 2.0

    def test_matches_record_value(self):
        cfg = symmetric_config(1.0, HALF_PI)
        quad = reference_quadruple()
        dec = chsh_decomposition(split_state(cfg), quad)
        rec = evaluate_quadruple(cfg, quad)
        assert dec.full == pytest.approx(rec.chsh, abs=1e-9)

    def test_interference_vanishes_by_photon_number_conservation(self):
        # the favorable projectors fix each station's photon count, so the
        # two-photon entangled component never interferes with the residual
        rng = np.random.default_rng(25)
        for _ in range(4):
            cfg = symmetric_config(1.0 + rng.random(),
                                   rng.uniform(0, 2 * math.pi))
            dec = chsh_decomposition(split_state(cfg), SettingsQuadruple(
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            assert abs(dec.interference) < 1e-12
            assert abs(dec.full - dec.reassembled) < 1e-9
        # at split's default phases the station observables' blocks of
        # different photon number are exact zeros, and so is the
        # interference the split report prints
        for alpha_sq in (0.3, 1.0, 2.5):
            split = split_state(symmetric_config(alpha_sq))
            quads = [reference_quadruple()] + [
                SettingsQuadruple(*rng.uniform(0, 2 * math.pi, 2)) for _ in range(3)]
            for quad in quads:
                assert chsh_decomposition(split, quad).interference == 0.0

    @PROPERTY_SETTINGS
    @given(config=equal_drives(), quad=QUADS)
    def test_interference_exactly_zero_at_any_phase(self, config, quad):
        # lam is exactly zero on psi1's two entries, so no rounding of the
        # split leaks into the cross form, whatever the oscillator phases
        split = split_state(config)
        assert split.lam[1, 0, 0, 1] == split.lam[0, 1, 1, 0] == 0.0
        assert chsh_decomposition(split, quad).interference == 0.0

    @DENSE_SPLIT_SETTINGS
    @given(config=equal_drives(), quad=QUADS)
    def test_matches_dense_oracle(self, config, quad):
        dec = chsh_decomposition(split_state(config), quad)
        ref = dense_chsh_decomposition(config, quad)
        for name in ("full", "psi1_part", "lam_part", "interference"):
            assert abs(getattr(dec, name) - getattr(ref, name)) <= 1e-12, name
        assert (dec.c1, dec.lam_coeff) == (ref.c1, ref.lam_coeff)


PAULIS = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
          np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def pauli_tsirelson(psi):
    """Horodecki's maximal CHSH of a two-qubit pure state psi[a, b]:
    2 sqrt(m1 + m2), m1, m2 the two largest eigenvalues of T^T T with T the
    3x3 spin correlation matrix."""
    psi = psi / np.linalg.norm(psi)
    t = np.array([[np.einsum("ab,aA,bB,AB->", psi.conj(), si, sj, psi).real
                   for sj in PAULIS] for si in PAULIS])
    lams = np.linalg.eigvalsh(t.T @ t)[::-1]
    return 2.0 * math.sqrt(max(lams[0], 0.0) + max(lams[1], 0.0))


AMPLITUDE = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


class TestTsirelson:
    @PROPERTY_SETTINGS
    @given(amps=st.tuples(AMPLITUDE, AMPLITUDE, AMPLITUDE, AMPLITUDE).filter(
        lambda amps: sum(re * re + im * im for re, im in amps) > 1e-3))
    def test_matches_pauli_correlation_form(self, amps):
        psi = np.array([complex(*a) for a in amps]).reshape(2, 2)
        state = support_state({(1, 0, 1, 0): psi[0, 0], (1, 0, 0, 1): psi[0, 1],
                               (0, 1, 1, 0): psi[1, 0], (0, 1, 0, 1): psi[1, 1]})
        assert tsirelson_two_qubit(state) == pytest.approx(
            pauli_tsirelson(psi), abs=1e-12)

    def test_product_state_reaches_classical_bound(self):
        product = support_state({(1, 0, 1, 0): 1.0})
        assert tsirelson_two_qubit(product) == pytest.approx(2.0, abs=1e-12)

    def test_entangled_component_saturates_quantum_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            cfg = symmetric_config(1.0, 0.0)
            psi1 = split_state(
                symmetric_config(1.0, rng.uniform(0, 2 * math.pi))).psi1
            assert tsirelson_two_qubit(psi1) == pytest.approx(
                TWO_SQRT2, abs=1e-9)
            del cfg

    def test_phase_invariance(self):
        values = [tsirelson_two_qubit(two_term_state(
            math.cos(0.25 * math.pi) * np.exp(1j * phi1),
            math.sin(0.25 * math.pi) * np.exp(1j * phi2)))
            for phi1, phi2 in ((0.0, 0.0), (1.2, 0.4), (5.9, 3.3))]
        assert max(values) - min(values) < 1e-10

    def test_damped_state_between_bounds(self):
        norm = math.sqrt(0.5 + 0.36)
        state = two_term_state((1 / math.sqrt(2)) / norm, 0.6 / norm)
        value = tsirelson_two_qubit(state)
        assert value == pytest.approx(DAMPED_TSIRELSON, abs=1e-12)
        assert 2.0 < value < TWO_SQRT2

    def test_damped_state_against_search_oracle(self):
        norm = math.sqrt(0.5 + 0.36)
        state = two_term_state((1 / math.sqrt(2)) / norm, 0.6 / norm)
        psi = logical_qubit_amplitudes(state)
        found = qubit_chsh_search_oracle(psi, seed=24)
        assert found == pytest.approx(tsirelson_two_qubit(state), abs=1e-6)

    def test_rejects_states_outside_logical_subspace(self):
        vacuum_mix = support_state({(0, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            tsirelson_two_qubit(vacuum_mix)

    @pytest.mark.parametrize("scale, accepted", [(0.5, True), (2.0, False)])
    def test_off_subspace_tolerance_is_the_module_constant(self, scale, accepted):
        # a vacuum term carrying scale * LOGICAL_SUBSPACE_ATOL of probability
        atol = bell.LOGICAL_SUBSPACE_ATOL
        assert atol == 1e-9
        state = two_term_state(0.6, 0.8)
        state[0, 0, 0, 0] = math.sqrt(scale * atol)
        if accepted:
            assert logical_qubit_amplitudes(state)[0, 1] == 0.6
        else:
            with pytest.raises(ValueError, match="outside the single-photon"):
                logical_qubit_amplitudes(state)

    def test_rejects_arrays_off_the_support_layout(self):
        dense = np.zeros((3, 3, 3, 3), dtype=complex)
        dense[1, 0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            tsirelson_two_qubit(dense)
