import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize as sciopt

from homodyne_bell.bell import (
    BellRecord,
    SettingsQuadruple,
    ch_value,
    chsh_decomposition,
    chsh_on_component,
    chsh_value,
    entangled_component,
    evaluate_quadruple,
    evaluate_settings,
    lambda_cross_terms,
    logical_qubit_amplitudes,
    reference_quadruple,
    split_state,
    tsirelson_two_qubit,
)
from homodyne_bell.detection import (
    Station,
    joint_favorable_prob,
    station_favorable_prob,
)
from homodyne_bell.fock import (
    PRE_NETWORK_MODES,
    CutoffSpec,
    amplitude_of,
    coherent_state,
    fock_basis_state,
    inner,
    tensor,
)
from homodyne_bell.optics import (
    ExperimentConfig,
    alice_half_network,
    apply_beamsplitter,
    build_input_state,
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


def two_term_state(amp_first, amp_second, cutoff=2):
    """State amp_first |1,0,0,1> + i amp_second |0,1,1,0> on the input modes."""
    t1 = fock_basis_state(PRE_NETWORK_MODES, (1, 0, 0, 1), cutoff)
    t2 = fock_basis_state(PRE_NETWORK_MODES, (0, 1, 1, 0), cutoff)
    return complex(amp_first) * t1 + (1j * amp_second) * t2


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
    setting pairs and read every probability off the full state, with the
    same canonical-marginal rule (Alice's at x from (x, eta), Bob's at y
    from (xi, y))."""
    source = build_input_state(config)
    alice_out = {x: alice_half_network(source, x) for x in (xi, xi2)}
    pairs = ((xi, eta), (xi2, eta), (xi, eta2), (xi2, eta2))
    states = {(x, y): apply_beamsplitter(alice_out[x], "a2", "b2", y)
              for (x, y) in pairs}
    p_alice = {x: station_favorable_prob(states[(x, eta)], Station.ALICE)
               for x in (xi, xi2)}
    p_bob = {y: station_favorable_prob(states[(xi, y)], Station.BOB)
             for y in (eta, eta2)}
    joints = tuple(joint_favorable_prob(states[p]) for p in pairs)
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
def unequal_drives(draw):
    """ExperimentConfig with alpha1 != alpha2 and free phases."""
    a1_sq = draw(ALPHA_SQ)
    a2_sq = draw(ALPHA_SQ.filter(lambda v: v != a1_sq))
    return ExperimentConfig(math.sqrt(a1_sq), math.sqrt(a2_sq),
                            draw(ANGLES), draw(ANGLES),
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
        # agreement shows that the blocks mix_station skips hold nothing
        alpha = math.sqrt(alpha_sq) * np.exp(1j * phase)
        terms = mix_station(alpha, theta, cutoff)
        assert terms.shape == (cutoff + 1, cutoff + 1, 2)
        for k in (0, 1):
            station = tensor([coherent_state("a1", alpha, cutoff),
                              fock_basis_state(("b1",), (k,), cutoff)])
            full = apply_beamsplitter(station, "a1", "b1", theta)
            assert np.max(np.abs(terms[..., k] - full.amps)) <= 1e-15

    def test_station_needs_room_for_the_photon(self):
        with pytest.raises(ValueError):
            mix_station(0.5, 0.3, 0)


class TestBellRecords:
    def test_zero_drive_zero_angles(self):
        rec = ch_value(symmetric_config(0.0), SettingsQuadruple(0.0, 0.0))
        assert rec.ch == pytest.approx(-0.25, abs=1e-12)
        assert rec.chsh == pytest.approx(1.0, abs=1e-12)
        assert rec.local_alice == pytest.approx(0.25, abs=1e-12)
        assert rec.local_bob == pytest.approx(0.0, abs=1e-12)

    def test_reference_point_both_paths(self):
        rec = ch_value(symmetric_config(1.0, HALF_PI), reference_quadruple())
        assert rec.ch == pytest.approx(CH_REF, abs=1e-9)
        assert rec.chsh == pytest.approx(CHSH_REF, abs=1e-9)

    def test_ch_chsh_relation_on_every_record(self):
        rng = np.random.default_rng(20)
        for _ in range(8):
            cfg = symmetric_config(4.0 * (1.0 - rng.random()),
                                   rng.uniform(0, 2 * math.pi))
            quad = SettingsQuadruple(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            rec = chsh_value(cfg, quad)
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
        assert (recon - build_input_state(cfg)).norm() < 1e-10

    def test_orthogonality(self):
        for alpha_sq in (0.5, 1.0, 3.0):
            split = split_state(symmetric_config(alpha_sq, 1.1))
            assert abs(inner(split.psi1, split.lam)) < 1e-10

    def test_zero_drive_degenerates(self):
        cfg = symmetric_config(0.0)
        split = split_state(cfg)
        assert split.c1 == 0.0
        assert split.lam_coeff == 1.0
        assert (split.lam - build_input_state(cfg)).norm() < 1e-14

    def test_residual_amplitude_at_paired_occupation(self):
        split = split_state(symmetric_config(1.0))
        amp = amplitude_of(split.lam, (1, 0, 1, 1))
        assert amp.real == pytest.approx(CROSS_BY_ALPHA_SQ[1.0], abs=1e-12)
        assert abs(amp.imag) < 1e-15

    def test_asymmetric_drive_rejected(self):
        from homodyne_bell.optics import ExperimentConfig
        with pytest.raises(ValueError):
            split_state(ExperimentConfig(1.0, 2.0))


class TestLambdaCrossTerms:
    def test_mixed_outcome_term_present(self):
        split = split_state(symmetric_config(1.0))
        terms = lambda_cross_terms(split, count=10)
        by_occ = {t.occupation: t for t in terms}
        assert (1, 0, 1, 1) in by_occ
        term = by_occ[(1, 0, 1, 1)]
        assert term.magnitude == pytest.approx(CROSS_BY_ALPHA_SQ[1.0], abs=1e-9)
        assert term.alice_minus_one_reachable is True
        assert term.bob_minus_one_reachable is False

    def test_terms_sorted_and_deterministic(self):
        split = split_state(symmetric_config(1.0))
        first = lambda_cross_terms(split, count=10)
        second = lambda_cross_terms(split, count=10)
        assert [t.occupation for t in first] == [t.occupation for t in second]
        weights = [t.weight for t in first]
        assert weights == sorted(weights, reverse=True)


class TestComponentChsh:
    def test_photon_only_with_transmitting_settings(self):
        cfg = symmetric_config(0.0)
        component = build_input_state(cfg)
        assert chsh_on_component(component, SettingsQuadruple(0.0, 0.0)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_residual_stays_classical_at_reference_settings(self, alpha_sq):
        split = split_state(symmetric_config(alpha_sq, HALF_PI))
        value = chsh_on_component(split.lam, reference_quadruple())
        assert value < 2.0

    def test_entangled_component_within_quantum_bound(self):
        rng = np.random.default_rng(21)
        psi1 = entangled_component(symmetric_config(1.0, 0.7))
        for _ in range(4):
            quad = SettingsQuadruple(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            value = chsh_on_component(psi1, quad)
            assert -TWO_SQRT2 - 1e-12 <= value <= TWO_SQRT2 + 1e-12


class TestDecomposition:
    @pytest.mark.parametrize("alpha_sq", [0.5, 1.0, 2.0])
    def test_parts_reassemble_to_full(self, alpha_sq):
        cfg = symmetric_config(alpha_sq, HALF_PI)
        dec = chsh_decomposition(cfg, reference_quadruple())
        assert abs(dec.full - dec.reassembled) < 1e-9
        assert dec.lam_part < 2.0

    def test_matches_record_value(self):
        cfg = symmetric_config(1.0, HALF_PI)
        quad = reference_quadruple()
        dec = chsh_decomposition(cfg, quad)
        rec = chsh_value(cfg, quad)
        assert dec.full == pytest.approx(rec.chsh, abs=1e-9)

    def test_interference_vanishes_by_photon_number_conservation(self):
        # the favorable projectors fix each station's photon count, so the
        # two-photon entangled component never interferes with the residual
        rng = np.random.default_rng(25)
        for _ in range(4):
            cfg = symmetric_config(1.0 + rng.random(),
                                   rng.uniform(0, 2 * math.pi))
            dec = chsh_decomposition(cfg, SettingsQuadruple(
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            assert abs(dec.interference) < 1e-12
            assert abs(dec.full - dec.reassembled) < 1e-9


class TestTsirelson:
    def test_product_state_reaches_classical_bound(self):
        product = fock_basis_state(PRE_NETWORK_MODES, (1, 0, 1, 0), 2)
        assert tsirelson_two_qubit(product) == pytest.approx(2.0, abs=1e-12)

    def test_entangled_component_saturates_quantum_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            cfg = symmetric_config(1.0, 0.0)
            psi1 = entangled_component(
                symmetric_config(1.0, rng.uniform(0, 2 * math.pi)))
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
        vacuum_mix = fock_basis_state(PRE_NETWORK_MODES, (0, 0, 0, 0), 2)
        with pytest.raises(ValueError):
            tsirelson_two_qubit(vacuum_mix)
