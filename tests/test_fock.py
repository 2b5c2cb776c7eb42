import math

import numpy as np
import pytest

from homodyne_bell.fock import (
    CutoffSpec,
    StateVector,
    amplitude_of,
    coherent_state,
    fock_basis_state,
    inner,
    reorder_modes,
    required_cutoff,
    tensor,
)

# frozen from the amplitude recurrence evaluated at high precision
C0_ALPHA1 = 0.6065306597126334
C2_ALPHA1 = 0.4288819424803534
E_MINUS_2 = 0.13533528323661269


def poisson_tail(lam, n):
    """Independent oracle: Poisson tail beyond n by direct summation."""
    terms = [math.exp(-lam)]
    for k in range(1, n + 1):
        terms.append(terms[-1] * lam / k)
    return 1.0 - math.fsum(terms)


def random_state(rng, modes=("m0", "m1"), cutoff=3):
    shape = tuple(cutoff + 1 for _ in modes)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.linalg.norm(amps)
    return StateVector(tuple(modes), (cutoff,) * len(modes), amps)


class TestBasisStates:
    def test_vacuum(self):
        vac = fock_basis_state(("m0", "m1"), (0, 0), 3)
        assert amplitude_of(vac, (0, 0)) == 1.0
        assert vac.norm_sq() == pytest.approx(1.0, abs=0)

    def test_single_photon(self):
        s = fock_basis_state(("m0", "m1"), (1, 0), 3)
        assert amplitude_of(s, (1, 0)) == 1.0
        assert amplitude_of(s, (0, 1)) == 0.0

    def test_cutoff_violation_rejected(self):
        with pytest.raises(ValueError):
            fock_basis_state(("m0", "m1"), (4, 0), 3)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            fock_basis_state(("m0", "m0"), (0, 0), 3)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        s = coherent_state("a", 0.0, 5)
        assert amplitude_of(s, (0,)) == 1.0
        assert s.norm_sq() == pytest.approx(1.0, abs=0)
        assert s.tail == 0.0

    def test_amplitudes_alpha_one(self):
        s = coherent_state("a", 1.0, 14)
        assert amplitude_of(s, (0,)).real == pytest.approx(C0_ALPHA1, abs=1e-12)
        assert amplitude_of(s, (1,)).real == pytest.approx(C0_ALPHA1, abs=1e-12)
        assert amplitude_of(s, (2,)).real == pytest.approx(C2_ALPHA1, abs=1e-12)

    def test_tail_alpha_one_cutoff_14(self):
        s = coherent_state("a", 1.0, 14)
        assert s.tail < 1e-12
        assert s.tail == pytest.approx(poisson_tail(1.0, 14), abs=1e-15)

    def test_tail_matches_norm_deficit(self):
        for alpha in (0.3, 1.0, 1.7 + 0.4j):
            s = coherent_state("a", alpha, 12)
            assert s.tail == pytest.approx(1.0 - s.norm_sq(), abs=1e-15)

    def test_drive_beyond_float_range_rejected(self):
        with pytest.raises(ValueError):
            coherent_state("a", math.sqrt(800.0), 3)

    def test_complex_alpha_phases(self):
        alpha = 0.8 * np.exp(1j * 0.6)
        s = coherent_state("a", alpha, 10)
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha ** 3 / math.sqrt(6.0)
        assert amplitude_of(s, (3,)) == pytest.approx(expected, abs=1e-14)


class TestTensor:
    def test_vacuum_product(self):
        v = tensor([fock_basis_state(("m0",), (0,), 2),
                    fock_basis_state(("m1",), (0,), 2)])
        assert v.modes == ("m0", "m1")
        assert amplitude_of(v, (0, 0)) == 1.0

    def test_basis_product(self):
        s = tensor([fock_basis_state(("m0",), (1,), 2),
                    fock_basis_state(("m1",), (0,), 2)])
        assert amplitude_of(s, (1, 0)) == 1.0

    def test_coherent_pair_amplitude(self):
        s = tensor([coherent_state("a", 1.0, 14), coherent_state("b", 1.0, 14)])
        assert amplitude_of(s, (1, 1)).real == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_norm_is_product_of_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s1 = random_state(rng, ("m0",), 4)
            s2 = random_state(rng, ("m1", "m2"), 3)
            prod = tensor([s1, s2])
            assert prod.norm_sq() == pytest.approx(
                s1.norm_sq() * s2.norm_sq(), abs=1e-12)

    def test_amplitudes_are_products(self):
        rng = np.random.default_rng(6)
        s1 = random_state(rng, ("m0",), 3)
        s2 = random_state(rng, ("m1",), 3)
        prod = tensor([s1, s2])
        for i in range(4):
            for j in range(4):
                expected = amplitude_of(s1, (i,)) * amplitude_of(s2, (j,))
                assert amplitude_of(prod, (i, j)) == pytest.approx(expected, abs=1e-14)

    def test_duplicate_mode_rejected(self):
        with pytest.raises(ValueError):
            tensor([fock_basis_state(("m0",), (0,), 2),
                    fock_basis_state(("m0",), (0,), 2)])


class TestInner:
    def test_vacuum_overlap(self):
        v = fock_basis_state(("m0", "m1"), (0, 0), 2)
        assert inner(v, v) == 1.0

    def test_orthogonal_basis_states(self):
        s1 = fock_basis_state(("m0", "m1"), (1, 0), 2)
        s2 = fock_basis_state(("m0", "m1"), (0, 1), 2)
        assert inner(s1, s2) == 0.0

    def test_coherent_overlap(self):
        # <alpha|beta> = exp(-(|a|^2+|b|^2)/2 + conj(a) b); real e^-2 here
        s1 = coherent_state("a", 1.0, 40)
        s2 = coherent_state("a", -1.0, 40)
        assert inner(s1, s2).real == pytest.approx(E_MINUS_2, abs=1e-13)
        assert abs(inner(s1, s2).imag) < 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s1 = random_state(rng)
            s2 = random_state(rng)
            assert inner(s1, s2) == pytest.approx(np.conj(inner(s2, s1)), abs=1e-15)

    def test_positive_on_diagonal(self):
        rng = np.random.default_rng(8)
        s = random_state(rng)
        val = inner(s, s)
        assert val.imag == 0.0
        assert val.real >= 0.0

    def test_shape_mismatch_rejected(self):
        s1 = fock_basis_state(("m0",), (0,), 2)
        s2 = fock_basis_state(("m1",), (0,), 2)
        with pytest.raises(ValueError):
            inner(s1, s2)


class TestRequiredCutoff:
    def test_zero_mean(self):
        assert required_cutoff(0.0, 1e-12) == 0

    @pytest.mark.parametrize("alpha_sq,expected", [
        (0.25, 9), (0.5, 11), (1.0, 14), (2.0, 18), (4.0, 25), (6.0, 30)])
    def test_known_values(self, alpha_sq, expected):
        # frozen from the exact Poisson tail; re-derived by the oracle below
        assert required_cutoff(alpha_sq, 1e-12) == expected
        assert poisson_tail(alpha_sq, expected) < 1e-12
        assert poisson_tail(alpha_sq, expected - 1) >= 1e-12

    def test_loose_tolerance(self):
        assert required_cutoff(1.0, 1e-4) == 6

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            required_cutoff(-1.0, 1e-12)
        with pytest.raises(ValueError):
            required_cutoff(1.0, 0.0)
        # beyond the float-safe drive range: a config error, not an overflow
        with pytest.raises(ValueError):
            required_cutoff(800.0, 1e-12)


class TestCutoffSpec:
    def test_explicit_cutoff_wins(self):
        assert CutoffSpec(n_max=14).resolve(9.0) == 14

    def test_derived_cutoff_has_photon_headroom(self):
        assert CutoffSpec(tail_eps=1e-12).resolve(1.0) == 15
        assert CutoffSpec(tail_eps=1e-12).resolve(0.0) == 1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CutoffSpec(n_max=-1)
        with pytest.raises(ValueError):
            CutoffSpec(tail_eps=2.0)


class TestStateAlgebra:
    def test_reorder_modes_permutes_amplitudes(self):
        rng = np.random.default_rng(9)
        s = random_state(rng, ("m0", "m1", "m2"), 2)
        r = reorder_modes(s, ("m2", "m0", "m1"))
        for occ in ((0, 1, 2), (2, 0, 1), (1, 1, 1)):
            assert amplitude_of(r, (occ[2], occ[0], occ[1])) == amplitude_of(s, occ)

    def test_add_and_scale(self):
        s1 = fock_basis_state(("m0",), (0,), 2)
        s2 = fock_basis_state(("m0",), (1,), 2)
        combo = (0.6 + 0.0j) * s1 + 0.8j * s2
        assert amplitude_of(combo, (0,)) == pytest.approx(0.6)
        assert amplitude_of(combo, (1,)) == pytest.approx(0.8j)
        assert combo.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_amps_immutable(self):
        s = fock_basis_state(("m0",), (0,), 2)
        with pytest.raises(ValueError):
            s.amps[0] = 2.0

    def test_amplitude_out_of_range_rejected(self):
        s = fock_basis_state(("m0",), (0,), 2)
        with pytest.raises(ValueError):
            amplitude_of(s, (3,))
