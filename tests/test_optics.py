import math
from math import comb, cos, factorial, sin, sqrt

import numpy as np
import pytest
from scipy import sparse

from homodyne_bell.fock import (
    CutoffSpec,
    StateVector,
    amplitude_of,
    coherent_state,
    fock_basis_state,
    tensor,
)
from homodyne_bell.optics import (
    MAX_CUTOFF,
    ExperimentConfig,
    _pair_block,
    apply_beamsplitter,
    apply_station_settings,
    build_input_state,
    run_network,
    symmetric_config,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pair_unitary(theta, n_lo, n_ph):
    """Truncated two-mode mixing unitary on the (n_lo+1)(n_ph+1) pair space,
    flat index m*(n_ph+1) + n with m the lo-mode count.

    Block diagonal in the pair's total photon number; each block is the
    exact untruncated transform with out-of-range rows and columns removed,
    so the matrix drops exactly the amplitude that exact mixing would push
    beyond a cutoff. This is the explicit matrix form of what
    apply_beamsplitter applies block by block.
    """
    rows, cols, data = [], [], []
    stride = n_ph + 1
    for t in range(n_lo + n_ph + 1):
        m_lo = max(0, t - n_ph)
        m_hi = min(n_lo, t)
        block = _pair_block(theta, t)[m_lo:m_hi + 1, m_lo:m_hi + 1]
        flat = np.arange(m_lo, m_hi + 1) * stride + (t - np.arange(m_lo, m_hi + 1))
        p_idx, m_idx = np.meshgrid(flat, flat, indexing="ij")
        rows.append(p_idx.ravel())
        cols.append(m_idx.ravel())
        data.append(block.ravel())
    dim = (n_lo + 1) * stride
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def mixing_matrix_oracle(theta, n_lo, n_ph):
    """Independent construction of the pair mixing unitary from the
    creation-operator rule, expanded binomially:
        lo+ -> c c+ + is d+,   ph+ -> is c+ + c d+.
    """
    c = cos(theta / 2.0)
    i_s = 1j * sin(theta / 2.0)
    dim = (n_lo + 1) * (n_ph + 1)
    u = np.zeros((dim, dim), dtype=complex)
    for m in range(n_lo + 1):
        for n in range(n_ph + 1):
            for p in range(m + n + 1):
                q = m + n - p
                if p > n_lo or q > n_ph:
                    continue
                total = 0.0 + 0.0j
                for j in range(max(0, p - n), min(m, p) + 1):
                    total += (comb(m, j) * comb(n, p - j)
                              * c ** (n + 2 * j - p) * i_s ** (m + p - 2 * j))
                total *= sqrt(factorial(p) * factorial(q)
                              / (factorial(m) * factorial(n)))
                u[p * (n_ph + 1) + q, m * (n_ph + 1) + n] = total
    return u


def two_mode_state(rng, cutoff, interior=False):
    """Random two-mode state; interior states have no support on pair totals
    above the cutoff, so exact mixing never truncates them."""
    shape = (cutoff + 1, cutoff + 1)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if interior:
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                if m + n > cutoff:
                    amps[m, n] = 0.0
    amps /= np.linalg.norm(amps)
    return StateVector(("lo", "ph"), (cutoff, cutoff), amps)


class TestPairUnitary:
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.1, 5.5])
    def test_matches_binomial_oracle(self, theta):
        for n_lo, n_ph in ((3, 3), (4, 2), (5, 5)):
            ours = pair_unitary(theta, n_lo, n_ph).toarray()
            oracle = mixing_matrix_oracle(theta, n_lo, n_ph)
            assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_unitary_on_interior_blocks(self):
        u = pair_unitary(1.3, 6, 6).toarray()
        # columns for pair totals <= cutoff must have unit norm
        for m in range(7):
            for n in range(7):
                if m + n <= 6:
                    col = u[:, m * 7 + n]
                    assert np.vdot(col, col).real == pytest.approx(1.0, abs=1e-12)


class TestApplyBeamsplitter:
    def test_theta_zero_is_relabeled_identity(self):
        rng = np.random.default_rng(1)
        s = two_mode_state(rng, 4)
        out = apply_beamsplitter(s, "lo", "ph", 0.0)
        assert out.modes == ("lo", "ph")
        assert np.max(np.abs(out.amps - s.amps)) < 1e-14

    def test_station_relabeling(self):
        s = tensor([fock_basis_state(("a1",), (0,), 2),
                    fock_basis_state(("b1",), (1,), 2)])
        out = apply_beamsplitter(s, "a1", "b1", 0.3)
        assert out.modes == ("c1", "d1")

    def test_single_photon_balanced_split(self):
        s = tensor([fock_basis_state(("a1",), (0,), 3),
                    fock_basis_state(("b1",), (1,), 3)])
        out = apply_beamsplitter(s, "a1", "b1", math.pi / 2)
        assert amplitude_of(out, (1, 0)) == pytest.approx(1j * INV_SQRT2, abs=1e-14)
        assert amplitude_of(out, (0, 1)) == pytest.approx(INV_SQRT2, abs=1e-14)

    def test_coherent_input_splits_into_coherent_product(self):
        beta, theta, cutoff = 1.0, 1.1, 14
        s = tensor([coherent_state("lo", beta, cutoff),
                    fock_basis_state(("ph",), (0,), cutoff)])
        out = apply_beamsplitter(s, "lo", "ph", theta)
        expected = tensor([
            coherent_state("lo", cos(theta / 2.0) * beta, cutoff),
            coherent_state("ph", 1j * sin(theta / 2.0) * beta, cutoff)])
        # the truncated input has no pair totals above the cutoff, so the
        # product form holds on the total <= cutoff sector
        diff = np.abs(out.amps - expected.amps)
        for m in range(cutoff + 1):
            for n in range(cutoff + 1 - m):
                assert diff[m, n] < 1e-10

    def test_photon_reflects_with_sin_half_probability(self):
        s = tensor([fock_basis_state(("lo",), (0,), 2),
                    fock_basis_state(("ph",), (1,), 2)])
        for theta in (0.4, 1.0, 2.2):
            out = apply_beamsplitter(s, "lo", "ph", theta)
            assert abs(amplitude_of(out, (1, 0))) ** 2 == pytest.approx(
                sin(theta / 2.0) ** 2, abs=1e-14)

    def test_composition_with_negated_angle_is_identity(self):
        rng = np.random.default_rng(2)
        for theta in (0.9, 2.4):
            s = two_mode_state(rng, 6, interior=True)
            back = apply_beamsplitter(
                apply_beamsplitter(s, "lo", "ph", theta), "lo", "ph", -theta,
                out_modes=("lo", "ph"))
            assert np.max(np.abs(back.amps - s.amps)) < 1e-12

    def test_pair_total_distribution_invariant(self):
        rng = np.random.default_rng(3)
        s = two_mode_state(rng, 5, interior=True)
        out = apply_beamsplitter(s, "lo", "ph", 1.7)
        for total in range(6):
            before = sum(abs(s.amps[m, total - m]) ** 2
                         for m in range(total + 1))
            after = sum(abs(out.amps[m, total - m]) ** 2
                        for m in range(total + 1))
            assert after == pytest.approx(before, abs=1e-12)

    def test_truncation_leakage_reported(self):
        # a photon on top of a saturated mode must leak at the cutoff edge
        s = fock_basis_state(("lo", "ph"), (2, 1), 2)
        out = apply_beamsplitter(s, "lo", "ph", 1.0)
        assert out.tail > 0.0
        assert out.norm_sq() == pytest.approx(1.0 - out.tail, abs=1e-14)

    def test_unknown_mode_rejected(self):
        s = fock_basis_state(("lo", "ph"), (0, 0), 2)
        with pytest.raises(ValueError):
            apply_beamsplitter(s, "lo", "nope", 1.0)


class TestInputState:
    def test_vacuum_oscillators(self):
        s = build_input_state(symmetric_config(0.0))
        assert s.modes == ("a1", "b1", "a2", "b2")
        assert amplitude_of(s, (0, 0, 0, 1)) == pytest.approx(INV_SQRT2, abs=1e-15)
        assert amplitude_of(s, (0, 1, 0, 0)) == pytest.approx(1j * INV_SQRT2, abs=1e-15)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_with_unit_drive(self):
        cfg = ExperimentConfig(1.0, 1.0, 0.0, 0.0, CutoffSpec(n_max=14))
        s = build_input_state(cfg)
        expected = math.exp(-1.0) * INV_SQRT2
        assert amplitude_of(s, (0, 0, 0, 1)).real == pytest.approx(expected, abs=1e-12)
        assert amplitude_of(s, (1, 0, 1, 1)).real == pytest.approx(expected, abs=1e-12)

    def test_norm_is_one_minus_tail(self):
        cfg = ExperimentConfig(1.0, 1.0, 0.0, 0.0, CutoffSpec(n_max=14))
        s = build_input_state(cfg)
        assert s.tail < 2e-12
        assert s.norm_sq() == pytest.approx(1.0 - s.tail, abs=1e-14)

    def test_cutoff_limit(self):
        # (N+1)^4 complex amplitudes fit in 256 MiB exactly up to N = 63
        assert MAX_CUTOFF == 63
        assert 64 ** 4 * 16 <= 256 * 2**20 < 65 ** 4 * 16
        at_limit = ExperimentConfig(1.0, 1.0, cutoff=CutoffSpec(n_max=63))
        assert at_limit.resolve_cutoff() == 63
        with pytest.raises(ValueError, match="N=64"):
            ExperimentConfig(1.0, 1.0, cutoff=CutoffSpec(n_max=64)).resolve_cutoff()
        # a drive whose tail budget alone asks for more is refused the same way
        with pytest.raises(ValueError, match="N=108"):
            symmetric_config(50.0).resolve_cutoff()

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(-1.0, 1.0)

    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "phi1", "phi2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        values = {"alpha1": 1.0, "alpha2": 1.0, "phi1": 0.0, "phi2": 0.0}
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(**values)


class TestNetwork:
    def test_zero_angles_relabel_only(self):
        cfg = symmetric_config(0.7, 0.9)
        before = build_input_state(cfg)
        after = run_network(cfg, 0.0, 0.0)
        assert after.modes == ("c1", "d1", "c2", "d2")
        assert np.max(np.abs(after.amps - before.amps)) < 1e-13

    def test_single_photon_station_action(self):
        s = run_network(symmetric_config(0.0), math.pi / 2, 0.0)
        # photon component of b1 splits over (c1, d1); b2 passes to d2
        assert amplitude_of(s, (1, 0, 0, 0)) == pytest.approx(-0.5, abs=1e-14)
        assert amplitude_of(s, (0, 1, 0, 0)) == pytest.approx(0.5j, abs=1e-14)
        assert amplitude_of(s, (0, 0, 0, 1)) == pytest.approx(INV_SQRT2, abs=1e-14)

    def test_norm_preserved_within_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            a2 = 4.0 * (1.0 - rng.random())
            cfg = symmetric_config(a2, rng.uniform(0, 2 * math.pi))
            s_in = build_input_state(cfg)
            s_out = run_network(cfg, rng.uniform(0, 2 * math.pi),
                                rng.uniform(0, 2 * math.pi))
            assert abs(s_out.norm_sq() - s_in.norm_sq()) < 1e-10
            assert s_out.tail < 1e-10

    def test_station_settings_equivalent_fast_and_slow_order(self):
        cfg = symmetric_config(1.2, 0.4)
        s_in = build_input_state(cfg)
        fast = apply_station_settings(s_in, 0.8, 1.9)
        slow = apply_beamsplitter(
            apply_beamsplitter(s_in, "a2", "b2", 1.9), "a1", "b1", 0.8)
        from homodyne_bell.fock import reorder_modes
        slow = reorder_modes(slow, ("c1", "d1", "c2", "d2"))
        assert np.max(np.abs(fast.amps - slow.amps)) < 1e-13
