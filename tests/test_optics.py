import cmath
import math
from math import comb, cos, factorial, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from dense_oracle import dense_station_columns, propagate
from homodyne_bell.detection import PAIR_WEIGHTS, read_pass
from homodyne_bell.fock import CutoffSpec, coherent_state
from homodyne_bell.optics import (
    MAX_CUTOFF,
    ExperimentConfig,
    _mixing_eig,
    _pair_block,
    input_support,
    mix_station,
    oscillators,
    symmetric_config,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
ANGLES = st.floats(-2.0 * math.pi, 2.0 * math.pi)
CUTOFFS = st.integers(1, 12)
COLUMN_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def mixing_block(theta, total):
    """Full mixing unitary on the pair's `total`-photon subspace, basis
    ordered by the lo-mode count: vec e^{i theta lam / 2} vec^T from the
    generator's eigendecomposition."""
    lam, vec = _mixing_eig(total)
    return (vec * np.exp(0.5j * theta * lam)) @ vec.T


def pair_unitary(theta, n_lo, n_ph):
    """Truncated two-mode mixing unitary on the (n_lo+1)(n_ph+1) pair space,
    flat index m*(n_ph+1) + n with m the lo-mode count.

    Block diagonal in the pair's total photon number; each block is the
    exact untruncated transform with out-of-range rows and columns removed,
    so the matrix drops exactly the amplitude that exact mixing would push
    beyond a cutoff. This is the explicit matrix form of what mix_station
    applies to a station input (there only up to total cutoff + 1, and only
    to the two block columns such an input reaches).
    """
    rows, cols, data = [], [], []
    stride = n_ph + 1
    for t in range(n_lo + n_ph + 1):
        m_lo = max(0, t - n_ph)
        m_hi = min(n_lo, t)
        block = mixing_block(theta, t)[m_lo:m_hi + 1, m_lo:m_hi + 1]
        flat = np.arange(m_lo, m_hi + 1) * stride + (t - np.arange(m_lo, m_hi + 1))
        p_idx, m_idx = np.meshgrid(flat, flat, indexing="ij")
        rows.append(p_idx.ravel())
        cols.append(m_idx.ravel())
        data.append(block.ravel())
    dim = (n_lo + 1) * stride
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def full_block_images(lo, angles):
    """mix_station's images from the full pair unitary: every block up to
    total 2 * cutoff applied to lo[i] (x) |s> placed in the pair space,
    laid out like mix_station's out[c, d, s, i]."""
    settings, stride = lo.shape
    out = np.zeros((stride, stride, 2, settings), dtype=complex)
    unitaries = {theta: pair_unitary(theta, stride - 1, stride - 1)
                 for theta in set(angles)}
    for i, theta in enumerate(angles):
        unitary = unitaries[theta]
        for s in (0, 1):
            inputs = np.zeros((stride, stride), dtype=complex)
            inputs[:, s] = lo[i]
            out[:, :, s, i] = (unitary @ inputs.reshape(-1)).reshape(stride, stride)
    return out


def scatter_mix(lo, angles):
    """mix_station's mixed (t, c, s) rows as it computes them, and its
    output as the scatter of those rows, without its one gather: zeros,
    then out[c, d] = mixed row (c + d, c) at every c + d <= N + 1."""
    settings, stride = lo.shape
    cutoff, totals = stride - 1, stride + 1
    prod, exponents, source, _ = _pair_block(cutoff)
    phases = np.exp(np.multiply.outer(exponents, angles))
    mixed = (prod @ phases[:totals].view(np.float64)).view(np.complex128)
    mixed = mixed.reshape(totals, stride, 2, settings)
    mixed *= (lo.T[source] * phases[totals:, None])[:, None]
    mixed = mixed.reshape(totals * stride, 2 * settings)
    c, d = np.divmod(np.arange(stride * stride), stride)
    dest = np.flatnonzero(c + d <= cutoff + 1)
    out = np.zeros((stride * stride, 2 * settings), dtype=np.complex128)
    out[dest] = mixed[(c + d)[dest] * stride + c[dest]]
    return mixed, out.reshape(stride, stride, 2, settings)


def random_oscillators(seed, settings, cutoff):
    """Unit-norm random complex oscillators, one row per setting."""
    lo = np.random.default_rng(seed).standard_normal(
        (settings, cutoff + 1, 2)) @ (1.0, 1.0j)
    return lo / np.linalg.norm(lo, axis=1, keepdims=True)


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


def column_matrix(theta, cutoff):
    """The closed columns dense_station_columns as a matrix: row
    c*(cutoff+1) + d is output |c, d>, column 2a + b is input |a, b>
    (b <= 1)."""
    return dense_station_columns(theta, cutoff).reshape((cutoff + 1) ** 2, -1)


def support_index(cutoff):
    """Pair-space flat indices a*(cutoff+1) + b of the inputs |a, b <= 1>,
    in column_matrix's column order."""
    return [a * (cutoff + 1) + b for a in range(cutoff + 1) for b in (0, 1)]


def mixed_columns(theta, cutoff):
    """mix_station of every basis input |a, b <= 1> (one pass over the unit
    oscillators |a>, all at theta), laid out like dense_station_columns:
    u[c, d, a, b]."""
    stride = cutoff + 1
    images = mix_station(np.eye(stride), np.full(stride, theta))
    return images.transpose(0, 1, 3, 2)


def mixed_basis(theta, cutoff):
    """mixed_columns laid out like column_matrix."""
    return mixed_columns(theta, cutoff).reshape((cutoff + 1) ** 2, -1)


def edge_leakage(theta, cutoff):
    """Probability the input |cutoff, 1> loses beyond the cutoff: the
    |cutoff+1, 0> and |0, cutoff+1> terms of (is C+ + c D+) U|cutoff, 0>."""
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    return (cutoff + 1) * (s ** 2 * c ** (2 * cutoff) + c ** 2 * s ** (2 * cutoff))


def interior_support_state(rng, cutoff):
    """Random unit support vector over the inputs |a, b <= 1> with nothing
    on the edge input |cutoff, 1>, so the columns never truncate it."""
    vec = rng.standard_normal((2 * (cutoff + 1), 2)) @ (1.0, 1.0j)
    vec[-1] = 0.0
    return vec / np.linalg.norm(vec)


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


MIX_CUTOFFS = st.sampled_from(list(range(1, 13)) + [26, 31, 63])


class TestMixStation:
    """The one-pass mixer against the full mixing blocks, applied block by
    block to the whole pair space."""

    @COLUMN_SETTINGS
    @given(angles=st.lists(ANGLES, min_size=1, max_size=4), cutoff=MIX_CUTOFFS,
           unit=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_blocks(self, angles, cutoff, unit, seed):
        if unit:
            # split's pass: an all-ones oscillator at each distinct angle
            angles = list(dict.fromkeys(angles))
            lo = np.ones((len(angles), cutoff + 1))
        else:
            lo = random_oscillators(seed, len(angles), cutoff)
        images = mix_station(lo, angles)
        assert images.shape == (cutoff + 1, cutoff + 1, 2, len(angles))
        assert np.max(np.abs(images - full_block_images(lo, angles))) <= 1e-14

    @COLUMN_SETTINGS
    @given(angles=st.lists(ANGLES, min_size=2, max_size=6),
           cutoff=st.integers(1, MAX_CUTOFF), real=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_one_pass_equals_one_setting_passes(self, angles, cutoff, real, seed):
        # each setting's phases, input product and gather are its own, bit
        # for bit; the one product of the eigenvector table with every
        # setting's phases is a BLAS dgemm whose kernel depends on the
        # product's width, so a pass's block columns may differ from a
        # one-setting pass's in the last bits of the sum over j
        lo = random_oscillators(seed, len(angles), cutoff)
        if real:
            lo = np.ascontiguousarray(lo.real)
        images = mix_station(lo, angles)
        for i, theta in enumerate(angles):
            alone = mix_station(lo[i:i + 1], (theta,))[..., 0]
            assert np.max(np.abs(images[..., i] - alone)) <= 1e-15

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=MIX_CUTOFFS)
    def test_different_totals_exactly_orthogonal(self, theta, cutoff):
        # photon number is conserved exactly: outputs of inputs at
        # different totals a + b share no nonzero entry
        u = mixed_basis(theta, cutoff)
        total = (np.arange(cutoff + 1)[:, None] + np.arange(2)).reshape(-1)
        apart = total[:, None] != total[None, :]
        assert np.all((u.conj().T @ u)[apart] == 0.0)
        occ = np.arange(cutoff + 1)
        out_total = (occ[:, None] + occ).reshape(-1)
        assert np.all(u[out_total[:, None] != total[None, :]] == 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(angles=st.lists(ANGLES, min_size=1, max_size=4),
           cutoff=st.integers(1, MAX_CUTOFF), seed=st.integers(0, 2**32 - 1))
    def test_gather_equals_the_scatter(self, angles, cutoff, seed):
        lo = random_oscillators(seed, len(angles), cutoff)
        mixed, scattered = scatter_mix(lo, angles)
        images = mix_station(lo, angles)
        occ = np.arange(cutoff + 1)
        outside = occ[:, None] + occ > cutoff + 1
        # bit for bit on the support, the sign of every zero included
        assert images[~outside].tobytes() == scattered[~outside].tobytes()
        # the outputs past total cutoff + 1 read one row, exactly zero (of
        # either sign: the row is scaled by its input like any other)
        rows = np.unique(_pair_block(cutoff)[3][outside.reshape(-1)])
        assert np.all(mixed[rows] == 0.0)
        assert np.all(images[outside] == 0.0)

    def test_generator_spectrum_is_exact(self):
        # the phases e^{i theta j} e^{-i theta t / 2} rest on the generator
        # of every total t a station reaches having the eigenvalues 2j - t
        # of 2 J_x at spin t / 2, in eigh's ascending order
        for total in range(MAX_CUTOFF + 2):
            lam, _ = _mixing_eig(total)
            exact = 2.0 * np.arange(total + 1) - total
            assert np.max(np.abs(lam - exact)) <= 1e-12, total

    def test_one_table_per_cutoff(self):
        _pair_block.cache_clear()
        lo = np.ones((1, 11), dtype=complex)
        for theta in np.linspace(0.0, 2.0 * math.pi, 50):
            mix_station(lo, (theta,))
        info = _pair_block.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 49)


class TestStationColumns:
    """mix_station's columns on the input support against two references
    that share no code with it: the closed binomial columns
    (dense_oracle.dense_station_columns) and the creation-operator
    oracle."""

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=CUTOFFS)
    def test_match_mix_station(self, theta, cutoff):
        # against a 40-digit reference the closed columns are within 6e-16
        # up to cutoff 12 and mix_station's eigendecomposed mixing within
        # 6e-15, which sets this bound
        assert np.max(np.abs(column_matrix(theta, cutoff)
                             - mixed_basis(theta, cutoff))) <= 1e-14

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=st.integers(1, 8))
    def test_match_mixing_matrix_oracle(self, theta, cutoff):
        oracle = mixing_matrix_oracle(theta, cutoff, cutoff)[:, support_index(cutoff)]
        assert np.max(np.abs(column_matrix(theta, cutoff) - oracle)) <= 1e-12
        assert np.max(np.abs(mixed_basis(theta, cutoff) - oracle)) <= 1e-12

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=CUTOFFS)
    def test_unitary_on_interior_columns(self, theta, cutoff):
        # every column but the edge input |cutoff, 1> keeps all its amplitude
        u = mixed_basis(theta, cutoff)[:, :-1]
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-13


class TestApplyBeamsplitter:
    """The splitter's action on a station, as mix_station's columns on the
    input support."""

    def test_theta_zero_is_relabeled_identity(self):
        u = mixed_columns(0.0, 4)
        for a in range(5):
            for b in (0, 1):
                expected = np.zeros((5, 5))
                expected[a, b] = 1.0
                assert np.max(np.abs(u[:, :, a, b] - expected)) < 1e-14

    def test_single_photon_balanced_split(self):
        u = mixed_columns(math.pi / 2, 3)
        assert u[1, 0, 0, 1] == pytest.approx(1j * INV_SQRT2, abs=1e-14)
        assert u[0, 1, 0, 1] == pytest.approx(INV_SQRT2, abs=1e-14)

    def test_coherent_input_splits_into_coherent_product(self):
        beta, theta, cutoff = 1.0, 1.1, 14
        lo, _ = coherent_state(beta, cutoff)
        out = np.tensordot(mixed_columns(theta, cutoff)[..., 0], lo, axes=(2, 0))
        expected = np.multiply.outer(
            coherent_state(cos(theta / 2.0) * beta, cutoff)[0],
            coherent_state(1j * sin(theta / 2.0) * beta, cutoff)[0])
        # the truncated input has no pair totals above the cutoff, so the
        # product form holds on the total <= cutoff sector
        diff = np.abs(out - expected)
        for m in range(cutoff + 1):
            for n in range(cutoff + 1 - m):
                assert diff[m, n] < 1e-10

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=CUTOFFS)
    def test_photon_reflects_with_sin_half_probability(self, theta, cutoff):
        u = mixed_columns(theta, cutoff)
        assert abs(u[1, 0, 0, 1]) ** 2 == pytest.approx(
            sin(theta / 2.0) ** 2, abs=1e-15)
        assert abs(u[0, 1, 0, 1]) ** 2 == pytest.approx(
            cos(theta / 2.0) ** 2, abs=1e-15)

    def test_composition_with_negated_angle_is_identity(self):
        # the full pair unitary at -theta undoes the columns at theta on
        # every input that stays below the edge
        cutoff = 6
        identity = np.eye((cutoff + 1) ** 2)[:, support_index(cutoff)]
        for theta in (0.9, 2.4):
            back = mixing_matrix_oracle(-theta, cutoff, cutoff) \
                @ mixed_basis(theta, cutoff)
            assert np.max(np.abs(back - identity)[:, :-1]) < 1e-12

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=CUTOFFS, seed=st.integers(0, 2**32 - 1))
    def test_pair_total_distribution_invariant(self, theta, cutoff, seed):
        u = mixed_columns(theta, cutoff)
        occ = np.arange(cutoff + 1)
        out_total = occ[:, None] + occ[None, :]
        for a in range(cutoff + 1):
            for b in (0, 1):
                # photon number is conserved column by column
                assert not np.any(u[..., a, b][out_total != a + b])
        vec = interior_support_state(np.random.default_rng(seed), cutoff)
        out = (mixed_basis(theta, cutoff) @ vec).reshape(cutoff + 1, cutoff + 1)
        in_total = (occ[:, None] + np.arange(2)[None, :]).reshape(-1)
        for total in range(cutoff + 2):
            before = np.sum(np.abs(vec[in_total == total]) ** 2)
            after = np.sum(np.abs(out[out_total == total]) ** 2)
            assert after == pytest.approx(before, abs=1e-13)

    @COLUMN_SETTINGS
    @given(theta=ANGLES, cutoff=CUTOFFS)
    def test_truncation_leakage_reported(self, theta, cutoff):
        # a photon on top of a saturated mode leaks at the cutoff edge, by
        # exactly the computed amount; no other column loses anything
        # (each norm sums up to cutoff + 2 squares, each rounded at 2 ulp)
        norms = np.sum(np.abs(mixed_basis(theta, cutoff)) ** 2, axis=0)
        assert 1.0 - norms[-1] == pytest.approx(edge_leakage(theta, cutoff),
                                                abs=(cutoff + 2) * 4.4e-16)
        assert np.max(np.abs(norms[:-1] - 1.0)) <= 1e-14
        assert edge_leakage(1.0, 2) > 0.0


class TestInputState:
    def test_vacuum_oscillators(self):
        s = input_support(symmetric_config(0.0))
        assert s.shape == (2, 2, 2, 2)
        assert s[0, 0, 0, 1] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert s[0, 1, 0, 0] == pytest.approx(1j * INV_SQRT2, abs=1e-15)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_with_unit_drive(self):
        cfg = ExperimentConfig(1.0, 1.0, 0.0, 0.0, CutoffSpec(n_max=14))
        s = input_support(cfg)
        expected = math.exp(-1.0) * INV_SQRT2
        assert s[0, 0, 0, 1].real == pytest.approx(expected, abs=1e-12)
        assert s[1, 0, 1, 1].real == pytest.approx(expected, abs=1e-12)

    def test_norm_is_one_minus_tail(self):
        cfg = ExperimentConfig(1.0, 1.0, 0.0, 0.0, CutoffSpec(n_max=14))
        s = input_support(cfg)
        tail = 2.0 * coherent_state(1.0, 14)[1]
        assert tail < 2e-12
        assert np.vdot(s, s).real == pytest.approx(1.0 - tail, abs=1e-14)

    def test_cutoff_limit(self):
        # at N = 63 mix_station's mixing table, 2 (N+1)(N+2)^2 eigenvector
        # products, is the largest array left: 4.3 MB
        assert MAX_CUTOFF == 63
        assert max(a.nbytes for a in _pair_block(MAX_CUTOFF)) == 2 * 64 * 65 ** 2 * 8
        at_limit = ExperimentConfig(1.0, 1.0, cutoff=CutoffSpec(n_max=63))
        assert at_limit.resolve_cutoff() == 63
        with pytest.raises(ValueError, match="N=64"):
            ExperimentConfig(1.0, 1.0, cutoff=CutoffSpec(n_max=64)).resolve_cutoff()
        # a drive whose tail budget alone asks for more is refused the same way
        with pytest.raises(ValueError, match="N=108"):
            symmetric_config(50.0).resolve_cutoff()
        with pytest.raises(ValueError, match="N=108"):
            input_support(symmetric_config(50.0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a1_sq=st.floats(0.0, 20.0), a2_sq=st.floats(0.0, 20.0),
           tail_eps=st.sampled_from((1e-12, 1e-6, 1e-4)))
    def test_cutoff_resolves_at_the_stronger_drive(self, a1_sq, a2_sq, tail_eps):
        # the drives are alpha^2, the units the cutoff policy takes
        spec = CutoffSpec(tail_eps=tail_eps)
        assert ExperimentConfig(a1_sq, a1_sq, cutoff=spec).resolve_cutoff() == \
            spec.resolve(a1_sq)
        assert ExperimentConfig(a1_sq, a2_sq, cutoff=spec).resolve_cutoff() == \
            spec.resolve(max(a1_sq, a2_sq))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha_sq=st.tuples(st.floats(0.0, 22.0), st.floats(0.0, 22.0)),
           phases=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
           cutoff=st.integers(1, MAX_CUTOFF))
    def test_oscillators_are_coherent_state_amplitudes(self, alpha_sq, phases,
                                                       cutoff):
        # the stations' build skips the Poisson tails, and its rows are
        # coherent_state's amplitudes bit for bit
        cfg = ExperimentConfig(*alpha_sq, *phases, CutoffSpec(n_max=cutoff))
        rows = oscillators(cfg)
        assert rows.shape == (2, cutoff + 1) and not rows.flags.writeable
        for row, a_sq, phi in zip(rows, alpha_sq, phases):
            amps, _ = coherent_state(math.sqrt(a_sq) * cmath.exp(1j * phi), cutoff)
            assert row.tobytes() == amps.tobytes()

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(-1.0, 1.0)

    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "phi1", "phi2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # positional: the drive fields are alpha1_sq and alpha2_sq
        values = {"alpha1": 1.0, "alpha2": 1.0, "phi1": 0.0, "phi2": 0.0}
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field}(_sq)? must be finite"):
            ExperimentConfig(*values.values())


def embedded(support):
    """A support array [a1, b1, a2, b2] placed in the dense (N+1)^4 array."""
    n = support.shape[0] - 1
    dense = np.zeros((n + 1,) * 4, dtype=complex)
    dense[:, :2, :, :2] = support
    return dense


class TestNetwork:
    def test_zero_angles_relabel_only(self):
        cfg = symmetric_config(0.7, 0.9)
        after = propagate(input_support(cfg), 0.0, 0.0)
        assert np.max(np.abs(after - embedded(input_support(cfg)))) < 1e-13

    def test_single_photon_station_action(self):
        s = propagate(input_support(symmetric_config(0.0)), math.pi / 2, 0.0)
        # photon component of b1 splits over (c1, d1); b2 passes to d2
        assert s[1, 0, 0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert s[0, 1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        assert s[0, 0, 0, 1] == pytest.approx(INV_SQRT2, abs=1e-14)

    def test_norm_preserved_within_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            a2 = 4.0 * (1.0 - rng.random())
            cfg = symmetric_config(a2, rng.uniform(0, 2 * math.pi))
            s_in = input_support(cfg)
            s_out = propagate(s_in, rng.uniform(0, 2 * math.pi),
                              rng.uniform(0, 2 * math.pi))
            norm_out = np.vdot(s_out, s_out).real
            assert abs(norm_out - np.vdot(s_in, s_in).real) < 1e-10
            assert 1.0 - norm_out < 1e-10

    @COLUMN_SETTINGS
    @given(a1_sq=st.floats(0.0, 2.0), a2_sq=st.floats(0.0, 2.0),
           phases=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES),
           tail_eps=st.sampled_from((1e-12, 1e-4)))
    def test_station_settings_equivalent_fast_and_slow_order(
            self, a1_sq, a2_sq, phases, tail_eps):
        # the dense output equals the factorized form sum_k w_k A_k (x) B_k
        # built from mix_station's station terms: the same state reached by
        # two constructions that share no mixing code
        phi1, phi2, xi, eta = phases
        cfg = ExperimentConfig(a1_sq, a2_sq, phi1, phi2,
                               CutoffSpec(tail_eps=tail_eps))
        n = cfg.resolve_cutoff()
        lo1 = coherent_state(math.sqrt(a1_sq) * np.exp(1j * phi1), n)[0]
        lo2 = coherent_state(math.sqrt(a2_sq) * np.exp(1j * phi2), n)[0]
        images = mix_station(np.stack((lo1, lo2)), (xi, eta))
        # term k holds k photons at Alice's ph port and 1 - k at Bob's
        a_k, b_k = images[:, :, :, 0], images[:, :, ::-1, 1]
        factorized = np.einsum("k,cdk,euk->cdeu", PAIR_WEIGHTS, a_k, b_k)
        # 6.7e-16 at most over 300 random points of this range
        assert np.max(np.abs(propagate(input_support(cfg), xi, eta)
                             - factorized)) <= 2e-15

    @COLUMN_SETTINGS
    @given(alice=st.integers(1, 3), bob=st.integers(0, 3))
    def test_term_order(self, alice, bob):
        # Alice's term k is the image of lo (x) |k> and Bob's of
        # lo (x) |1 - k>, each setting's two terms read from its own two
        # columns s * settings + i of the pass: here the only nonzero
        # amplitudes, all distinct, sit at the favorable occupation
        settings_ = alice + bob
        images = np.zeros((2, 2, 2, settings_), dtype=complex)
        images[1, 0] = (np.arange(2 * settings_) + 1j).reshape(2, settings_)
        stations = read_pass(images, alice)
        assert len(stations) == settings_
        for i, (gram, fav) in enumerate(stations):
            ph = (0, 1) if i < alice else (1, 0)
            assert fav == [images[1, 0, s, i] for s in ph]
            assert gram == [x.conjugate() * y for x in fav for y in fav]
