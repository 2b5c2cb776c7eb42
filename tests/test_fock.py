import cmath
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_station_columns
from homodyne_bell import fock, optics
from homodyne_bell.fock import (
    MAX_ALPHA_SQ,
    MAX_CUTOFF,
    MIN_TAIL_EPS,
    CutoffSpec,
    coherent_state,
    poisson_mass,
    required_cutoff,
)
from homodyne_bell.optics import ExperimentConfig, input_support
from test_cli import run_python
from test_optics import mixed_basis, mixed_columns

# frozen from the amplitude recurrence evaluated at high precision
C0_ALPHA1 = 0.6065306597126334
C2_ALPHA1 = 0.4288819424803534
E_MINUS_2 = 0.13533528323661269
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def poisson_tail(lam, n):
    """Independent oracle: Poisson tail beyond n by direct summation."""
    terms = [math.exp(-lam)]
    for k in range(1, n + 1):
        terms.append(terms[-1] * lam / k)
    return 1.0 - math.fsum(terms)


def exact_poisson_tail(lam, n):
    """Poisson tail beyond n at 60 digits: the regularized lower incomplete
    gamma function P(n + 1, lam), with 1 beyond n = -1."""
    mpmath = pytest.importorskip("mpmath")
    if n < 0:
        return 1
    with mpmath.workdps(60):
        return mpmath.gammainc(n + 1, 0, lam, regularized=True)


class TestBasisStates:
    """Images of the Fock basis inputs |a, b <= 1> of a station."""

    def test_vacuum(self):
        for theta in (0.0, 0.8, 3.9):
            u = mixed_columns(theta, 3)
            vac = np.zeros((4, 4))
            vac[0, 0] = 1.0
            assert np.array_equal(u[:, :, 0, 0], vac)

    def test_single_photon(self):
        # with theta = 0 the photon at the ph port stays there, exactly in
        # the closed columns (mix_station rounds the 1 by an ulp)
        u = dense_station_columns(0.0, 3)
        assert u[0, 1, 0, 1] == 1.0
        assert u[1, 0, 0, 1] == 0.0

    def test_cutoff_violation_rejected(self):
        # a station needs room for the ph-port photon
        with pytest.raises(ValueError):
            mixed_columns(0.5, 0)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        amps, tail = coherent_state(0.0, 5)
        assert amps[0] == 1.0
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=0)
        assert tail == 0.0

    def test_amplitudes_alpha_one(self):
        amps, _ = coherent_state(1.0, 14)
        assert amps[0].real == pytest.approx(C0_ALPHA1, abs=1e-12)
        assert amps[1].real == pytest.approx(C0_ALPHA1, abs=1e-12)
        assert amps[2].real == pytest.approx(C2_ALPHA1, abs=1e-12)

    def test_tail_alpha_one_cutoff_14(self):
        _, tail = coherent_state(1.0, 14)
        assert tail < 1e-12
        assert tail == pytest.approx(poisson_tail(1.0, 14), abs=1e-15)

    def test_tail_matches_norm_deficit(self):
        for alpha in (0.3, 1.0, 1.7 + 0.4j):
            amps, tail = coherent_state(alpha, 12)
            assert tail == pytest.approx(1.0 - np.vdot(amps, amps).real, abs=1e-15)

    def test_drive_beyond_float_range_rejected(self):
        with pytest.raises(ValueError):
            coherent_state(math.sqrt(800.0), 3)

    @pytest.mark.parametrize("alpha", [1e160, 1e200, complex(0.0, 1e160)])
    def test_huge_drive_refused_before_squaring(self, alpha):
        # |alpha|^2 would overflow to an OverflowError before the range check
        with pytest.raises(ValueError, match="exceeds the float-safe range"):
            coherent_state(alpha, 3)

    def test_complex_alpha_phases(self):
        alpha = 0.8 * np.exp(1j * 0.6)
        amps, _ = coherent_state(alpha, 10)
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha ** 3 / math.sqrt(6.0)
        assert amps[3] == pytest.approx(expected, abs=1e-14)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha_sq=st.tuples(st.floats(0.0, 22.0), st.floats(0.0, 22.0)),
           phases=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
           cutoff=st.integers(0, 63))
    def test_stations_in_one_build_match_one_at_a_time(self, alpha_sq, phases,
                                                       cutoff):
        # both stations' rows come from one cumprod, bit for bit the rows
        # and tails of one call per station
        alphas = [math.sqrt(a) * cmath.exp(1j * p) for a, p in zip(alpha_sq, phases)]
        amps, tails = coherent_state(alphas, cutoff)
        assert amps.shape == (2, cutoff + 1) and not amps.flags.writeable
        for row, tail, alpha in zip(amps, tails, alphas):
            alone, alone_tail = coherent_state(alpha, cutoff)
            assert row.tobytes() == alone.tobytes()
            assert tail == alone_tail

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(alpha_sq=st.tuples(st.floats(0.0, 22.0), st.floats(0.0, 700.0)),
           cutoff=st.integers(0, 63))
    def test_poisson_mass_is_the_partial_sum(self, alpha_sq, cutoff):
        # no amplitude is built: the drives' Poisson sums up to the cutoff,
        # 1 - the tail beyond it at 60 digits, to rounding
        for mass, lam in zip(poisson_mass(alpha_sq, cutoff), alpha_sq):
            assert abs(mass - (1 - float(exact_poisson_tail(lam, cutoff)))) <= 1e-15

    @pytest.mark.parametrize("alpha", [math.nan, complex(1.0, math.nan),
                                       math.inf, complex(0.5, -math.inf)])
    def test_non_finite_alpha_refused_before_allocating(self, alpha, monkeypatch):
        # max(0, nan) is 0, so a NaN amplitude would report no loss; the
        # refusal comes before any numpy call
        monkeypatch.setattr(fock, "np", types.SimpleNamespace())
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_state(alpha, 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(alpha_sq=st.sampled_from((1e-6, 1.0, 4.0, 22.0)),
           phase=st.floats(0.0, 2.0 * math.pi), cutoff=st.integers(0, 63))
    def test_matches_40_digit_reference(self, alpha_sq, phase, cutoff):
        mpmath = pytest.importorskip("mpmath")
        alpha = math.sqrt(alpha_sq) * cmath.exp(1j * phase)
        amps, tail = coherent_state(alpha, cutoff)
        with mpmath.workdps(40):
            a = mpmath.mpc(alpha.real, alpha.imag)
            ref = [mpmath.exp(-abs(a) ** 2 / 2) * a ** n
                   / mpmath.sqrt(mpmath.factorial(n)) for n in range(cutoff + 1)]
            rel = max(abs(mpmath.mpc(c.real, c.imag) - r) / abs(r)
                      for c, r in zip(amps.tolist(), ref))
            ref_tail = 1 - mpmath.fsum(abs(r) ** 2 for r in ref)
        assert rel <= 1e-14
        assert abs(tail - float(ref_tail)) <= 1e-15


class TestTensor:
    """The network input is a tensor product: oscillator on a1, split photon
    on (b1, b2), oscillator on a2 (optics.input_support)."""

    def test_vacuum_product(self):
        s = input_support(ExperimentConfig(0.0, 0.0, cutoff=CutoffSpec(n_max=2)))
        assert s.shape == (3, 2, 3, 2)
        nonzero = {tuple(int(i) for i in occ) for occ in np.argwhere(s)}
        assert nonzero == {(0, 0, 0, 1), (0, 1, 0, 0)}

    def test_basis_product(self):
        # vacuum on Alice's oscillator: Alice's factor is a basis state
        s = input_support(ExperimentConfig(0.0, 0.49, cutoff=CutoffSpec(n_max=9)))
        assert not np.any(s[1:])
        lo2, _ = coherent_state(0.7, 9)
        assert np.max(np.abs(s[0, 0, :, 1] - INV_SQRT2 * lo2)) < 1e-15

    def test_coherent_pair_amplitude(self):
        s = input_support(ExperimentConfig(1.0, 1.0, cutoff=CutoffSpec(n_max=14)))
        assert s[1, 0, 1, 1].real == pytest.approx(
            math.exp(-1.0) * INV_SQRT2, abs=1e-12)

    def test_norm_is_product_of_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a1, a2 = rng.uniform(0.0, 2.0, 2)
            cfg = ExperimentConfig(a1 ** 2, a2 ** 2, *rng.uniform(0, 2 * math.pi, 2),
                                   cutoff=CutoffSpec(n_max=int(rng.integers(1, 12))))
            n = cfg.resolve_cutoff()
            s = input_support(cfg)
            t1 = coherent_state(a1, n)[1]
            t2 = coherent_state(a2, n)[1]
            assert np.vdot(s, s).real == pytest.approx(
                (1.0 - t1) * (1.0 - t2), abs=1e-12)

    def test_amplitudes_are_products(self):
        rng = np.random.default_rng(6)
        cfg = ExperimentConfig(0.6 ** 2, 1.3 ** 2, 0.4, 2.9, CutoffSpec(n_max=3))
        s = input_support(cfg)
        lo1, _ = coherent_state(0.6 * np.exp(0.4j), 3)
        lo2, _ = coherent_state(1.3 * np.exp(2.9j), 3)
        pair = {(0, 1): INV_SQRT2, (1, 0): 1j * INV_SQRT2}
        for _ in range(20):
            i, j = rng.integers(0, 4, 2)
            for (b1, b2), w in pair.items():
                assert s[i, b1, j, b2] == pytest.approx(lo1[i] * w * lo2[j], abs=1e-15)
            assert s[i, 0, j, 0] == 0.0 and s[i, 1, j, 1] == 0.0


class TestInner:
    """Overlaps of mixed station states: the splitter preserves them."""

    def test_vacuum_overlap(self):
        col = mixed_basis(1.7, 2)[:, 0]
        assert np.vdot(col, col) == 1.0

    def test_orthogonal_basis_states(self):
        # distinct basis inputs stay orthogonal after mixing, the edge input
        # included (it is the only one with cutoff + 1 photons)
        for theta in (0.6, 2.0):
            u = mixed_basis(theta, 4)
            gram = u.conj().T @ u
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-15

    def test_coherent_overlap(self):
        # <alpha|beta> = exp(-(|a|^2+|b|^2)/2 + conj(a) b); real e^-2 here
        s1, _ = coherent_state(1.0, 40)
        s2, _ = coherent_state(-1.0, 40)
        overlap = np.vdot(s1, s2)
        assert overlap.real == pytest.approx(E_MINUS_2, abs=1e-13)
        assert abs(overlap.imag) < 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        u = mixed_basis(2.3, 5)
        for _ in range(10):
            v1, v2 = rng.standard_normal((2, 12, 2)) @ (1.0, 1.0j)
            v1[-1] = v2[-1] = 0.0   # off the edge input, nothing truncates
            mixed = np.vdot(u @ v1, u @ v2)
            assert mixed == pytest.approx(np.vdot(v1, v2), abs=1e-13)
            assert mixed == pytest.approx(np.conj(np.vdot(u @ v2, u @ v1)), abs=1e-15)

    def test_positive_on_diagonal(self):
        norms = np.diag(mixed_basis(1.1, 3).conj().T @ mixed_basis(1.1, 3))
        assert np.all(norms.imag == 0.0)
        assert np.all((0.0 < norms.real) & (norms.real <= 1.0 + 1e-15))
        assert norms.real[-1] < 1.0


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

    def test_nan_drive_refused(self):
        with pytest.raises(ValueError, match="alpha_sq must be >= 0"):
            required_cutoff(math.nan, 1e-12)

    @pytest.mark.parametrize("alpha_sq,tail_eps", [(4.0, 1e-16), (1.0, 1e-40)])
    def test_budget_below_double_rounding_terminates(self, alpha_sq, tail_eps):
        # 1 - sum(p_0..p_N) stalls at about 3e-16 for alpha_sq 4 and reads 0
        # for alpha_sq 1 at N = 18, whose tail is still about 3e-18; a fresh
        # interpreter, so a loop that never ends fails the timeout
        script = ("from homodyne_bell.fock import required_cutoff\n"
                  f"print(required_cutoff({alpha_sq!r}, {tail_eps!r}))\n")
        result = run_python(["-c", script], timeout=30)
        assert result.returncode == 0, result.stderr
        n = int(result.stdout)
        assert n == required_cutoff(alpha_sq, tail_eps)
        assert exact_poisson_tail(alpha_sq, n) < tail_eps
        assert exact_poisson_tail(alpha_sq, n - 1) >= tail_eps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(alpha_sq=st.floats(0.0, MAX_ALPHA_SQ),
           log_eps=st.floats(math.log10(MIN_TAIL_EPS), -1e-3))
    def test_smallest_cutoff_under_budget(self, alpha_sq, log_eps):
        # the whole accepted range, against the exact tail
        tail_eps = 10.0 ** log_eps
        n = required_cutoff(alpha_sq, tail_eps)
        assert exact_poisson_tail(alpha_sq, n) < tail_eps
        assert exact_poisson_tail(alpha_sq, n - 1) >= tail_eps

    def test_unresolvable_budget_refused(self):
        for tail_eps in (MIN_TAIL_EPS / 2, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="tail_eps must be in"):
                required_cutoff(1.0, tail_eps)
            with pytest.raises(ValueError, match="tail_eps must be in"):
                CutoffSpec(tail_eps=tail_eps)
        # the bound itself is resolved
        n = required_cutoff(MAX_ALPHA_SQ, MIN_TAIL_EPS)
        assert exact_poisson_tail(MAX_ALPHA_SQ, n) < MIN_TAIL_EPS


class TestCutoffSpec:
    def test_explicit_cutoff_wins(self):
        assert CutoffSpec(n_max=14).resolve(9.0) == 14

    def test_derived_cutoff_has_photon_headroom(self):
        assert CutoffSpec(tail_eps=1e-12).resolve(1.0) == 15
        assert CutoffSpec(tail_eps=1e-12).resolve(0.0) == 1

    def test_nan_drive_refused(self):
        with pytest.raises(ValueError, match="alpha_sq must be >= 0"):
            CutoffSpec().resolve(math.nan)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CutoffSpec(n_max=-1)
        with pytest.raises(ValueError):
            CutoffSpec(tail_eps=2.0)

    def test_limit_held_by_the_policy(self):
        # an explicit cutoff outside [1, MAX_CUTOFF] is refused when the
        # spec is built, a derived one above the limit when it is resolved
        assert CutoffSpec(n_max=1).resolve(0.0) == 1
        assert CutoffSpec(n_max=MAX_CUTOFF).resolve(1.0) == MAX_CUTOFF
        for n_max in (0, MAX_CUTOFF + 1):
            with pytest.raises(ValueError, match=f"N={n_max}"):
                CutoffSpec(n_max=n_max)
        with pytest.raises(ValueError, match="N=108"):
            CutoffSpec().resolve(50.0)
        assert optics.MAX_CUTOFF is MAX_CUTOFF


class TestStateAlgebra:
    def test_amps_immutable(self):
        amps, _ = coherent_state(0.5, 2)
        with pytest.raises(ValueError):
            amps[0] = 2.0

    def test_amplitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coherent_state(0.5, -1)
