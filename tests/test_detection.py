import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import (
    ab_product_expectation,
    dense_favorable_probs,
    dense_station_columns,
    input_support,
    propagate,
)
from homodyne_bell.analytic import probs_point
from homodyne_bell.bell import evaluate_settings
from homodyne_bell.detection import (
    FAVORABLE_ROW,
    pair_probabilities,
    read_pass,
    support_rows,
)
from homodyne_bell.fock import MAX_CUTOFF, CutoffSpec
from homodyne_bell.optics import (
    ExperimentConfig,
    mix_station,
    oscillators,
    run_network,
    symmetric_config,
)

E_MINUS_1_HALF = 0.18393972058572116
E_MINUS_2_HALF = 0.06766764161830635


def outcome_classes(out):
    """Oracle: classify every output occupation into (+-1, +-1) and sum
    |amplitude|^2 per class directly, over the output norm."""
    weights = np.abs(out) ** 2
    alice = np.zeros(out.shape[:2], dtype=bool)
    alice[1, 0] = True
    dist = {}
    for a in (-1, 1):
        for b in (-1, 1):
            mask = np.multiply.outer(alice == (a == -1), alice == (b == -1))
            dist[(a, b)] = float(np.sum(weights[mask])) / float(np.sum(weights))
    return dist


def enumerated_correlator(out):
    """Oracle: sum the signed probabilities of every occupation."""
    return sum(a * b * p for (a, b), p in outcome_classes(out).items())


def scaled_network(config, xi, eta, z):
    """run_network(config, xi, eta) on z times its output: Alice's images
    scaled."""
    images = mix_station(oscillators(config), (xi, eta))
    return pair_probabilities(*read_pass(images * np.array([z, 1.0]), 1))


def dense(config, xi, eta):
    """The dense output of the network run_network(config, xi, eta)."""
    return propagate(input_support(config), xi, eta)


def random_point(rng, alpha_sq_hi=3.0):
    """A random (config, xi, eta)."""
    a2 = alpha_sq_hi * rng.random() + 0.05
    return (symmetric_config(a2, rng.uniform(0, 2 * math.pi)),
            rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))


class TestMarginals:
    def test_vacuum_has_no_favorable_events(self):
        # both terms of both stations hold |0, 0>, row 0 of a pass cut at N = 2
        vac = np.zeros((len(support_rows(2)[0]), 2, 2), dtype=complex)
        vac[0] = 1.0
        p_a, p_b, p_ab, norm = pair_probabilities(*read_pass(vac, 1))
        assert (p_a, p_b, p_ab) == (0.0, 0.0, 0.0)
        assert norm == pytest.approx(1.0, abs=1e-15)

    def test_single_photon_reflection_probability(self):
        p_a, p_b, _, _ = run_network(symmetric_config(0.0), math.pi / 2, 0.0)
        assert p_a == pytest.approx(0.25, abs=1e-14)
        assert p_b == pytest.approx(0.0, abs=1e-14)

    def test_unit_drive_marginal(self):
        s = run_network(symmetric_config(1.0, 0.3), math.pi / 2, 1.1)
        assert s[0] == pytest.approx(E_MINUS_1_HALF, abs=1e-10)


class TestJointProbability:
    def test_single_photon_cannot_trigger_both(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = run_network(symmetric_config(0.0), rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
            assert s[2] < 1e-14

    def test_destructive_phase_point(self):
        s = run_network(symmetric_config(1.0, math.pi / 2),
                        math.pi / 2, math.pi / 2)
        assert s[2] < 1e-10

    def test_constructive_phase_point(self):
        s = run_network(symmetric_config(1.0, -math.pi / 2),
                        math.pi / 2, math.pi / 2)
        assert s[2] == pytest.approx(E_MINUS_2_HALF, abs=1e-10)

    def test_joint_bounded_by_marginals(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            p_a, p_b, p_ab, _ = run_network(*random_point(rng))
            assert 0.0 <= p_ab <= min(p_a, p_b) <= 1.0


class TestCorrelator:
    """The correlator formula lives in bell.evaluate_settings, which sums
    the four pairs' correlators into the record's chsh; these hold it to
    the dense output's outcome classes."""

    def test_fully_transmitting_settings(self):
        # four equal pairs with signs +, +, -, +: chsh is twice their
        # correlator
        rec = evaluate_settings(symmetric_config(0.0), 0.0, 0.0, 0.0, 0.0)
        assert rec.chsh / 2.0 == pytest.approx(1.0, abs=1e-14)
        out = dense(symmetric_config(0.0), 0.0, 0.0)
        assert enumerated_correlator(out) == pytest.approx(1.0, abs=1e-14)

    def test_linear_formula_matches_distribution_sum(self):
        # 1 - 2 p_A - 2 p_B + 4 p_AB on the readout equals the signed sum
        # of the four outcome classes
        rng = np.random.default_rng(2)
        for _ in range(6):
            p_a, p_b, p_ab, _ = run_network(*random_point(rng, 2.0))
            dist = {(-1, -1): p_ab, (-1, 1): p_a - p_ab, (1, -1): p_b - p_ab,
                    (1, 1): 1.0 - p_a - p_b + p_ab}
            summed = sum(i * j * p for (i, j), p in dist.items())
            assert 1.0 - 2.0 * p_a - 2.0 * p_b + 4.0 * p_ab == pytest.approx(
                summed, abs=1e-12)

    def test_against_enumeration_oracle(self):
        # every record's chsh, its correlators' signed sum (station route),
        # against the enumerated dense outputs of its setting pairs
        # (brute-force route)
        rng = np.random.default_rng(3)
        for _ in range(3):
            cfg = symmetric_config(1.0, rng.uniform(0, 2 * math.pi))
            angles = rng.uniform(0, 2 * math.pi, 4)
            rec = evaluate_settings(cfg, *angles)
            enumerated = [enumerated_correlator(dense(cfg, x, y))
                          for x, y in rec.settings]
            assert rec.chsh == pytest.approx(
                enumerated[0] + enumerated[1] - enumerated[2] + enumerated[3],
                abs=1e-10)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            point = random_point(rng, 1.5)
            dist = outcome_classes(dense(*point))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            p_a, p_b, p_ab, _ = run_network(*point)
            assert dist[(-1, -1)] == pytest.approx(p_ab, abs=1e-14)
            assert dist[(-1, -1)] + dist[(-1, 1)] == pytest.approx(p_a, abs=1e-14)
            assert dist[(-1, -1)] + dist[(1, -1)] == pytest.approx(p_b, abs=1e-14)


class TestTruncationNormalization:
    def test_probabilities_invariant_under_state_scaling(self):
        point = (symmetric_config(1.2, 0.5, CutoffSpec(tail_eps=1e-4)), 0.8, 2.3)
        for z in (2.0, 0.3 - 0.7j, -1j):
            for got, want in zip(scaled_network(*point, z)[:3],
                                 run_network(*point)[:3]):
                assert got == pytest.approx(want, rel=1e-13)

    def test_cached_norm_matches_fresh_vdot(self):
        # the readout's norm is <psi|psi> of the output, which is the input
        # weight kept by each station's column norms: only the edge input
        # |N, 1> loses amplitude and the mixed columns are orthogonal
        for tail_eps in (1e-12, 1e-4):
            cfg = symmetric_config(1.5, 0.4, CutoffSpec(tail_eps=tail_eps))
            norm = run_network(cfg, 0.9, 2.0)[3]
            n = cfg.resolve_cutoff()
            kept = [np.sum(np.abs(dense_station_columns(theta, n)) ** 2,
                           axis=(0, 1)).reshape(-1)
                    for theta in (0.9, 2.0)]
            weights = np.abs(input_support(cfg).reshape(2 * (n + 1), -1)) ** 2
            assert norm == pytest.approx(kept[0] @ weights @ kept[1], rel=1e-14)
            out = dense(cfg, 0.9, 2.0)
            assert norm == pytest.approx(float(np.vdot(out, out).real), rel=1e-15)


class TestNoSignalling:
    def test_alice_marginal_independent_of_bob(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(15):
            a2 = 4.0 * (1.0 - rng.random())
            xi = rng.uniform(0, 2 * math.pi)
            p = [run_network(symmetric_config(a2, rng.uniform(0, 2 * math.pi)),
                             xi, rng.uniform(0, 2 * math.pi))[0]
                 for _ in range(2)]
            worst = max(worst, abs(p[0] - p[1]))
        assert worst < 1e-10


class TestProductExpectation:
    def test_matches_correlator_on_normalized_states(self):
        # the correlator is conditional on the truncated space, the product
        # expectation is not: they differ by exactly the factor <psi|psi>
        tight = symmetric_config(1.0, 0.9)
        loose = symmetric_config(1.0, 0.9, CutoffSpec(tail_eps=1e-4))
        assert 1.0 - run_network(loose, 1.3, 0.4)[3] > 1e-6
        for cfg, z in ((tight, 1.0), (tight, 2.0), (loose, 1.0)):
            p_a, p_b, p_ab, norm = scaled_network(cfg, 1.3, 0.4, z)
            correlator = 1.0 - 2.0 * p_a - 2.0 * p_b + 4.0 * p_ab
            quad_form = ab_product_expectation(
                propagate(z * input_support(cfg), 1.3, 0.4)).real
            assert quad_form == pytest.approx(correlator * norm, rel=1e-12, abs=1e-14)

    def test_bilinearity(self):
        cfg = symmetric_config(0.8, 1.1)
        u = dense(cfg, 0.7, 1.9)
        v = dense(cfg, 2.1, 0.3)
        z = 0.6 - 0.3j
        lhs = ab_product_expectation(u, z * v)
        rhs = z * ab_product_expectation(u, v)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestReadoutEquivalence:
    """The rank-2 readout of the station terms against the index readout
    of the dense output."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a1_sq=st.floats(0.0, 4.0), a2_sq=st.floats(0.0, 4.0),
           angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4),
           tail_eps=st.sampled_from((1e-12, 1e-4)))
    def test_matches_dense_readout(self, a1_sq, a2_sq, angles, tail_eps):
        # the loose tail leaves weight on the edge input |N, 1>, whose
        # column loses amplitude: the norm must carry that loss
        phi1, phi2, xi, eta = angles
        cfg = ExperimentConfig(a1_sq, a2_sq, phi1, phi2, CutoffSpec(tail_eps=tail_eps))
        got = run_network(cfg, xi, eta)
        want = dense_favorable_probs(dense(cfg, xi, eta))
        assert max(abs(g - w) for g, w in zip(got[:3], want[:3])) <= 1e-14
        assert abs(got[3] - want[3]) <= 1e-13

    @pytest.mark.parametrize("alice,bob", [(1, 1), (2, 2), (1, 3), (3, 1)],
                             ids=["1-1", "2-2", "1-3", "3-1"])
    def test_pass_layouts_match_dense_readout(self, alice, bob):
        # every (Alice, Bob) pair of settings read_pass gives from one pass,
        # Alice's settings first: Bob's terms must be read in the reverse
        # term order, and every setting from its own columns
        rng = np.random.default_rng([alice, bob])
        for _ in range(3):
            cfg = ExperimentConfig(*rng.uniform(0.0, 3.0, 2),
                                   *rng.uniform(0.0, 2.0 * math.pi, 2),
                                   CutoffSpec(tail_eps=1e-4))
            xis = rng.uniform(0.0, 2.0 * math.pi, alice)
            etas = rng.uniform(0.0, 2.0 * math.pi, bob)
            lo = oscillators(cfg).repeat((alice, bob), axis=0)
            stations = read_pass(mix_station(lo, (*xis, *etas)), alice)
            assert len(stations) == alice + bob
            for i, xi in enumerate(xis):
                for j, eta in enumerate(etas):
                    got = pair_probabilities(stations[i], stations[alice + j])
                    want = dense_favorable_probs(dense(cfg, xi, eta))
                    assert max(abs(g - w) for g, w in zip(got[:3], want[:3])) <= 1e-14
                    assert abs(got[3] - want[3]) <= 1e-13


def complex_readout(images, alice):
    """read_pass's readout from the complex Gram matrix flat^H flat: for
    setting i the entries of its terms (k0, k1), Alice's (i, S + i) and
    Bob's (S + i, i), flattened row-major, and their (1, 0) amplitudes."""
    settings = images.shape[2]
    flat = images.reshape(-1, 2 * settings)
    gram, fav = flat.conj().T @ flat, images[FAVORABLE_ROW].reshape(-1)
    stations = []
    for i in range(settings):
        k0, k1 = (i, settings + i) if i < alice else (settings + i, i)
        stations.append((gram[np.ix_([k0, k1], [k0, k1])].ravel(), fav[[k0, k1]]))
    return stations


class TestRealGram:
    """read_pass forms its Gram matrix from the real view of the images, a
    real product, with its term order and values those of the complex one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, MAX_CUTOFF), settings_=st.integers(1, 8),
           alice=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           decades=st.integers(-150, 150))
    def test_matches_the_complex_product(self, n, settings_, alice, seed,
                                         decades):
        rng = np.random.default_rng(seed)
        shape = (len(support_rows(n)[0]), 2, settings_)
        images = 10.0 ** decades * (rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
        alice = min(alice, settings_)
        got = read_pass(images, alice)
        want = complex_readout(images, alice)
        assert len(got) == settings_
        for (gram, amps), (want_gram, want_amps) in zip(got, want):
            assert all(type(g) is complex for g in gram + amps)
            assert amps == want_amps.tolist()
            # each entry within 32 ulps of its Cauchy-Schwarz scale: the two
            # products sum the same 2 (N+1)(N+2)/2 + 2N terms in different
            # orders
            # (up to 9 ulps apart over 2000 random passes), while a wrong
            # sign, index or term order moves an entry by about its scale
            g00, g11 = want_gram[0].real, want_gram[3].real
            cross = math.sqrt(g00) * math.sqrt(g11)
            scale = np.array([g00, cross, cross, g11])
            assert np.all(np.abs(np.array(gram) - want_gram)
                          <= 32.0 * np.spacing(scale))
            # exactly Hermitian, with a real diagonal
            assert gram[2] == gram[1].conjugate()
            assert gram[0].imag == 0.0 and gram[3].imag == 0.0

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_images(self, layout):
        cfg = ExperimentConfig(1.3, 0.8, 0.4, 2.1, CutoffSpec(tail_eps=1e-4))
        lo = oscillators(cfg).repeat((2, 2), axis=0)
        images = mix_station(lo, (0.3, 1.7, 0.9, 2.6))
        if layout == "fortran":
            other = np.asfortranarray(images)
        else:
            other = np.zeros(images.shape[:2] + (2 * images.shape[2],),
                             dtype=complex)[..., ::2]
            other[...] = images
        assert not other.flags.c_contiguous
        assert read_pass(other, 2) == read_pass(images, 2)


class TestStationShape:
    """pair_probabilities unpacks each station into the four Gram entries
    and two favorable amplitudes read_pass gives it, so a station of any
    other shape is refused rather than read in part."""

    GOOD = ([1.0, 0.0, 0.0, 1.0], [0.3, 0.4j])

    @pytest.mark.parametrize("gram_shape,fav_shape", [
        ((9,), (3,)),      # a three-term station
        ((1, 4), (2,)),    # a batch of one Gram matrix
        ((4,), (1, 2)),    # a batch of one favorable vector
        ((2, 2), (2,)),    # a Gram matrix left unflattened
    ])
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_refuses_other_shapes(self, gram_shape, fav_shape, side):
        bad = (np.ones(gram_shape, dtype=complex).tolist(),
               np.ones(fav_shape, dtype=complex).tolist())
        stations = (bad, self.GOOD) if side == "alice" else (self.GOOD, bad)
        with pytest.raises(ValueError, match="values to unpack"):
            pair_probabilities(*stations)

    @pytest.mark.parametrize("scale", [0.0, math.nan, math.inf])
    def test_refuses_a_norm_without_weight(self, scale):
        # a state with no weight within the cutoff would divide by zero
        gram = [complex(scale), 0j, 0j, complex(scale)]
        with pytest.raises(ValueError, match="truncated norm"):
            pair_probabilities((gram, [0j, 0j]), self.GOOD)


class TestScale:
    def test_readout_at_max_cutoff_stays_small(self):
        # the dense output at N = 63 would take 256 MiB; mix_station's
        # mixing table (2.2 MB, built here if no earlier test did) and the
        # station terms take a small part of that. The peak measured 3.5 MB
        # with the table and its eigendecompositions built here, 2.5 MB with
        # only the table built here and 0.29 MB with it cached
        cfg = ExperimentConfig(1.21, 0.64, 0.3, 1.9, CutoffSpec(n_max=MAX_CUTOFF))
        tracemalloc.start()
        try:
            p_a, p_b, p_ab, norm = run_network(cfg, 0.7, 2.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20
        want = probs_point(1.21, 0.64, 0.3, 1.9, 0.7, 2.2)
        assert max(abs(g - w) for g, w in zip((p_a, p_b, p_ab), want)) <= 1e-12
        assert norm == pytest.approx(1.0, abs=1e-12)
