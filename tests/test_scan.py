import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homodyne_bell import analytic
from homodyne_bell.analytic import ClosedFormPoint, ch_closed, chsh_closed
from homodyne_bell.bell import (
    REFERENCE_DPHI,
    SettingsQuadruple,
    evaluate_quadruple,
    evaluate_settings,
)
from homodyne_bell.fock import CutoffSpec
from homodyne_bell.optics import ExperimentConfig, symmetric_config
from homodyne_bell.scan import (
    ALPHA_SQ_MAX,
    ALPHA_SQ_MIN,
    FAMILIES,
    ScanRecord,
    evaluate_point,
    get_family,
    latin_hypercube,
    maximize_chsh,
    numeric_point,
    station_params,
)

HALF_PI = math.pi / 2.0
RELAXED = ("relaxed_phases", "relaxed_amplitudes")
ANGLES = st.floats(0.0, 2.0 * math.pi)
# the box of both relaxed families up to alpha_sq 4 (cutoff <= 26 at the
# strict budget), so the numerics stay quick
STRENGTHS = st.floats(ALPHA_SQ_MIN, 4.0)
TAIL_EPS = st.sampled_from((1e-12, 1e-6, 1e-4))


@st.composite
def relaxed_points(draw, kind):
    """A point of a relaxed family: its values in the order of its box."""
    values = {name: draw(ANGLES) for name in
              ("xi", "xi2", "eta", "eta2", "phi1", "phi2")}
    strengths = (("alpha_sq",) if kind == "relaxed_phases"
                 else ("alpha1_sq", "alpha2_sq"))
    values.update({name: draw(STRENGTHS) for name in strengths})
    return [values[p.name] for p in FAMILIES[kind]]


class TestFamilies:
    def test_known_kinds(self):
        assert set(FAMILIES) == {"paper_baseline", "relaxed_phases",
                                 "relaxed_amplitudes"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            get_family("everything_free")

    def test_relaxed_amplitudes_one_strength_per_party(self):
        # each party has a single strength parameter shared by its two
        # settings; only xi/eta style angles come in setting pairs
        names = [p.name for p in get_family("relaxed_amplitudes")]
        assert "alpha1_sq" in names and "alpha2_sq" in names
        assert not any(n.startswith("alpha1_sq_") for n in names)


# (alpha_sq, xi_plus_eta)
BASELINE_POINTS = st.tuples(st.floats(ALPHA_SQ_MIN, ALPHA_SQ_MAX), ANGLES)


def family_points(kind):
    return BASELINE_POINTS if kind == "paper_baseline" else relaxed_points(kind)


class TestOneParameterLayer:
    """Both routes evaluate a family point on its eight station parameters
    p: the closed forms as ch_chsh_point(*p), the numerics as
    evaluate_settings(ExperimentConfig(*p[:4], cutoff), *p[4:])."""

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_search_evaluates_the_station_params(self, kind, data):
        values = data.draw(family_points(kind))
        assert evaluate_point(kind, values) == \
            analytic.ch_chsh_point(*station_params(kind, values))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), tail_eps=TAIL_EPS)
    def test_numerics_evaluate_the_station_params(self, kind, data, tail_eps):
        values = data.draw(family_points(kind))
        spec = CutoffSpec(tail_eps=tail_eps)
        p = station_params(kind, values)
        record = evaluate_settings(ExperimentConfig(*p[:4], spec), *p[4:])
        assert numeric_point(kind, values, spec) == (record.ch, record.chsh)


class TestStationParams:
    def test_baseline_is_the_standard_quadruple(self):
        xi = (2.0 + 3 * math.pi / 4) / 2
        eta = (2.0 - 3 * math.pi / 4) / 2
        assert station_params("paper_baseline", [1.5, 2.0]) == (
            1.5, 1.5, 0.0, HALF_PI, xi, xi + HALF_PI, eta, eta + HALF_PI)

    def test_relaxed_phases_shares_one_strength(self):
        # (alpha_sq, xi, xi2, eta, eta2, phi1, phi2)
        values = [0.7, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert station_params("relaxed_phases", values) == (
            0.7, 0.7, 5.0, 6.0, 1.0, 2.0, 3.0, 4.0)

    def test_relaxed_amplitudes_one_strength_per_party(self):
        # (alpha1_sq, alpha2_sq, xi, xi2, eta, eta2, phi1, phi2)
        values = [0.7, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert station_params("relaxed_amplitudes", values) == (
            0.7, 0.9, 5.0, 6.0, 1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_missing_parameter_rejected_by_every_evaluator(self, kind):
        # a short vector: one value too few
        values = [0.5] * (len(FAMILIES[kind]) - 1)
        for evaluate in (station_params, evaluate_point, numeric_point):
            with pytest.raises(ValueError, match="not enough values"):
                evaluate(kind, values)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_extra_value_rejected_by_every_evaluator(self, kind):
        values = [0.5] * (len(FAMILIES[kind]) + 1)
        for evaluate in (station_params, evaluate_point, numeric_point):
            with pytest.raises(ValueError, match="too many values"):
                evaluate(kind, values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            station_params("everything_free", [0.5] * 8)


class TestEvaluatePoint:
    def test_baseline_analytic_matches_closed_form(self):
        ch, chsh = evaluate_point("paper_baseline", [1.0, math.pi])
        xi = (math.pi + 3 * math.pi / 4) / 2
        eta = (math.pi - 3 * math.pi / 4) / 2
        point = ClosedFormPoint(xi, eta, HALF_PI, 1.0)
        assert abs(ch - ch_closed(point)) <= 1e-15
        assert abs(chsh - chsh_closed(point)) <= 4e-15

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(values=BASELINE_POINTS)
    def test_baseline_is_the_expanded_closed_form(self, values):
        # the search runs on the general forms for every family; on
        # paper_baseline they are the paper's expanded forms to rounding.
        # Both chsh are 2 + 4 ch, so their bound is four times ch's (20000
        # random points reached 2.8e-16 on ch and 1.1e-15 on chsh)
        alpha_sq, xi_plus_eta = values
        xi = (xi_plus_eta + 3 * math.pi / 4) / 2
        eta = (xi_plus_eta - 3 * math.pi / 4) / 2
        point = ClosedFormPoint(xi, eta, REFERENCE_DPHI, alpha_sq)
        ch, chsh = evaluate_point("paper_baseline", values)
        assert abs(ch - ch_closed(point)) <= 1e-15
        assert abs(chsh - chsh_closed(point)) <= 4e-15

    def test_baseline_numeric_agrees_with_analytic(self):
        values = [0.8, 2.4]
        ch_a, _ = evaluate_point("paper_baseline", values)
        ch_n, _ = numeric_point("paper_baseline", values)
        assert ch_n == pytest.approx(ch_a, abs=1e-9)

    @pytest.mark.parametrize("kind", RELAXED)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_relaxed_analytic_agrees_with_numeric(self, kind, data):
        values = data.draw(relaxed_points(kind))
        ch_a, chsh_a = evaluate_point(kind, values)
        ch_n, _ = numeric_point(kind, values)
        assert abs(ch_a - ch_n) <= 1e-12
        assert chsh_a == 2.0 + 4.0 * ch_a

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point("paper_baseline", [1.0])


class TestNumericPoint:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(values=BASELINE_POINTS, tail_eps=TAIL_EPS)
    def test_baseline_is_the_symmetric_quadruple_record(self, values, tail_eps):
        # one numeric evaluator for every family: on paper_baseline it is
        # the standard quadruple of symmetric_config, bit for bit
        spec = CutoffSpec(tail_eps=tail_eps)
        alpha_sq, xi_plus_eta = values
        xi = (xi_plus_eta + 3 * math.pi / 4) / 2
        eta = (xi_plus_eta - 3 * math.pi / 4) / 2
        record = evaluate_quadruple(
            symmetric_config(alpha_sq, REFERENCE_DPHI, spec),
            SettingsQuadruple(xi, eta))
        assert numeric_point("paper_baseline", values, spec) == \
            (record.ch, record.chsh)


def baseline_grid(alpha_sq, xi_plus_eta):
    """Analytic paper_baseline records over the product of two axes,
    row-major, built point by point with evaluate_point."""
    records = []
    for a in alpha_sq:
        for t in xi_plus_eta:
            values = [float(a), float(t)]
            ch, chsh = evaluate_point("paper_baseline", values)
            records.append(ScanRecord(len(records), dict(zip(
                (p.name for p in FAMILIES["paper_baseline"]), values)), ch, chsh))
    return records


class TestGridScan:
    """The baseline family over a parameter grid, point by point."""

    def test_baseline_grid_stays_in_classical_window(self):
        records = baseline_grid(np.linspace(0.04, 2.0, 50),
                                np.linspace(0.0, 2 * math.pi * 49 / 50, 50))
        assert len(records) == 2500
        assert all(-1.0 < r.ch < 0.0 for r in records)
        assert all(r.chsh < 2.0 for r in records)

    def test_crosscheck_residual_small(self):
        records = baseline_grid(np.linspace(0.1, 2.0, 10), np.linspace(0.0, 6.0, 10))
        worst = max(abs(numeric_point("paper_baseline",
                                      list(r.params.values()))[0] - r.ch)
                    for r in records[::20])
        assert worst <= 1e-12


class TestMaximize:
    def test_baseline_quick_search(self):
        out = maximize_chsh("paper_baseline", restarts=8, seed=101)
        assert out.best.chsh < 2.0
        assert out.best.chsh == max(r.chsh for r in out.trace)
        assert len(out.trace) == 8

    def test_deterministic_given_seed(self):
        first = maximize_chsh("paper_baseline", restarts=6, seed=42)
        second = maximize_chsh("paper_baseline", restarts=6, seed=42)
        assert first.best == second.best
        assert first.trace == second.trace

    def test_seed_changes_search(self):
        first = maximize_chsh("paper_baseline", restarts=4, seed=1)
        second = maximize_chsh("paper_baseline", restarts=4, seed=2)
        assert first.trace != second.trace

    def test_restart_count_validated(self):
        with pytest.raises(ValueError):
            maximize_chsh("paper_baseline", restarts=0, seed=1)

    def test_relaxed_phases_smoke(self):
        out = maximize_chsh("relaxed_phases", restarts=2, seed=77, maxfev=60)
        assert len(out.trace) == 2
        assert out.best.chsh < 2.0 + 1e-6

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_analytic_search_crosschecks_every_restart(self, kind):
        out = maximize_chsh(kind, restarts=3, seed=5, maxfev=40)
        residuals = [abs(numeric_point(kind, list(rec.params.values()))[0]
                         - rec.ch)
                     for rec in out.trace]
        assert out.crosscheck_residuals == tuple(residuals)
        assert 0.0 < max(residuals) <= 1e-12

    @pytest.mark.parametrize("kind", RELAXED)
    def test_relaxed_search_runs_on_plain_floats(self, kind, monkeypatch):
        # the search's evaluations must stay on the plain-float form, not
        # fall back to the numpy array form
        def refused(*args):
            raise AssertionError("ch_chsh_general called by the search")

        calls = []
        point = analytic.ch_chsh_point

        def counted(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(analytic, "ch_chsh_general", refused)
        monkeypatch.setattr(analytic, "ch_chsh_point", counted)
        out = maximize_chsh(kind, restarts=2, seed=3, maxfev=30)
        assert len(calls) == out.evaluations + out.restarts

    def test_crosscheck_uses_the_cutoff_policy(self):
        # at a per-mode cutoff of 3 the numerics miss most of the drive's
        # photon-number distribution
        out = maximize_chsh("paper_baseline", restarts=2, seed=5, maxfev=40,
                            cutoff=CutoffSpec(n_max=3))
        assert max(out.crosscheck_residuals) > 1e-6


class TestSmallDriveLimit:
    def test_chsh_approaches_zero_drive_value(self):
        # along eta = 0, xi = 3pi/4 the zero-drive limit is
        # cos(eta) - sin(xi) = 1 - sqrt(2)/2
        limit = 1.0 - math.sin(3 * math.pi / 4)
        values = [1e-8, 3 * math.pi / 4]
        _, chsh_a = evaluate_point("paper_baseline", values)
        assert abs(chsh_a - limit) < 1e-6
        _, chsh_n = numeric_point("paper_baseline", values)
        assert abs(chsh_n - limit) < 1e-6


class TestLatinHypercube:
    @pytest.mark.parametrize("d", [1, 2, 7, 8])
    @pytest.mark.parametrize("n", [1, 4, 32, 33])
    @pytest.mark.parametrize("seed", [0, 1, 20240801, 2 ** 31 - 1])
    def test_is_scipys_draw(self, d, n, seed):
        # maximize_chsh's starts, and so every optimize output, are the
        # ones scipy's sampler draws for the seed
        from scipy.stats import qmc

        expected = qmc.LatinHypercube(d=d, seed=seed).random(n=n)
        got = latin_hypercube(n, d, seed)
        assert got.shape == expected.shape == (n, d)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 9), st.integers(0, 2 ** 63))
    def test_one_point_per_stratum(self, n, d, seed):
        sample = latin_hypercube(n, d, seed)
        assert sample.shape == (n, d)
        assert np.all((sample >= 0.0) & (sample < 1.0))
        strata = np.sort(np.floor(sample * n).astype(int), axis=0)
        assert np.array_equal(strata, np.tile(np.arange(n)[:, None], (1, d)))
