import math

import pytest
from hypothesis import given, settings, strategies as st

from homodyne_bell.analytic import ClosedFormPoint, ch_closed, chsh_closed
from homodyne_bell.scan import (
    ALPHA_SQ_MIN,
    FAMILIES,
    PATHS,
    crosscheck_records,
    evaluate_point,
    get_family,
    grid_scan,
    maximize_chsh,
)

HALF_PI = math.pi / 2.0
RELAXED = ("relaxed_phases", "relaxed_amplitudes")
ANGLES = st.floats(0.0, 2.0 * math.pi)
# the box of both relaxed families up to alpha_sq 4 (cutoff <= 26 at the
# strict budget), so the numeric path stays quick
STRENGTHS = st.floats(ALPHA_SQ_MIN, 4.0)


@st.composite
def relaxed_points(draw, kind):
    values = {name: draw(ANGLES) for name in
              ("xi", "xi2", "eta", "eta2", "phi1", "phi2")}
    strengths = (("alpha_sq",) if kind == "relaxed_phases"
                 else ("alpha1_sq", "alpha2_sq"))
    values.update({name: draw(STRENGTHS) for name in strengths})
    return values


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
        names = get_family("relaxed_amplitudes").names
        assert "alpha1_sq" in names and "alpha2_sq" in names
        assert not any(n.startswith("alpha1_sq_") for n in names)


class TestEvaluatePoint:
    def test_baseline_analytic_matches_closed_form(self):
        values = {"alpha_sq": 1.0, "xi_plus_eta": math.pi}
        ch, chsh = evaluate_point("paper_baseline", values, "analytic")
        xi = (math.pi + 3 * math.pi / 4) / 2
        eta = (math.pi - 3 * math.pi / 4) / 2
        point = ClosedFormPoint(xi, eta, HALF_PI, 1.0)
        assert ch == pytest.approx(ch_closed(point), abs=0)
        assert chsh == pytest.approx(chsh_closed(point), abs=0)

    def test_baseline_numeric_agrees_with_analytic(self):
        values = {"alpha_sq": 0.8, "xi_plus_eta": 2.4}
        ch_a, _ = evaluate_point("paper_baseline", values, "analytic")
        ch_n, _ = evaluate_point("paper_baseline", values, "numeric")
        assert ch_n == pytest.approx(ch_a, abs=1e-9)

    @pytest.mark.parametrize("kind", RELAXED)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_relaxed_analytic_agrees_with_numeric(self, kind, data):
        values = data.draw(relaxed_points(kind))
        ch_a, chsh_a = evaluate_point(kind, values, "analytic")
        ch_n, _ = evaluate_point(kind, values, "numeric")
        assert abs(ch_a - ch_n) <= 1e-12
        assert chsh_a == 2.0 + 4.0 * ch_a

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_unknown_path_rejected(self, kind):
        values = {name: 0.5 for name in FAMILIES[kind].names}
        for path in PATHS:
            evaluate_point(kind, values, path)
        with pytest.raises(ValueError, match="unknown path"):
            evaluate_point(kind, values, "numerical")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point("paper_baseline", {"alpha_sq": 1.0}, "analytic")


class TestGridScan:
    def test_single_point_grid_matches_direct_evaluation(self):
        ranges = {"alpha_sq": (1.0, 1.0, 1), "xi_plus_eta": (math.pi, math.pi, 1)}
        records = grid_scan("paper_baseline", ranges)
        assert len(records) == 1
        ch, chsh = evaluate_point("paper_baseline", records[0].params, "analytic")
        assert records[0].ch == ch
        assert records[0].chsh == chsh

    def test_baseline_grid_stays_in_classical_window(self):
        ranges = {"alpha_sq": (0.04, 2.0, 50),
                  "xi_plus_eta": (0.0, 2 * math.pi * 49 / 50, 50)}
        records = grid_scan("paper_baseline", ranges)
        assert len(records) == 2500
        assert all(-1.0 < r.ch < 0.0 for r in records)
        assert all(r.chsh < 2.0 for r in records)

    def test_row_major_indexing(self):
        ranges = {"alpha_sq": (0.5, 1.0, 2), "xi_plus_eta": (0.0, 1.0, 3)}
        records = grid_scan("paper_baseline", ranges)
        assert [r.index for r in records] == list(range(6))
        assert records[0].params["alpha_sq"] == records[2].params["alpha_sq"]
        assert records[0].params["xi_plus_eta"] != records[1].params["xi_plus_eta"]

    def test_budget_exceeded_reports_requirement(self):
        ranges = {"alpha_sq": (0.1, 2.0, 100), "xi_plus_eta": (0.0, 6.0, 100)}
        with pytest.raises(ValueError, match="10000"):
            grid_scan("paper_baseline", ranges, budget=500)

    def test_determinism(self):
        ranges = {"alpha_sq": (0.2, 1.5, 4), "xi_plus_eta": (0.0, 5.0, 4)}
        first = grid_scan("paper_baseline", ranges)
        second = grid_scan("paper_baseline", ranges)
        assert first == second

    def test_crosscheck_residual_small(self):
        ranges = {"alpha_sq": (0.1, 2.0, 10), "xi_plus_eta": (0.0, 6.0, 10)}
        records = grid_scan("paper_baseline", ranges)
        count, worst = crosscheck_records(records, fraction=0.05, seed=3)
        assert count == 5
        assert worst < 1e-9


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
        assert out.best.path == "analytic"
        numeric = maximize_chsh("relaxed_phases", restarts=2, seed=77,
                                maxfev=60, path="numeric")
        assert len(numeric.trace) == 2
        assert numeric.best.chsh < 2.0 + 1e-6
        assert numeric.best.path == "numeric"
        assert (numeric.crosscheck_points, numeric.crosscheck_residual) == (0, 0.0)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_analytic_search_crosschecks_every_restart(self, kind):
        out = maximize_chsh(kind, restarts=3, seed=5, maxfev=40)
        assert out.crosscheck_points == 3
        assert 0.0 < out.crosscheck_residual <= 1e-12
        for rec in out.trace:
            ch_n, _ = evaluate_point(kind, rec.params, "numeric")
            assert abs(ch_n - rec.ch) <= out.crosscheck_residual

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown path"):
            maximize_chsh("relaxed_phases", restarts=1, seed=1, path="exact")


class TestSmallDriveLimit:
    def test_chsh_approaches_zero_drive_value(self):
        # along eta = 0, xi = 3pi/4 the zero-drive limit is
        # cos(eta) - sin(xi) = 1 - sqrt(2)/2
        limit = 1.0 - math.sin(3 * math.pi / 4)
        values = {"alpha_sq": 1e-8, "xi_plus_eta": 3 * math.pi / 4}
        _, chsh_a = evaluate_point("paper_baseline", values, "analytic")
        assert abs(chsh_a - limit) < 1e-6
        _, chsh_n = evaluate_point("paper_baseline", values, "numeric")
        assert abs(chsh_n - limit) < 1e-6
