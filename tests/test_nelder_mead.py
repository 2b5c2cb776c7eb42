"""The search's Nelder-Mead (scan._nelder_mead) against the one it ports,
scipy.optimize.minimize(method="Nelder-Mead", bounds=...): every point
passed to the objective, in order, and the final x must be the same bits.
scipy is the oracle here and nowhere in the package."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from homodyne_bell import scan
from homodyne_bell.scan import (DEFAULT_DIAMETER_TOL, FAMILIES, evaluate_point,
                                latin_hypercube, maximize_chsh, numeric_point)

KINDS = sorted(FAMILIES)
# nine vertices: numpy's argsort breaks ties stably below four elements, so
# paper_baseline's three vertices never reach a departure from a stable sort
RELAXED = ("relaxed_phases", "relaxed_amplitudes")


def box(kind):
    return [p.lo for p in FAMILIES[kind]], [p.hi for p in FAMILIES[kind]]


def starts(kind, seed, restarts):
    """maximize_chsh's restart starts for `seed`."""
    lo, hi = (np.array(b) for b in box(kind))
    return (lo + latin_hypercube(restarts, len(lo), seed) * (hi - lo)).tolist()


def start(kind, seed):
    return starts(kind, seed, 1)[0]


def negative_chsh(kind):
    """maximize_chsh's objective: the vertex is the family point."""
    return lambda x: -evaluate_point(kind, x)[1]


def tied(f, step=0.02):
    """f rounded to multiples of step: most simplexes then hold ties."""
    return lambda x: step * round(f(x) / step)


def bits(points):
    return [[float(v).hex() for v in point] for point in points]


def scipy_search(f, x0, lo, hi, xatol, maxfev):
    """(points passed to f, final x) of scipy's bounded Nelder-Mead."""
    points = []

    def recorded(x):
        points.append(x.tolist())
        return f(x.tolist())

    result = optimize.minimize(
        recorded, np.array(x0), method="Nelder-Mead",
        bounds=optimize.Bounds(lo, hi),
        options={"xatol": xatol, "fatol": math.inf, "maxfev": maxfev})
    return bits(points), bits([result.x])[0]


def port_search(f, x0, lo, hi, xatol, maxfev):
    """(points passed to f, final x) of the port, checking its call count."""
    points = []

    def recorded(x):
        points.append(list(x))
        return f(x)

    x, calls = scan._nelder_mead(recorded, x0, lo, hi, xatol, maxfev)
    assert calls == len(points) <= maxfev
    return bits(points), bits([x])[0]


def assert_same_search(f, x0, lo, hi, xatol, maxfev):
    want = scipy_search(f, x0, lo, hi, xatol, maxfev)
    assert port_search(f, x0, lo, hi, xatol, maxfev) == want
    return want


DIAMETER_TOLS = st.sampled_from((DEFAULT_DIAMETER_TOL, 1e-6, 1e-3, 0.05))


class TestSameIterates:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1),
           maxfev=st.integers(1, 80), xatol=DIAMETER_TOLS,
           ties=st.booleans())
    def test_matches_scipy(self, kind, seed, maxfev, xatol, ties):
        f = negative_chsh(kind)
        assert_same_search(tied(f) if ties else f, start(kind, seed),
                           *box(kind), xatol, maxfev)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 20240801])
    def test_matches_scipy_to_convergence(self, kind, seed):
        # the default budget, where most restarts stop on the diameter
        lo, hi = box(kind)
        points, _ = assert_same_search(negative_chsh(kind), start(kind, seed),
                                       lo, hi, DEFAULT_DIAMETER_TOL, 2000)
        assert len(points) < 2000

    @pytest.mark.parametrize("kind", KINDS)
    def test_budget_spent_in_the_initial_simplex(self, kind):
        # fewer calls than vertices: the rest keep f = inf and are ranked
        # by numpy's tie order
        lo, hi = box(kind)
        for maxfev in range(1, len(lo) + 1):
            points, _ = assert_same_search(negative_chsh(kind), start(kind, 3),
                                           lo, hi, DEFAULT_DIAMETER_TOL, maxfev)
            assert len(points) == maxfev

    @pytest.mark.parametrize("kind", KINDS)
    def test_budget_spent_mid_shrink(self, kind):
        # a constant objective fails every reflection and inside contraction,
        # so each step after the initial simplex is two trials and a shrink
        # of all n other vertices; the budget then ends k vertices into one
        lo, hi = box(kind)
        n = len(lo)
        for k in range(1, n):
            assert_same_search(lambda x: 1.0, start(kind, 4), lo, hi,
                               DEFAULT_DIAMETER_TOL, (n + 1) + 2 + k)
            assert_same_search(lambda x: 1.0, start(kind, 4), lo, hi,
                               DEFAULT_DIAMETER_TOL, 2 * (n + 2) + 1 + k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_start_on_the_upper_bound(self, kind):
        # the initial vertices 1.05 x pass the bound and are reflected inside
        lo, hi = box(kind)
        for x0 in (list(hi), [hi[0]] + start(kind, 5)[1:],
                   [0.99 * h for h in hi]):
            assert_same_search(negative_chsh(kind), x0, lo, hi, 1e-6, 200)

    @pytest.mark.parametrize("kind", KINDS)
    def test_start_with_a_zero_coordinate(self, kind):
        # an angle starting at 0 gets the initial step 0.00025 instead
        lo, hi = box(kind)
        x0 = [lo_i if lo_i == 0.0 else x for x, lo_i in zip(start(kind, 6), lo)]
        assert 0.0 in x0
        assert_same_search(negative_chsh(kind), x0, lo, hi, 1e-6, 200)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_nan_values(self, kind, seed):
        # NaN ranks last, and no simplex holding one passes the stopping
        # test: the objective falls toward a wall past which it is NaN, so
        # the simplex shrinks onto the wall with NaN vertices in it
        f = negative_chsh(kind)
        lo, hi = box(kind)
        x0 = start(kind, seed)
        wall = x0[-1]
        assert_same_search(
            lambda x: math.nan if x[-1] > wall else f(x) - 10.0 * x[-1],
            x0, lo, hi, 0.05, 300)


class TestTies:
    """numpy's default argsort need not be stable, and scipy ranks the
    vertices with it, so the port must break ties as numpy does."""

    @staticmethod
    def planted(kind):
        return tied(negative_chsh(kind)), start(kind, 1), *box(kind)

    @pytest.mark.parametrize("kind", RELAXED)
    def test_planted_ties_follow_numpy(self, kind, monkeypatch):
        f, x0, lo, hi = self.planted(kind)
        departures = []
        ranked = scan._argsort

        def watched(values):
            order = ranked(values)
            if order != sorted(range(len(values)), key=values.__getitem__):
                departures.append(values)
            return order

        monkeypatch.setattr(scan, "_argsort", watched)
        assert_same_search(f, x0, lo, hi, 1e-6, 300)
        # numpy broke at least one tie otherwise than a stable sort would
        assert departures

    @pytest.mark.parametrize("kind", RELAXED)
    def test_stable_sort_on_ties_departs_from_scipy(self, kind, monkeypatch):
        f, x0, lo, hi = self.planted(kind)
        want = scipy_search(f, x0, lo, hi, 1e-6, 300)
        monkeypatch.setattr(scan, "_argsort", lambda values: sorted(
            range(len(values)), key=values.__getitem__))
        assert port_search(f, x0, lo, hi, 1e-6, 300) != want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True), min_size=1, max_size=9),
           st.floats(-1.0, 0.0), st.floats(0.5, 7.0))
    def test_clip_is_numpys(self, x, lo, hi):
        n = len(x)
        want = np.clip(np.array(x), np.full(n, lo), np.full(n, hi))
        assert bits([scan._clip(x, [lo] * n, [hi] * n)]) == bits([want])


def scipy_maximize(kind, restarts, seed, diameter_tol, maxfev):
    """(evaluations, restart points) of maximize_chsh's search run by scipy."""
    lo, hi = box(kind)
    f, total, finals = negative_chsh(kind), 0, []
    for x0 in starts(kind, seed, restarts):
        points, x = scipy_search(f, x0, lo, hi, diameter_tol, maxfev)
        total += len(points)
        finals.append(x)
    return total, finals


class TestMaximize:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_restarts_match_scipy(self, kind, seed):
        # perfbench's relaxed_search shape: 4 restarts capped at 10 calls
        out = maximize_chsh(kind, restarts=4, seed=seed, maxfev=10)
        assert scipy_maximize(kind, 4, seed, DEFAULT_DIAMETER_TOL, 10) == (
            out.evaluations,
            bits([list(rec.params.values()) for rec in out.trace]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_search_matches_scipy(self, kind):
        out = maximize_chsh(kind, restarts=3, seed=20240801, maxfev=400)
        assert scipy_maximize(kind, 3, 20240801, DEFAULT_DIAMETER_TOL, 400) == (
            out.evaluations,
            bits([list(rec.params.values()) for rec in out.trace]))
        for rec in out.trace:
            assert (rec.ch, rec.chsh) == evaluate_point(
                kind, list(rec.params.values()))
        assert out.crosscheck_residuals == tuple(
            abs(numeric_point(kind, list(rec.params.values()))[0] - rec.ch)
            for rec in out.trace)
