"""Point evaluation and derivative-free CHSH maximization over the
constrained setting families.

Three families are searched. `paper_baseline` keeps the phase difference at
pi/2 and the angle difference at 3pi/4, leaving (alpha_sq, xi_plus_eta)
free. The relaxed families free the four station angles and the per-party
oscillator phases (`relaxed_phases`), and additionally the two per-party
strengths (`relaxed_amplitudes`); oscillator strength never varies between
one party's two settings. FAMILIES holds each family's search box, a tuple
of ParamSpec (name and bounds), by kind.

A point of a family is its values in the order of its box, a simplex
vertex as it is. station_params unpacks it into the eight station
parameters p = (alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2), the
one parameter layer of both routes. The search runs on the plain-float closed
forms, analytic.ch_chsh_point(*p), one evaluate_point call per evaluation
for every family; the truncated Fock numerics check them on the same p as
bell.evaluate_settings(ExperimentConfig(*p[:4], cutoff), *p[4:])
(numeric_point). The paper's printed forms are only tested, by verify.

The maximizer seeds restarts from a Latin hypercube over the search box and
refines each with a Nelder-Mead simplex until every vertex is within the
constant DEFAULT_DIAMETER_TOL of the best vertex in every coordinate
(scipy's xatol; not a diameter bound, though the optimize report names it
simplex_diameter_tol). Each restart's final point is re-evaluated on the
numerics, and its |ch_numeric - ch_analytic| is part of the result, for
the caller to judge. Everything is deterministic given the seed; restarts
are independent evaluations reduced in restart order.

The hypercube is drawn in numpy (latin_hypercube) and reproduces
scipy.stats.qmc.LatinHypercube draw for draw. The simplex runs on plain
Python floats (_nelder_mead), a port of scipy.optimize.minimize's bounded,
non-adaptive Nelder-Mead that passes the same points to the objective in
the same order and ends on the same x, so the package runs without scipy.
Vertices are ranked by numpy.argsort itself, as scipy ranks them: numpy's
default sort need not be stable, and a stable sort breaks ties otherwise.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import analytic
from .bell import (REFERENCE_DPHI, REFERENCE_XI_MINUS_ETA, SettingsQuadruple,
                   evaluate_settings)
from .fock import CutoffSpec
from .optics import ExperimentConfig

ALPHA_SQ_MIN = 1e-6
ALPHA_SQ_MAX = 6.0

DEFAULT_DIAMETER_TOL = 1e-10
DEFAULT_MAXFEV = 2000


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float


_ANGLE = (0.0, 2.0 * math.pi)
_RELAXED_ANGLES = tuple(ParamSpec(name, *_ANGLE) for name in
                        ("xi", "xi2", "eta", "eta2", "phi1", "phi2"))
FAMILIES: dict[str, tuple[ParamSpec, ...]] = {
    "paper_baseline": (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
                       ParamSpec("xi_plus_eta", *_ANGLE)),
    "relaxed_phases": (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
                       *_RELAXED_ANGLES),
    "relaxed_amplitudes": (ParamSpec("alpha1_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
                           ParamSpec("alpha2_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
                           *_RELAXED_ANGLES),
}


@dataclass(frozen=True)
class ScanRecord:
    """One evaluated point: free parameters and its CH/CHSH values."""

    index: int
    params: dict[str, float]
    ch: float
    chsh: float


def get_family(kind: str) -> tuple[ParamSpec, ...]:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown family {kind!r}; choose from {sorted(FAMILIES)}") from None


def station_params(kind: str, x: Sequence[float]) -> tuple[float, ...]:
    """(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2) of a family
    point. A paper_baseline point is the standard quadruple
    (bell.SettingsQuadruple) of xi_plus_eta and REFERENCE_XI_MINUS_ETA at
    phase difference REFERENCE_DPHI. A point of the wrong length raises
    ValueError."""
    if kind == "paper_baseline":
        a_sq, xi_plus_eta = x
        quad = SettingsQuadruple.from_sum_difference(xi_plus_eta,
                                                     REFERENCE_XI_MINUS_ETA)
        return (a_sq, a_sq, 0.0, REFERENCE_DPHI, *quad.settings)
    if kind == "relaxed_phases":
        a_sq, xi, xi2, eta, eta2, phi1, phi2 = x
        return (a_sq, a_sq, phi1, phi2, xi, xi2, eta, eta2)
    if kind == "relaxed_amplitudes":
        a1_sq, a2_sq, xi, xi2, eta, eta2, phi1, phi2 = x
        return (a1_sq, a2_sq, phi1, phi2, xi, xi2, eta, eta2)
    raise ValueError(f"unknown family {kind!r}")


def evaluate_point(kind: str, x: Sequence[float]) -> tuple[float, float]:
    """CH and CHSH of one family point in closed form: ch_chsh_point of its
    station parameters, for every family."""
    return analytic.ch_chsh_point(*station_params(kind, x))


def numeric_point(kind: str, x: Sequence[float],
                  cutoff: CutoffSpec = CutoffSpec()) -> tuple[float, float]:
    """CH and CHSH of one family point from the truncated Fock numerics
    (bell.evaluate_settings) under the cutoff policy."""
    params = station_params(kind, x)
    record = evaluate_settings(ExperimentConfig(*params[:4], cutoff), *params[4:])
    return record.ch, record.chsh


def latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points of a Latin hypercube in [0, 1)^d: each column holds one
    point in each stratum [k/n, (k+1)/n). The same draws, in the same
    order, as scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n=n),
    so the result equals it bit for bit."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(size=(n, d))
    strata = np.tile(np.arange(1, n + 1), (d, 1))
    for row in strata:
        rng.shuffle(row)
    return (strata.T - offsets) / n


# the trial points' c (see _nelder_mead) and the shrink factor sigma
_REFLECT, _EXPAND, _CONTRACT, _CONTRACT_INSIDE = 1, 2, 0.5, -0.5
_SHRINK = 0.5
_NONZDELT = 1 + 0.05  # an initial vertex's nonzero coordinate times this
_ZDELT = 0.00025      # or this in place of a zero coordinate


class _BudgetSpent(Exception):
    """The evaluation budget ran out before the objective was called."""


def _clip(x: list[float], lo: list[float], hi: list[float]) -> list[float]:
    """numpy.clip(x, lo, hi) for lo < hi, signed zeros and NaN included: a
    value equal to a bound becomes the bound."""
    return [a if v <= a else (b if v >= b else v) for v, a, b in zip(x, lo, hi)]


def _argsort(values: list[float]) -> list[int]:
    """numpy.argsort(values), the ranking scipy uses; numpy's default sort
    need not be stable, so a stable sort would break ties otherwise."""
    return np.argsort(np.array(values)).tolist()


def _nelder_mead(f, x0: list[float], lo: list[float], hi: list[float],
                 xatol: float, maxfev: int) -> tuple[list[float], int]:
    """Minimize f over the box [lo, hi] from x0; returns the best vertex and
    the number of f calls.

    A port of scipy.optimize.minimize(f, x0, method="Nelder-Mead",
    bounds=Bounds(lo, hi), options={"xatol": xatol, "fatol": inf,
    "maxfev": maxfev}) to plain floats: it passes f the same points in the
    same order, at most maxfev of them, and returns the same x. f gets each
    point as a list it must not modify.

    Every arithmetic step is scipy's, with its non-adaptive coefficients:
    reflection rho = 1, expansion chi = 2, contraction psi = 1/2, shrink
    sigma = 1/2. The centroid xbar of all vertices but the worst is a
    running sum over the vertices, divided by the dimension (builtin sum
    may compensate). A trial point is (1 + c) xbar - c worst with c = rho,
    rho chi, psi rho or -psi, which rounds as scipy's expression for each
    does (x - (-y) is x + y exactly), and is clipped to the box. A step is
    accepted on scipy's < and <= comparisons, and the vertices are ranked
    after every step, the initial simplex twice, as scipy ranks them. The
    search stops once every coordinate of every vertex is within xatol of
    the best vertex's and no difference of the best value and another is
    NaN (scipy's fatol = inf test). When the budget runs out inside a step,
    the simplex keeps what scipy keeps: the unevaluated vertices of an
    initial simplex keep f = inf, and a shrink keeps its moved vertex with
    the old value.
    """
    n = len(x0)
    calls = 0

    def evaluate(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(x)

    def trial(c, xbar, worst):
        x = _clip([(1 + c) * m - c * w for m, w in zip(xbar, worst)], lo, hi)
        return x, evaluate(x)

    def ranked(sim, fsim):
        order = _argsort(fsim)
        return [sim[i] for i in order], [fsim[i] for i in order]

    x0 = _clip(x0, lo, hi)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = _NONZDELT * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # vertices pushed past an upper bound are reflected inside, then clipped
    sim = [_clip([2 * h - v if v > h else v for v, h in zip(row, hi)], lo, hi)
           for row in sim]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = ranked(*ranked(sim, fsim))

    while calls < maxfev:
        best = sim[0]
        if (all(abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best))
                and not any(math.isnan(fsim[0] - g) for g in fsim[1:])):
            break
        try:
            xbar = [reduce(operator.add, col) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr, fxr = trial(_REFLECT, xbar, worst)
            if fxr < fsim[0]:
                xe, fxe = trial(_EXPAND, xbar, worst)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc, fxc = trial(_CONTRACT, xbar, worst)
                    shrink = not fxc <= fxr
                else:
                    xc, fxc = trial(_CONTRACT_INSIDE, xbar, worst)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = _clip([b + _SHRINK * (v - b)
                                        for v, b in zip(sim[j], best)], lo, hi)
                        fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = ranked(sim, fsim)
    return sim[0], calls


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best record of a multi-restart search plus its full restart trace and
    the search budget actually used (the claim is only as strong as the
    budget, so the budget is part of the result).

    crosscheck_residuals holds each restart record's |ch_numeric -
    ch_analytic| in trace order, unreduced, for the caller to judge."""

    best: ScanRecord
    trace: tuple[ScanRecord, ...]
    evaluations: int
    restarts: int
    maxfev: int
    crosscheck_residuals: tuple[float, ...]


def maximize_chsh(kind: str, restarts: int, seed: int,
                  maxfev: int = DEFAULT_MAXFEV,
                  cutoff: CutoffSpec = CutoffSpec()) -> OptimizeOutcome:
    """Maximize CHSH over a family's search box on the closed forms.

    Each restart starts from one Latin-hypercube sample and refines with a
    bounded Nelder-Mead simplex (_nelder_mead, scipy's search on plain
    floats, its vertices ranked by numpy.argsort as scipy ranks them, ties
    included), stopping once every vertex is within DEFAULT_DIAMETER_TOL of
    the best vertex in every coordinate (its xatol) or at maxfev
    evaluations; each vertex is passed to evaluate_point as it is. Each
    restart's final point becomes a record, named once, through one more
    evaluate_point call, so a search calls evaluate_point exactly
    evaluations + restarts times, and is re-evaluated by numeric_point under
    the cutoff policy. Deterministic for a fixed seed: restarts run and are
    recorded in sample order.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    box = get_family(kind)
    names = [p.name for p in box]
    lo = np.array([p.lo for p in box])
    hi = np.array([p.hi for p in box])
    starts = lo + latin_hypercube(restarts, len(box), seed) * (hi - lo)
    lo, hi = lo.tolist(), hi.tolist()

    def negative_chsh(x: list[float]) -> float:
        return -evaluate_point(kind, x)[1]

    evaluations = 0
    trace, residuals = [], []
    for r, start in enumerate(starts.tolist()):
        x, calls = _nelder_mead(negative_chsh, start, lo, hi,
                                DEFAULT_DIAMETER_TOL, maxfev)
        evaluations += calls
        ch, chsh = evaluate_point(kind, x)
        trace.append(ScanRecord(r, dict(zip(names, x)), ch, chsh))
        residuals.append(abs(numeric_point(kind, x, cutoff)[0] - ch))
    best = max(trace, key=lambda rec: (rec.chsh, -rec.index))
    return OptimizeOutcome(best, tuple(trace), evaluations, restarts, maxfev,
                           tuple(residuals))
