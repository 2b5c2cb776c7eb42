"""Point evaluation and derivative-free CHSH maximization over the
constrained setting families.

Three families are searched. `paper_baseline` keeps the phase difference at
pi/2 and the angle difference at 3pi/4, leaving (alpha_sq, xi_plus_eta)
free. The relaxed families free the four station angles and the per-party
oscillator phases (`relaxed_phases`), and additionally the two per-party
strengths (`relaxed_amplitudes`); oscillator strength never varies between
one party's two settings.

A point of any family maps to the eight station parameters p = (alpha1_sq,
alpha2_sq, phi1, phi2, xi, xi2, eta, eta2) by station_params, the one
parameter layer of both routes. The search runs on the plain-float closed
forms, analytic.ch_chsh_point(*p), one evaluate_point call per evaluation
for every family; the truncated Fock numerics check them on the same p as
bell.evaluate_settings(ExperimentConfig(*p[:4], cutoff), *p[4:])
(numeric_point). The paper's printed forms are only tested, by verify.

The maximizer seeds restarts from a Latin hypercube over the search box and
refines each with a Nelder-Mead simplex run down to a fixed simplex
diameter. Each restart's final point is re-evaluated on the numerics, and
the largest |ch_numeric - ch_analytic| is part of the result. Everything is
deterministic given the seed; restarts are independent evaluations reduced
in restart order.

The hypercube is drawn in numpy (latin_hypercube) and reproduces
scipy.stats.qmc.LatinHypercube draw for draw. scipy.optimize is imported
only when a search runs, so importing the package loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic
from .bell import (REFERENCE_DPHI, REFERENCE_XI_MINUS_ETA, SettingsQuadruple,
                   evaluate_settings)
from .fock import CutoffSpec
from .optics import ExperimentConfig

ALPHA_SQ_MIN = 1e-6
ALPHA_SQ_MAX = 6.0

DEFAULT_DIAMETER_TOL = 1e-10
DEFAULT_MAXFEV = 400


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class ConstraintFamily:
    kind: str
    params: tuple[ParamSpec, ...]

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)


_ANGLE = (0.0, 2.0 * math.pi)
_RELAXED_ANGLES = tuple(ParamSpec(name, *_ANGLE) for name in
                        ("xi", "xi2", "eta", "eta2", "phi1", "phi2"))
FAMILIES: dict[str, ConstraintFamily] = {
    "paper_baseline": ConstraintFamily(
        "paper_baseline",
        (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("xi_plus_eta", *_ANGLE)),
    ),
    "relaxed_phases": ConstraintFamily(
        "relaxed_phases",
        (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),) + _RELAXED_ANGLES,
    ),
    "relaxed_amplitudes": ConstraintFamily(
        "relaxed_amplitudes",
        (ParamSpec("alpha1_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("alpha2_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX)) + _RELAXED_ANGLES,
    ),
}


@dataclass(frozen=True)
class ScanRecord:
    """One evaluated point: free parameters and its CH/CHSH values."""

    index: int
    params: dict[str, float]
    ch: float
    chsh: float


def get_family(kind: str) -> ConstraintFamily:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown family {kind!r}; choose from {sorted(FAMILIES)}") from None


def station_params(kind: str, values: dict[str, float]) -> tuple[float, ...]:
    """(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2) of a family
    point. A paper_baseline point is the standard quadruple
    (bell.SettingsQuadruple) of xi_plus_eta and REFERENCE_XI_MINUS_ETA at
    phase difference REFERENCE_DPHI."""
    missing = set(get_family(kind).names) - set(values)
    if missing:
        raise ValueError(f"missing parameters for {kind}: {sorted(missing)}")
    if kind == "paper_baseline":
        a_sq = values["alpha_sq"]
        quad = SettingsQuadruple.from_sum_difference(values["xi_plus_eta"],
                                                     REFERENCE_XI_MINUS_ETA)
        return (a_sq, a_sq, 0.0, REFERENCE_DPHI, *quad.settings)
    if kind == "relaxed_phases":
        a1_sq = a2_sq = values["alpha_sq"]
    else:
        a1_sq, a2_sq = values["alpha1_sq"], values["alpha2_sq"]
    return (a1_sq, a2_sq, values["phi1"], values["phi2"],
            values["xi"], values["xi2"], values["eta"], values["eta2"])


def evaluate_point(kind: str, values: dict[str, float]) -> tuple[float, float]:
    """CH and CHSH of one family point in closed form: ch_chsh_point of its
    station parameters, for every family."""
    return analytic.ch_chsh_point(*station_params(kind, values))


def numeric_point(kind: str, values: dict[str, float],
                  cutoff: CutoffSpec = CutoffSpec()) -> tuple[float, float]:
    """CH and CHSH of one family point from the truncated Fock numerics
    (bell.evaluate_settings) under the cutoff policy."""
    params = station_params(kind, values)
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


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best record of a multi-restart search plus its full restart trace and
    the search budget actually used (the claim is only as strong as the
    budget, so the budget is part of the result).

    crosscheck_residual is the largest |ch_numeric - ch_analytic| over the
    restart records."""

    best: ScanRecord
    trace: tuple[ScanRecord, ...]
    evaluations: int
    restarts: int
    seed: int
    diameter_tol: float
    maxfev: int
    crosscheck_residual: float


def maximize_chsh(kind: str, restarts: int, seed: int,
                  diameter_tol: float = DEFAULT_DIAMETER_TOL,
                  maxfev: int = DEFAULT_MAXFEV,
                  cutoff: CutoffSpec = CutoffSpec()) -> OptimizeOutcome:
    """Maximize CHSH over a family's search box on the closed forms.

    Each restart starts from one Latin-hypercube sample and refines with a
    bounded Nelder-Mead simplex, stopping once the simplex diameter falls
    below diameter_tol (or at maxfev evaluations). Each restart's final
    point becomes a record through one more evaluate_point call, so a
    search calls evaluate_point exactly evaluations + restarts times, and
    is re-evaluated by numeric_point under the cutoff policy.
    Deterministic for a fixed seed: restarts run and are recorded in sample
    order.
    """
    # imported here, its only use, so that importing the package or running
    # any other command loads no scipy
    from scipy import optimize as _sciopt

    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    family = get_family(kind)
    lo = np.array([p.lo for p in family.params])
    hi = np.array([p.hi for p in family.params])
    starts = lo + latin_hypercube(restarts, len(family.params), seed) * (hi - lo)

    evaluations = 0

    def negative_chsh(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        _, chsh = evaluate_point(kind, dict(zip(family.names, map(float, x))))
        return -chsh

    bounds = _sciopt.Bounds(lo, hi)
    trace = []
    residual = 0.0
    for r in range(restarts):
        result = _sciopt.minimize(
            negative_chsh, starts[r], method="Nelder-Mead", bounds=bounds,
            options={"xatol": diameter_tol, "fatol": float("inf"),
                     "maxfev": maxfev},
        )
        values = dict(zip(family.names, map(float, result.x)))
        ch, chsh = evaluate_point(kind, values)
        trace.append(ScanRecord(r, values, ch, chsh))
        residual = max(residual, abs(numeric_point(kind, values, cutoff)[0] - ch))
    best = max(trace, key=lambda rec: (rec.chsh, -rec.index))
    return OptimizeOutcome(best, tuple(trace), evaluations, restarts, seed,
                           diameter_tol, maxfev, residual)
