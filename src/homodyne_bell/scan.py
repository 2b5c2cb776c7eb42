"""Point evaluation and derivative-free CHSH maximization over the
constrained setting families.

Three families are searched. `paper_baseline` keeps the phase difference at
pi/2 and the angle difference at 3pi/4, leaving (alpha_sq, xi_plus_eta)
free. The relaxed families free the four station angles and the per-party
oscillator phases (`relaxed_phases`), and additionally the two per-party
strengths (`relaxed_amplitudes`); oscillator strength never varies between
one party's two settings. Every family has two evaluation paths: the
closed forms of the analytic module (the default) and the truncated Fock
numerics of the bell module.

The maximizer seeds restarts from a Latin hypercube over the search box and
refines each with a Nelder-Mead simplex run down to a fixed simplex
diameter. On the analytic path each restart's final point is re-evaluated
on the numeric path at the strict truncation budget, and the largest
|ch_numeric - ch_analytic| is part of the result. Everything is
deterministic given the seed; restarts are independent evaluations reduced
in restart order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as _sciopt

from . import analytic
from .bell import (
    REFERENCE_DPHI,
    REFERENCE_XI_MINUS_ETA,
    SettingsQuadruple,
    evaluate_quadruple,
    evaluate_settings,
)
from .optics import ExperimentConfig, symmetric_config
from .fock import CutoffSpec

TWO_PI = 2.0 * math.pi

PATHS = ("analytic", "numeric")

ALPHA_SQ_MIN = 1e-6
ALPHA_SQ_MAX = 6.0

DEFAULT_DIAMETER_TOL = 1e-10
DEFAULT_MAXFEV = 400
# truncation budget used while the simplex is moving; every reported record
# is re-evaluated at the strict budget afterwards
DEFAULT_SEARCH_TAIL_EPS = 1e-6


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class ConstraintFamily:
    kind: str
    params: tuple[ParamSpec, ...]
    default_path: str

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)


_ANGLE = (0.0, TWO_PI)
FAMILIES: dict[str, ConstraintFamily] = {
    "paper_baseline": ConstraintFamily(
        "paper_baseline",
        (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("xi_plus_eta", *_ANGLE)),
        default_path="analytic",
    ),
    "relaxed_phases": ConstraintFamily(
        "relaxed_phases",
        (ParamSpec("alpha_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("xi", *_ANGLE), ParamSpec("xi2", *_ANGLE),
         ParamSpec("eta", *_ANGLE), ParamSpec("eta2", *_ANGLE),
         ParamSpec("phi1", *_ANGLE), ParamSpec("phi2", *_ANGLE)),
        default_path="analytic",
    ),
    "relaxed_amplitudes": ConstraintFamily(
        "relaxed_amplitudes",
        (ParamSpec("alpha1_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("alpha2_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("xi", *_ANGLE), ParamSpec("xi2", *_ANGLE),
         ParamSpec("eta", *_ANGLE), ParamSpec("eta2", *_ANGLE),
         ParamSpec("phi1", *_ANGLE), ParamSpec("phi2", *_ANGLE)),
        default_path="analytic",
    ),
}


@dataclass(frozen=True)
class ScanRecord:
    """One evaluated point: free parameters, CH/CHSH values, and provenance."""

    index: int
    params: dict[str, float]
    ch: float
    chsh: float
    path: str


def get_family(kind: str) -> ConstraintFamily:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown family {kind!r}; choose from {sorted(FAMILIES)}") from None


def baseline_angles(xi_plus_eta: float,
                    xi_minus_eta: float = REFERENCE_XI_MINUS_ETA) -> tuple[float, float]:
    return ((xi_plus_eta + xi_minus_eta) / 2.0,
            (xi_plus_eta - xi_minus_eta) / 2.0)


def _station_params(kind: str, values: dict[str, float]) -> tuple[float, ...]:
    """(alpha1_sq, alpha2_sq, phi1, phi2, xi, xi2, eta, eta2) of a relaxed
    family point."""
    if kind == "relaxed_phases":
        a1_sq = a2_sq = values["alpha_sq"]
    else:
        a1_sq, a2_sq = values["alpha1_sq"], values["alpha2_sq"]
    return (a1_sq, a2_sq, values["phi1"], values["phi2"],
            values["xi"], values["xi2"], values["eta"], values["eta2"])


def _numeric_point(kind: str, values: dict[str, float],
                   tail_eps: float) -> tuple[float, float]:
    """CH and CHSH of one family point from the truncated Fock numerics."""
    if kind == "paper_baseline":
        xi, eta = baseline_angles(values["xi_plus_eta"])
        config = symmetric_config(values["alpha_sq"], REFERENCE_DPHI, tail_eps)
        record = evaluate_quadruple(config, SettingsQuadruple(xi, eta))
        return record.ch, record.chsh
    a1_sq, a2_sq, phi1, phi2, xi, xi2, eta, eta2 = _station_params(kind, values)
    config = ExperimentConfig(math.sqrt(a1_sq), math.sqrt(a2_sq), phi1, phi2,
                              CutoffSpec(tail_eps=tail_eps))
    record = evaluate_settings(config, xi, xi2, eta, eta2)
    return record.ch, record.chsh


def evaluate_point(kind: str, values: dict[str, float], path: str,
                   tail_eps: float = 1e-12) -> tuple[float, float]:
    """CH and CHSH of one family point along the requested path; tail_eps
    is the truncation budget of the numeric path."""
    family = get_family(kind)
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; choose from {list(PATHS)}")
    missing = set(family.names) - set(values)
    if missing:
        raise ValueError(f"missing parameters for {kind}: {sorted(missing)}")
    if path == "numeric":
        return _numeric_point(kind, values, tail_eps)
    if kind == "paper_baseline":
        xi, eta = baseline_angles(values["xi_plus_eta"])
        point = analytic.ClosedFormPoint(xi, eta, REFERENCE_DPHI,
                                         values["alpha_sq"])
        return analytic.ch_closed(point), analytic.chsh_closed(point)
    ch, chsh = analytic.ch_chsh_general(*_station_params(kind, values))
    return float(ch), float(chsh)


def crosscheck_records(records: list[ScanRecord], fraction: float, seed: int,
                       kind: str = "paper_baseline",
                       tail_eps: float = 1e-12) -> tuple[int, float]:
    """Re-evaluate a seeded random subsample of analytic records along the
    numeric path; returns (sample size, max |ch_numeric - ch_analytic|).
    The numeric values come from the numeric path's own helper, so the
    check adds no evaluate_point calls."""
    analytic_records = [r for r in records if r.path == "analytic"]
    if not analytic_records:
        return 0, 0.0
    count = max(1, int(math.ceil(fraction * len(analytic_records))))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(analytic_records), size=count, replace=False)
    worst = 0.0
    for i in sorted(int(p) for p in picks):
        rec = analytic_records[i]
        ch_num, _ = _numeric_point(kind, rec.params, tail_eps)
        worst = max(worst, abs(ch_num - rec.ch))
    return count, worst


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best record of a multi-restart search plus its full restart trace and
    the search budget actually used (the claim is only as strong as the
    budget, so the budget is part of the result).

    crosscheck_points restart records of an analytic search were
    re-evaluated on the numeric path at the strict truncation budget, and
    crosscheck_residual is their largest |ch_numeric - ch_analytic| (0 and
    0.0 on the numeric path)."""

    best: ScanRecord
    trace: tuple[ScanRecord, ...]
    evaluations: int
    restarts: int
    seed: int
    diameter_tol: float
    maxfev: int
    search_tail_eps: float
    crosscheck_points: int
    crosscheck_residual: float


def maximize_chsh(kind: str, restarts: int, seed: int,
                  path: str | None = None,
                  diameter_tol: float = DEFAULT_DIAMETER_TOL,
                  maxfev: int = DEFAULT_MAXFEV,
                  tail_eps: float = 1e-12,
                  search_tail_eps: float = DEFAULT_SEARCH_TAIL_EPS) -> OptimizeOutcome:
    """Maximize CHSH over a family's search box.

    Each restart starts from one Latin-hypercube sample and refines with a
    bounded Nelder-Mead simplex, stopping once the simplex diameter falls
    below diameter_tol (or at maxfev evaluations). The numeric path runs
    with the relaxed search_tail_eps while the simplex is moving; every
    reported record is then re-evaluated at the strict tail_eps, so record
    values carry the full truncation budget. On the analytic path every
    restart record is also re-evaluated on the numeric path at tail_eps
    (crosscheck_records at fraction 1). Deterministic for a fixed seed:
    restarts run and are recorded in sample order.
    """
    # imported here, its only use: scipy.stats is about half of the cli's
    # import time
    from scipy.stats import qmc

    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    family = get_family(kind)
    path = path or family.default_path
    lo = np.array([p.lo for p in family.params])
    hi = np.array([p.hi for p in family.params])
    sampler = qmc.LatinHypercube(d=len(family.params), seed=seed)
    starts = lo + sampler.random(n=restarts) * (hi - lo)

    evaluations = 0

    def negative_chsh(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        values = dict(zip(family.names, (float(v) for v in x)))
        _, chsh = evaluate_point(kind, values, path, search_tail_eps)
        return -chsh

    trace = []
    for r in range(restarts):
        result = _sciopt.minimize(
            negative_chsh, starts[r], method="Nelder-Mead",
            bounds=_sciopt.Bounds(lo, hi),
            options={"xatol": diameter_tol, "fatol": float("inf"),
                     "maxfev": maxfev},
        )
        values = dict(zip(family.names, (float(v) for v in result.x)))
        # kept on the analytic path too, where tail_eps changes nothing: a
        # search then calls evaluate_point exactly evaluations + restarts
        # times on every path, the count perfbench's traced run checks
        ch, chsh = evaluate_point(kind, values, path, tail_eps)
        trace.append(ScanRecord(r, values, ch, chsh, path))
    best = max(trace, key=lambda rec: (rec.chsh, -rec.index))
    checked, residual = crosscheck_records(trace, 1.0, seed, kind, tail_eps)
    return OptimizeOutcome(best, tuple(trace), evaluations, restarts, seed,
                           diameter_tol, maxfev, search_tail_eps,
                           checked, residual)
