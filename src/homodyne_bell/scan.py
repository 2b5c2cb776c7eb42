"""Parameter grids and derivative-free CHSH maximization over the
constrained setting families.

Three families are searched. `paper_baseline` keeps the phase difference at
pi/2 and the angle difference at 3pi/4, leaving (alpha_sq, xi_plus_eta)
free; it has a closed-form (analytic) evaluation path. The relaxed families
free the four station angles and the per-party oscillator phases
(`relaxed_phases`), and additionally the two per-party strengths
(`relaxed_amplitudes`); oscillator strength never varies between one
party's two settings. Relaxed families are numeric-only.

The maximizer seeds restarts from a Latin hypercube over the search box and
refines each with a Nelder-Mead simplex run down to a fixed simplex
diameter. Everything is deterministic given the seed; restarts are
independent evaluations reduced in restart order.
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

ALPHA_SQ_MIN = 1e-6
ALPHA_SQ_MAX = 6.0

DEFAULT_GRID_BUDGET = 1_000_000
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
        default_path="numeric",
    ),
    "relaxed_amplitudes": ConstraintFamily(
        "relaxed_amplitudes",
        (ParamSpec("alpha1_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("alpha2_sq", ALPHA_SQ_MIN, ALPHA_SQ_MAX),
         ParamSpec("xi", *_ANGLE), ParamSpec("xi2", *_ANGLE),
         ParamSpec("eta", *_ANGLE), ParamSpec("eta2", *_ANGLE),
         ParamSpec("phi1", *_ANGLE), ParamSpec("phi2", *_ANGLE)),
        default_path="numeric",
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


def evaluate_point(kind: str, values: dict[str, float], path: str,
                   tail_eps: float = 1e-12) -> tuple[float, float]:
    """CH and CHSH of one family point along the requested path."""
    family = get_family(kind)
    missing = set(family.names) - set(values)
    if missing:
        raise ValueError(f"missing parameters for {kind}: {sorted(missing)}")
    if kind == "paper_baseline":
        xi, eta = baseline_angles(values["xi_plus_eta"])
        if path == "analytic":
            point = analytic.ClosedFormPoint(xi, eta, REFERENCE_DPHI,
                                             values["alpha_sq"])
            return analytic.ch_closed(point), analytic.chsh_closed(point)
        config = symmetric_config(values["alpha_sq"], REFERENCE_DPHI, tail_eps)
        record = evaluate_quadruple(config, SettingsQuadruple(xi, eta))
        return record.ch, record.chsh
    if path != "numeric":
        raise ValueError(f"family {kind} supports only the numeric path")
    if kind == "relaxed_phases":
        a = math.sqrt(values["alpha_sq"])
        config = ExperimentConfig(a, a, values["phi1"], values["phi2"],
                                  CutoffSpec(tail_eps=tail_eps))
    else:
        config = ExperimentConfig(math.sqrt(values["alpha1_sq"]),
                                  math.sqrt(values["alpha2_sq"]),
                                  values["phi1"], values["phi2"],
                                  CutoffSpec(tail_eps=tail_eps))
    record = evaluate_settings(config, values["xi"], values["xi2"],
                               values["eta"], values["eta2"])
    return record.ch, record.chsh


def grid_scan(kind: str, ranges: dict[str, tuple[float, float, int]],
              path: str | None = None, budget: int = DEFAULT_GRID_BUDGET,
              tail_eps: float = 1e-12) -> list[ScanRecord]:
    """Evaluate every point of the cartesian grid, row-major in parameter
    order, deterministically indexed. Grid axes are linspace(lo, hi, steps)
    inclusive of both ends; a single-step axis degenerates to [lo]."""
    family = get_family(kind)
    if set(ranges) != set(family.names):
        raise ValueError(
            f"ranges must cover exactly {family.names}, got {sorted(ranges)}")
    path = path or family.default_path
    axes = []
    total = 1
    for name in family.names:
        lo, hi, steps = ranges[name]
        if steps < 1:
            raise ValueError("steps must be >= 1")
        axes.append(np.linspace(lo, hi, steps) if steps > 1 else np.array([lo]))
        total *= steps
    if total > budget:
        raise ValueError(
            f"grid has {total} points, exceeding the budget of {budget}; "
            f"raise the budget to at least {total} to run it")
    records = []
    for index, combo in enumerate(
            np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))):
        values = dict(zip(family.names, (float(v) for v in combo)))
        ch, chsh = evaluate_point(kind, values, path, tail_eps)
        records.append(ScanRecord(index, values, ch, chsh, path))
    return records


def crosscheck_records(records: list[ScanRecord], fraction: float, seed: int,
                       kind: str = "paper_baseline",
                       tail_eps: float = 1e-12) -> tuple[int, float]:
    """Re-evaluate a seeded random subsample of analytic records along the
    numeric path; returns (sample size, max |ch_numeric - ch_analytic|)."""
    analytic_records = [r for r in records if r.path == "analytic"]
    if not analytic_records:
        return 0, 0.0
    count = max(1, int(math.ceil(fraction * len(analytic_records))))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(analytic_records), size=count, replace=False)
    worst = 0.0
    for i in sorted(int(p) for p in picks):
        rec = analytic_records[i]
        ch_num, _ = evaluate_point(kind, rec.params, "numeric", tail_eps)
        worst = max(worst, abs(ch_num - rec.ch))
    return count, worst


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best record of a multi-restart search plus its full restart trace and
    the search budget actually used (the claim is only as strong as the
    budget, so the budget is part of the result)."""

    best: ScanRecord
    trace: tuple[ScanRecord, ...]
    evaluations: int
    restarts: int
    seed: int
    diameter_tol: float
    maxfev: int
    search_tail_eps: float


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
    values carry the full truncation budget. Deterministic for a fixed
    seed: restarts run and are recorded in sample order.
    """
    # imported here, its only use: scipy.stats is about half of the cli's
    # import time
    from scipy.stats import qmc

    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    family = get_family(kind)
    path = path or family.default_path
    search_eps = min(search_tail_eps, tail_eps) if path == "analytic" else search_tail_eps
    lo = np.array([p.lo for p in family.params])
    hi = np.array([p.hi for p in family.params])
    sampler = qmc.LatinHypercube(d=len(family.params), seed=seed)
    starts = lo + sampler.random(n=restarts) * (hi - lo)

    evaluations = 0

    def negative_chsh(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        values = dict(zip(family.names, (float(v) for v in x)))
        _, chsh = evaluate_point(kind, values, path, search_eps)
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
        ch, chsh = evaluate_point(kind, values, path, tail_eps)
        trace.append(ScanRecord(r, values, ch, chsh, path))
    best = max(trace, key=lambda rec: (rec.chsh, -rec.index))
    return OptimizeOutcome(best, tuple(trace), evaluations, restarts, seed,
                           diameter_tol, maxfev, search_tail_eps)
