"""Command-line interface: the verification suite (its check table is
CHECK_GROUPS), figure-grid emission, constrained CHSH maximization, and
state-split reports.

Subcommands: verify, figure, optimize, split. Exit codes are stable:
0 success, 1 verification failure, 2 configuration error. All outputs are
deterministic for a fixed seed; floats are emitted at 9 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, analytic, scan
from .bell import (
    SettingsQuadruple,
    chsh_decomposition,
    evaluate_quadruple,
    lambda_cross_terms,
    reference_quadruple,
    split_state,
    tsirelson_two_qubit,
    REFERENCE_DPHI,
    REFERENCE_XI_MINUS_ETA,
)
from .fock import MAX_ALPHA_SQ, CutoffSpec, poisson_mass
from .optics import ExperimentConfig, run_network, symmetric_config
from .scan import ALPHA_SQ_MAX, FAMILIES, get_family, maximize_chsh

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2

PHASE_CONVENTION = "phi2 - phi1"
VIOLATION_MARGIN = 1e-6
# verify draws alpha_sq from (0, VERIFY_ALPHA_SQ_MAX]
VERIFY_ALPHA_SQ_MAX = 4.0
# fixed tolerances, none a setting; ORACLE_TOL bounds numeric vs closed form
ORACLE_TOL = 1e-9
IDENTITY_TOL = 1e-12
NOSIGNAL_TOL = 1e-10
UNITARITY_TOL = 1e-10
# optimize draws a restarts x dimension hypercube before its first restart,
# so the count is capped where the config is loaded
MAX_RESTARTS = 100_000
# figure refuses a grid of more points than this before the CSV is opened
MAX_GRID_POINTS = 1_000_000
# and a larger |xi_minus_eta| (radians): its spot-checks' rounding grows with
# it, to worst residuals of 3.7e-13 at 1e6 and 2.4e-9 > ORACLE_TOL at 1e9
MAX_XI_MINUS_ETA = 1e6
CSV_HEADER = "alpha_sq,xi_plus_eta,ch,chsh"


class ConfigError(Exception):
    pass


def _typed_value(name: str, value, hint):
    """value checked against the field annotation hint (float, int, or
    either with None): floats take ints, ints take integral floats (returned
    as int), neither takes a bool."""
    allowed = typing.get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if float in allowed:
            return value
        if int in allowed and float(value).is_integer():
            return int(value)
    kind = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Run settings merged from defaults, an optional JSON file, and flags."""

    alpha_sq: float = 1.0
    phi1: float = 0.0
    phi2: float = math.pi / 2.0
    cutoff_eps: float = 1e-12
    cutoff_n: int | None = None
    seed: int = 20240801
    verify_points: int = 100
    verify_draws: int = 50
    figure_alpha_sq_max: float = 2.0
    crosscheck_fraction: float = 0.01
    restarts: int = 32

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed_value(
                f.name, getattr(self, f.name), _RUN_CONFIG_TYPES[f.name]))
        if not 0 < self.cutoff_eps < math.inf:  # NaN fails too
            raise ConfigError("cutoff_eps must be > 0 and finite")
        for name in ("verify_points", "verify_draws", "restarts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.restarts > MAX_RESTARTS:
            raise ConfigError(f"restarts must be <= {MAX_RESTARTS}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.crosscheck_fraction <= 1.0:
            raise ConfigError("crosscheck_fraction must be in [0, 1], "
                              f"got {self.crosscheck_fraction}")
        # figure streams its rows into the open CSV, so a range the closed
        # forms or the spot-checks cannot evaluate is refused here, not
        # mid-grid
        if not 0.0 <= self.figure_alpha_sq_max <= MAX_ALPHA_SQ:
            raise ConfigError(
                f"figure_alpha_sq_max must be in [0, {MAX_ALPHA_SQ:g}], "
                f"got {self.figure_alpha_sq_max}")
        # reject a bad drive (NaN, negative, infinite, beyond the float-safe
        # range) or a cutoff the cutoff policy refuses before any command
        # runs; the policy's n_max and tail_eps are cutoff_n and cutoff_eps
        try:
            self.experiment()
            self.provenance_cutoff()
        except ValueError as exc:
            msg = str(exc).replace("n_max", "cutoff_n").replace(
                "tail_eps", "cutoff_eps")
            raise ConfigError(f"invalid experiment settings: {msg}") from exc

    def cutoff_spec(self) -> CutoffSpec:
        """The cutoff policy of every numeric config a command builds."""
        return CutoffSpec(self.cutoff_n, self.cutoff_eps)

    def provenance_cutoff(self, alpha_sq_max: float | None = None) -> int:
        """Per-mode cutoff reported in provenance: the one the cutoff policy
        gives the largest drive a command evaluates, alpha_sq_max (default:
        the config's alpha_sq)."""
        if alpha_sq_max is None:
            alpha_sq_max = self.alpha_sq
        return self.cutoff_spec().resolve(alpha_sq_max)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(self.alpha_sq, self.alpha_sq, self.phi1,
                                self.phi2, self.cutoff_spec())


_RUN_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags,
    checked once: a flag replaces a bad file value before any check."""
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(payload)
    for key in ("cutoff_eps", "seed", "restarts"):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def _round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_round9(payload), indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def provenance(cfg: RunConfig, args: argparse.Namespace,
               alpha_sq_max: float | None = None) -> dict:
    """Provenance block of a report. cutoff_n is the cutoff of the largest
    drive the command evaluates, alpha_sq_max (see
    RunConfig.provenance_cutoff)."""
    return {
        "version": __version__,
        "seed": cfg.seed,
        "cutoff_eps": cfg.cutoff_eps,
        "cutoff_n": cfg.provenance_cutoff(alpha_sq_max),
        "tolerances": {
            "oracle": ORACLE_TOL,
            "identity": IDENTITY_TOL,
            "no_signalling": NOSIGNAL_TOL,
            "unitarity": UNITARITY_TOL,
        },
        analytic.LOCAL_EXPONENT_DECISION_KEY: analytic.LOCAL_EXPONENT_CORRECTED,
        "phase_difference_convention": PHASE_CONVENTION,
        "angles_unit": "radians",
        "degrees_flag": bool(getattr(args, "degrees", False)),
    }


# ---------------------------------------------------------------------------
# verify

def _check(name: str, residual: float, tol: float, n: int) -> dict:
    return {"name": name, "passed": bool(residual <= tol),
            "max_residual": residual, "tolerance": tol, "points": n}


def _network_oracle_checks(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    """Closed forms against the brute-force network at random points: free
    phases, the stronger station's alpha_sq on (0, max], the other's below."""
    spec = cfg.cutoff_spec()
    worst_joint = worst_local = worst_margin = 0.0
    for _ in range(cfg.verify_points):
        strong = VERIFY_ALPHA_SQ_MAX * (1.0 - rng.random())
        weak = strong * rng.random()
        a1_sq, a2_sq = (strong, weak) if rng.random() < 0.5 else (weak, strong)
        phi1, phi2, xi, eta = rng.uniform(0.0, 2.0 * math.pi, 4)
        p_a, p_b, p_ab, _ = run_network(
            ExperimentConfig(a1_sq, a2_sq, phi1, phi2, spec), xi, eta)
        c_a, c_b, c_ab = analytic.probs_point(a1_sq, a2_sq, phi1, phi2, xi, eta)
        worst_joint = max(worst_joint, abs(p_ab - c_ab))
        worst_local = max(worst_local, abs(p_a - c_a), abs(p_b - c_b))
        # the readout gives p_ab <= min(p_a, p_b) by construction, so the
        # bound tests the closed forms' triple
        worst_margin = max(worst_margin, p_ab - min(p_a, p_b),
                           c_ab - min(c_a, c_b))
    n = cfg.verify_points
    return [_check("joint_oracle_agreement", worst_joint, ORACLE_TOL, n),
            _check("local_oracle_agreement", worst_local, ORACLE_TOL, n),
            _check("joint_within_marginals", worst_margin, 1e-15, n)]


def _exponent_checks(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    """The local-probability exponent adjudicated by the brute force."""
    spec = cfg.cutoff_spec()
    corrected_resid = printed_resid = 0.0
    for a2, x in ((0.5, 1.2), (1.0, math.pi / 2.0), (2.0, 2.4)):
        p = run_network(symmetric_config(a2, 0.7, spec), x, 0.9)[0]
        corrected = analytic.probs_point(a2, a2, 0.0, 0.7, x, 0.9)[0]
        corrected_resid = max(corrected_resid, abs(p - corrected))
        printed_resid = max(printed_resid,
                            abs(p - analytic.local_prob_printed_variant(x, a2)))
    corrected_wins = corrected_resid <= ORACLE_TOL < printed_resid
    printed_wins = printed_resid <= ORACLE_TOL < corrected_resid
    decision = (analytic.LOCAL_EXPONENT_CORRECTED if corrected_resid <= printed_resid
                else analytic.LOCAL_EXPONENT_PRINTED)
    return [{"name": "local_exponent_adjudication", "passed": bool(corrected_wins),
             "max_residual": corrected_resid, "tolerance": ORACLE_TOL, "points": 3,
             "decision": decision, "printed_variant_residual": printed_resid,
             "escalation": None if (corrected_wins or not printed_wins) else
             "brute force favors the printed exponent; the network "
             "convention needs re-derivation before results are used"}]


def _station_record_checks(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    """Numeric records: their identity checks only the assembly, so each
    record's joints and canonical marginals are also held to the closed forms."""
    spec = cfg.cutoff_spec()
    worst_rec = worst_station = 0.0
    for a2 in (0.3, 1.0, 2.5):
        for _ in range(4):
            quad = SettingsQuadruple(*rng.uniform(0.0, 2.0 * math.pi, 2))
            rec = evaluate_quadruple(symmetric_config(a2, REFERENCE_DPHI, spec), quad)
            worst_rec = max(worst_rec, abs(rec.chsh - (2.0 + 4.0 * rec.ch)))
            closed = [analytic.probs_point(a2, a2, 0.0, REFERENCE_DPHI, x, y)
                      for x, y in rec.settings]
            # local_alice is at the second pair's x, local_bob at the first's y
            worst_station = max(worst_station,
                                abs(rec.local_alice - closed[1][0]),
                                abs(rec.local_bob - closed[0][1]),
                                *(abs(j - c[2]) for j, c in zip(rec.joints, closed)))
    return [_check("record_ch_chsh_identity", worst_rec, IDENTITY_TOL, 12),
            _check("station_closed_form_agreement", worst_station, ORACLE_TOL, 12)]


def _printed_form_checks(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    """Exact identities of the closed forms: the paper's expanded CH and
    CHSH against the general forms on the standard quadruple."""
    xi, eta, dphi = rng.uniform(0.0, 2.0 * math.pi, (3, 500))
    a2 = VERIFY_ALPHA_SQ_MAX * (1.0 - rng.random(500))
    # ClosedFormPoint's checks bound each field from below and above, so
    # the drawn arrays pass them once, at their least and greatest values,
    # and all the points go to each printed form in one call on numpy
    fields = (xi, eta, dphi, a2)
    analytic.ClosedFormPoint(*(float(f.min()) for f in fields))
    analytic.ClosedFormPoint(*(float(f.max()) for f in fields))
    ch = analytic.ch_closed(fields, np)
    chsh = analytic.chsh_closed(fields, np)
    general_ch, general_chsh = analytic.ch_chsh_general(
        a2, a2, 0.0, dphi, *SettingsQuadruple(xi, eta).settings)
    return [_check("closed_form_assembly_identity",
                   float(np.max(np.abs(ch - general_ch))), IDENTITY_TOL, 500),
            _check("closed_form_expanded_identity",
                   float(np.max(np.abs(chsh - general_chsh))), IDENTITY_TOL, 500)]


def _input_norm(config: ExperimentConfig) -> float:
    """The network input's norm on the truncated space: the product of the
    two stations' Poisson sums up to the cutoff (fock.poisson_mass), taken
    without building the amplitudes the network mixes, so an oscillator
    build that is off in its norm shows against it."""
    mass_a, mass_b = poisson_mass((config.alpha1_sq, config.alpha2_sq),
                                  config.resolve_cutoff())
    return mass_a * mass_b


def _invariant_checks(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    """Physics invariants: no-signalling, and the norm the network loses at
    the cutoff edge, the readout's norm against the input's (_input_norm,
    from Poisson sums: every probability is conditional on the truncated
    space, so only this check sees a mis-normalized oscillator)."""
    spec = cfg.cutoff_spec()
    worst_nosig = worst_norm = 0.0
    for _ in range(cfg.verify_draws):
        a2 = VERIFY_ALPHA_SQ_MAX * (1.0 - rng.random())
        xi, eta, xi_alt, eta_alt = rng.uniform(0.0, 2.0 * math.pi, 4)
        phi1, phi2, phi1_alt, phi2_alt = rng.uniform(0.0, 2.0 * math.pi, 4)
        config = ExperimentConfig(a2, a2, phi1, phi2, spec)
        p_a, p_b, _, norm_sq = run_network(config, xi, eta)
        alt_bob = run_network(ExperimentConfig(a2, a2, phi1, phi2_alt, spec),
                              xi, eta_alt)
        alt_alice = run_network(ExperimentConfig(a2, a2, phi1_alt, phi2, spec),
                                xi_alt, eta)
        worst_nosig = max(worst_nosig, abs(p_a - alt_bob[0]),
                          abs(p_b - alt_alice[1]))
        worst_norm = max(worst_norm, abs(norm_sq - _input_norm(config)))
    return [_check("no_signalling", worst_nosig, NOSIGNAL_TOL, cfg.verify_draws),
            _check("network_unitarity", worst_norm, UNITARITY_TOL, cfg.verify_draws)]


# verify's check table, in report order: each group draws from the one rng
CHECK_GROUPS = (_network_oracle_checks, _exponent_checks, _station_record_checks,
                _printed_form_checks, _invariant_checks)


def run_verification(cfg: RunConfig) -> dict:
    """The CHECK_GROUPS' report payload, drawn from one rng at cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    checks = [check for group in CHECK_GROUPS for check in group(cfg, rng)]
    decision = next(c["decision"] for c in checks if "decision" in c)
    return {"checks": checks, analytic.LOCAL_EXPONENT_DECISION_KEY: decision,
            "phase_difference_convention": PHASE_CONVENTION}


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    prov = provenance(cfg, args, VERIFY_ALPHA_SQ_MAX)  # resolved before the checks
    report = run_verification(cfg)
    report["provenance"] = prov
    report["provenance"][analytic.LOCAL_EXPONENT_DECISION_KEY] = \
        report[analytic.LOCAL_EXPONENT_DECISION_KEY]
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} "
              f"max_residual={check['max_residual']:.3e} "
              f"tol={check['tolerance']:.1e}")
    write_json(args.out, report)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    if failing:
        print(f"verification failed: {failing[0]}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure

def figure_rows(cfg: RunConfig, dphi: float, xi_minus_eta: float,
                rows: int, cols: int, picks: list[int]):
    """Stream the grid over alpha_sq in (0, max] (rows) and xi_plus_eta in
    [0, 2pi) (columns), one alpha_sq row at a time, row-major.

    Each row yields its CSV text block and the (alpha_sq, xi, eta, ch) of
    every flat (row-major) index in `picks` that falls in it. Every cell
    makes exactly one analytic.ch_closed call; its chsh is written as
    2 + 4 ch, which equals chsh_closed to the last bit (both evaluate the
    same bracket, and the factors 1/4 and 4 are powers of two).

    A cell's fields are those of its column (xi, eta) and its row (dphi,
    alpha_sq), so each column and each row passes ClosedFormPoint's checks
    once and each cell goes to ch_closed as a plain (xi, eta, dphi,
    alpha_sq) tuple. Each row's text comes from one %-template of the grid,
    with every column's formatted xi_plus_eta built in; it writes the same
    text as per-cell .9g f-strings.
    """
    point = analytic.ClosedFormPoint
    angles, formats = [], []
    for j in range(cols):
        total = 2.0 * math.pi * j / cols
        quad = SettingsQuadruple.from_sum_difference(total, xi_minus_eta)
        point(quad.xi, quad.eta, dphi, 0.0)  # the column's checks
        angles.append((quad.xi, quad.eta))
        formats.append(f"%s,{total:.9g},%.9g,%.9g\n")
    template = "".join(formats)
    picked_cols: dict[int, list[int]] = {}
    for index in picks:
        picked_cols.setdefault(index // cols, []).append(index % cols)
    ch_closed = analytic.ch_closed
    for i in range(rows):
        alpha_sq = cfg.figure_alpha_sq_max * (i + 1) / rows
        point(0.0, 0.0, dphi, alpha_sq)  # the row's checks
        chs = [ch_closed((xi, eta, dphi, alpha_sq)) for xi, eta in angles]
        values = [f"{alpha_sq:.9g}"] * (3 * cols)
        values[1::3] = chs
        values[2::3] = [2.0 + 4.0 * ch for ch in chs]
        yield template % tuple(values), [(alpha_sq, *angles[j], chs[j])
                                         for j in picked_cols.get(i, ())]


def cmd_figure(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Write the CH/CHSH grid as CSV, then recompute a seeded sample of its
    cells with the numeric engine and fail when they disagree.

    The angles are checked before the CSV is opened, since its rows are
    streamed into the open file. The sample's ch values are the ones
    written: the grid calls analytic.ch_closed exactly rows * cols times,
    and the spot-checks never call it again. The rows go to a temporary
    file beside --out, which replaces --out only once the spot-checks pass
    and is removed otherwise, so a failed run leaves no grid behind. When
    --out is a symlink, the file it points to is replaced; a device or FIFO
    at --out is written in place.
    """
    rows, cols = args.grid
    points = rows * cols
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"grid has {points} points, exceeding the "
                          f"budget of {MAX_GRID_POINTS}")
    for name in ("dphi", "xi_minus_eta"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"{name} must be finite")
    if abs(args.xi_minus_eta) > MAX_XI_MINUS_ETA:
        raise ConfigError(f"|xi_minus_eta| must be <= {MAX_XI_MINUS_ETA:g}")
    # the top row needs the largest cutoff of any spot-check; a range the
    # numerics cannot reach is refused before the CSV is written
    cfg.cutoff_spec().resolve(cfg.figure_alpha_sq_max)
    count = max(1, math.ceil(cfg.crosscheck_fraction * points))
    rng = np.random.default_rng(cfg.seed)
    picks = sorted(int(p) for p in rng.choice(points, count, replace=False))
    sample = []
    # a regular file, or none, is replaced through a temporary file beside
    # it (behind any symlink); a device or FIFO is written in place
    target = os.path.realpath(args.out)
    staged = os.path.isfile(target) or not os.path.exists(target)
    head, tail = os.path.split(target)
    partial = (os.path.join(head, f".{tail}.{os.getpid()}.tmp") if staged
               else target)
    try:
        try:
            with open(partial, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(CSV_HEADER + "\n")
                for text, picked in figure_rows(cfg, args.dphi,
                                                args.xi_minus_eta, rows, cols,
                                                picks):
                    fh.write(text)
                    sample.extend(picked)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc

        # mandatory numeric spot-check of the analytic grid
        worst = 0.0
        for alpha_sq, xi, eta, ch in sample:
            rec = evaluate_quadruple(
                symmetric_config(alpha_sq, args.dphi, cfg.cutoff_spec()),
                SettingsQuadruple(xi, eta))
            worst = max(worst, abs(rec.ch - ch))
        print(f"numeric crosscheck: {count} of {points} points, "
              f"max |ch_numeric - ch_analytic| = {worst:.3e}")
        if worst > ORACLE_TOL:
            print("figure crosscheck failed: numeric and analytic paths "
                  "disagree", file=sys.stderr)
            return EXIT_VERIFICATION_FAILURE
        if staged:
            try:
                os.replace(partial, target)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
        return EXIT_OK
    finally:
        if staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    family = get_family(args.family)
    prov = provenance(cfg, args, ALPHA_SQ_MAX)  # resolved before the search
    outcome = maximize_chsh(args.family, cfg.restarts, cfg.seed,
                            cutoff=cfg.cutoff_spec())
    crosscheck = _check("numeric_crosscheck", outcome.crosscheck_residual,
                        ORACLE_TOL, outcome.restarts)
    payload = {
        "family": family.kind,
        "path": "analytic",
        "best": {"params": outcome.best.params, "ch": outcome.best.ch,
                 "chsh": outcome.best.chsh},
        "violation_found": bool(outcome.best.chsh > 2.0 + VIOLATION_MARGIN),
        "violation_margin": VIOLATION_MARGIN,
        "restarts": outcome.restarts,
        "evaluations": outcome.evaluations,
        "search_box": {p.name: [p.lo, p.hi] for p in family.params},
        "simplex_diameter_tol": scan.DEFAULT_DIAMETER_TOL,
        "maxfev_per_restart": outcome.maxfev,
        "numeric_crosscheck": crosscheck,
        "trace": [{"restart": rec.index, "params": rec.params,
                   "ch": rec.ch, "chsh": rec.chsh} for rec in outcome.trace],
        "provenance": prov,
    }
    write_json(args.out, payload)
    print(f"{family.kind}: best chsh = {outcome.best.chsh:.9g} "
          f"(ch = {outcome.best.ch:.3e}) over "
          f"{outcome.restarts} restarts "
          f"(violation_found={payload['violation_found']})")
    print(f"numeric crosscheck: {outcome.restarts} of "
          f"{outcome.restarts} restarts, max |ch_numeric - ch_analytic| = "
          f"{outcome.crosscheck_residual:.3e}")
    if not crosscheck["passed"]:
        print("optimize crosscheck failed: numeric and analytic paths disagree",
              file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# split

def cmd_split(cfg: RunConfig, args: argparse.Namespace) -> int:
    split = split_state(cfg.experiment())
    quad = reference_quadruple()
    dec = chsh_decomposition(split, quad)
    # the probability the truncated input drops at the cutoff
    norm_loss = _check("input_norm_loss",
                       1.0 - float(np.vdot(split.full, split.full).real),
                       ORACLE_TOL, 1)
    payload = {
        "alpha_sq": cfg.alpha_sq,
        "c1": split.c1,
        "lam_coeff": split.lam_coeff,
        "psi1_tsirelson": tsirelson_two_qubit(split.psi1),
        "chsh_lambda_reference_settings": dec.lam_part,
        # full = c1^2 psi1_part + lam_coeff^2 lam_part + interference at the
        # reference settings
        "chsh_decomposition": {
            "full": dec.full,
            "psi1_part": dec.psi1_part,
            "lam_part": dec.lam_part,
            "interference": dec.interference,
            "reassembled": dec.reassembled,
        },
        "reference_settings": {
            "dphi": cfg.phi2 - cfg.phi1,
            "xi_minus_eta": REFERENCE_XI_MINUS_ETA,
            "xi": quad.xi,
            "eta": quad.eta,
        },
        "cross_terms": [asdict(term) for term in lambda_cross_terms(split)],
        "input_norm_loss": norm_loss,
        "provenance": provenance(cfg, args),
    }
    write_json(args.out, payload)
    print(f"c1 = {split.c1:.9g}, psi1 tsirelson = "
          f"{payload['psi1_tsirelson']:.9g}, chsh(lambda) = "
          f"{payload['chsh_lambda_reference_settings']:.9g}")
    if not norm_loss["passed"]:
        print("split check failed: the cutoff drops more of the input state "
              "than the oracle tolerance", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 200x200, got {text!r}")
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be >= 1")
    return rows, cols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homodyne-bell",
        description="Simulate and verify single-photon homodyne Bell tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--cutoff-eps", dest="cutoff_eps", type=float,
                       default=None, help="per-mode truncation tail budget")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=default_out, help="output path")

    p_verify = sub.add_parser("verify", help="run the oracle and invariant suite")
    common(p_verify, "verify_report.json")
    p_verify.set_defaults(handler=cmd_verify)

    p_figure = sub.add_parser("figure", help="emit the CH/CHSH grid as CSV")
    common(p_figure, "ch_grid.csv")
    p_figure.add_argument("--dphi", type=float, default=REFERENCE_DPHI,
                          help="phase-difference argument of the closed forms")
    p_figure.add_argument("--xi-minus-eta", dest="xi_minus_eta", type=float,
                          default=REFERENCE_XI_MINUS_ETA)
    p_figure.add_argument("--grid", type=_parse_grid, default=(200, 200),
                          help="grid size NxM")
    p_figure.add_argument("--degrees", action="store_true",
                          help="interpret --dphi and --xi-minus-eta in degrees")
    p_figure.set_defaults(handler=cmd_figure)

    p_opt = sub.add_parser("optimize", help="maximize CHSH over a setting family")
    common(p_opt, "optimize_result.json")
    p_opt.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p_opt.add_argument("--restarts", type=int, default=None)
    p_opt.set_defaults(handler=cmd_optimize)

    p_split = sub.add_parser("split", help="report the entangled/residual state split")
    common(p_split, "split_report.json")
    p_split.set_defaults(handler=cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "degrees", False):
        args.dphi = math.radians(args.dphi)
        args.xi_minus_eta = math.radians(args.xi_minus_eta)
    try:
        cfg = load_run_config(args)
        return args.handler(cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
