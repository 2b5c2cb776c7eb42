"""Command-line interface: verification suite, figure-grid emission,
constrained CHSH maximization, and state-split reports.

Subcommands: verify, figure, optimize, split. Exit codes are stable:
0 success, 1 verification failure, 2 configuration error. All outputs are
deterministic for a fixed seed; floats are emitted at 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, analytic
from .bell import (
    SettingsQuadruple,
    chsh_on_component,
    evaluate_quadruple,
    lambda_cross_terms,
    reference_quadruple,
    split_state,
    tsirelson_two_qubit,
    REFERENCE_DPHI,
    REFERENCE_XI_MINUS_ETA,
)
from .detection import Station, joint_favorable_prob, station_favorable_prob
from .fock import CutoffSpec
from .optics import ExperimentConfig, build_input_state, run_network, symmetric_config
from .scan import FAMILIES, get_family, maximize_chsh

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2

PHASE_CONVENTION = "phi2 - phi1"
VIOLATION_MARGIN = 1e-6
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
    alpha1_sq: float | None = None
    alpha2_sq: float | None = None
    phi1: float = 0.0
    phi2: float = math.pi / 2.0
    cutoff_eps: float = 1e-12
    cutoff_n: int | None = None
    tol: float = 1e-9
    identity_tol: float = 1e-12
    nosignal_tol: float = 1e-10
    unitarity_tol: float = 1e-10
    seed: int = 20240801
    verify_points: int = 100
    verify_draws: int = 50
    grid_budget: int = 1_000_000
    figure_alpha_sq_max: float = 2.0
    crosscheck_fraction: float = 0.01
    restarts: int = 32
    maxfev: int = 2000
    diameter_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed_value(
                f.name, getattr(self, f.name), _RUN_CONFIG_TYPES[f.name]))
        for name in ("tol", "identity_tol", "nosignal_tol", "unitarity_tol",
                     "cutoff_eps", "diameter_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("verify_points", "verify_draws"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # reject a bad drive (NaN, negative, infinite) before any command runs
        try:
            self.experiment()
        except ValueError as exc:
            raise ConfigError(f"invalid experiment settings: {exc}") from exc

    def station_alpha_sq(self) -> tuple[float, float]:
        a1 = self.alpha1_sq if self.alpha1_sq is not None else self.alpha_sq
        a2 = self.alpha2_sq if self.alpha2_sq is not None else self.alpha_sq
        return a1, a2

    def experiment(self) -> ExperimentConfig:
        a1, a2 = self.station_alpha_sq()
        if a1 < 0 or a2 < 0:
            raise ValueError(f"alpha_sq must be >= 0, got {a1} and {a2}")
        return ExperimentConfig(math.sqrt(a1), math.sqrt(a2), self.phi1,
                                self.phi2, CutoffSpec(self.cutoff_n, self.cutoff_eps))


_RUN_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def load_run_config(args: argparse.Namespace) -> RunConfig:
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
    cfg = RunConfig(**values)
    # flags override file values
    overrides = {}
    for flag, key in (("tol", "tol"), ("cutoff_eps", "cutoff_eps"),
                      ("seed", "seed"), ("restarts", "restarts")):
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            overrides[key] = flag_value
    return replace(cfg, **overrides) if overrides else cfg


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


def provenance(cfg: RunConfig, args: argparse.Namespace) -> dict:
    a1, a2 = cfg.station_alpha_sq()
    return {
        "version": __version__,
        "seed": cfg.seed,
        "cutoff_eps": cfg.cutoff_eps,
        "cutoff_n": cfg.cutoff_n if cfg.cutoff_n is not None
        else CutoffSpec(tail_eps=cfg.cutoff_eps).resolve(max(a1, a2)),
        "tolerances": {
            "oracle": cfg.tol,
            "identity": cfg.identity_tol,
            "no_signalling": cfg.nosignal_tol,
            "unitarity": cfg.unitarity_tol,
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


def run_verification(cfg: RunConfig) -> dict:
    """Run the full oracle / invariant suite and return the report payload."""
    rng = np.random.default_rng(cfg.seed)
    eps = cfg.cutoff_eps
    checks = []

    # closed forms vs brute-force numerics over random operating points
    worst_joint = worst_local = 0.0
    worst_margin = 0.0
    for _ in range(cfg.verify_points):
        a2 = 4.0 * (1.0 - rng.random())
        xi, eta, dphi = rng.uniform(0.0, 2.0 * math.pi, 3)
        state = run_network(symmetric_config(a2, dphi, eps), xi, eta)
        p_ab = joint_favorable_prob(state)
        p_a = station_favorable_prob(state, Station.ALICE)
        p_b = station_favorable_prob(state, Station.BOB)
        point = analytic.ClosedFormPoint(xi, eta, dphi, a2)
        worst_joint = max(worst_joint, abs(p_ab - analytic.joint_prob_closed(point)))
        worst_local = max(worst_local,
                          abs(p_a - analytic.local_prob_closed(xi, a2)),
                          abs(p_b - analytic.local_prob_closed(eta, a2)))
        worst_margin = max(worst_margin, p_ab - min(p_a, p_b))
    checks.append(_check("joint_oracle_agreement", worst_joint, cfg.tol,
                         cfg.verify_points))
    checks.append(_check("local_oracle_agreement", worst_local, cfg.tol,
                         cfg.verify_points))
    checks.append(_check("joint_within_marginals", worst_margin, 1e-15,
                         cfg.verify_points))

    # local-probability exponent adjudication against the brute force
    corrected_resid = printed_resid = 0.0
    for a2, x in ((0.5, 1.2), (1.0, math.pi / 2.0), (2.0, 2.4)):
        state = run_network(symmetric_config(a2, 0.7, eps), x, 0.9)
        p = station_favorable_prob(state, Station.ALICE)
        corrected_resid = max(corrected_resid,
                              abs(p - analytic.local_prob_closed(x, a2)))
        printed_resid = max(printed_resid,
                            abs(p - analytic.local_prob_printed_variant(x, a2)))
    corrected_wins = corrected_resid <= cfg.tol < printed_resid
    printed_wins = printed_resid <= cfg.tol < corrected_resid
    decision = (analytic.LOCAL_EXPONENT_CORRECTED if corrected_resid <= printed_resid
                else analytic.LOCAL_EXPONENT_PRINTED)
    checks.append({"name": "local_exponent_adjudication",
                   "passed": bool(corrected_wins),
                   "max_residual": corrected_resid, "tolerance": cfg.tol,
                   "points": 3,
                   "decision": decision,
                   "printed_variant_residual": printed_resid,
                   "escalation": None if (corrected_wins or not printed_wins) else
                   "brute force favors the printed exponent; the network "
                   "convention needs re-derivation before results are used"})

    # exact identities, numeric records
    worst_rec = 0.0
    for a2 in (0.3, 1.0, 2.5):
        for _ in range(4):
            quad = SettingsQuadruple(*rng.uniform(0.0, 2.0 * math.pi, 2))
            rec = evaluate_quadruple(symmetric_config(a2, REFERENCE_DPHI, eps), quad)
            worst_rec = max(worst_rec, abs(rec.chsh - (2.0 + 4.0 * rec.ch)))
    checks.append(_check("record_ch_chsh_identity", worst_rec,
                         cfg.identity_tol, 12))

    # exact identities, closed forms
    worst_pair = worst_asm = worst_exp = 0.0
    for _ in range(500):
        point = analytic.ClosedFormPoint(rng.uniform(0.0, 2.0 * math.pi),
                                         rng.uniform(0.0, 2.0 * math.pi),
                                         rng.uniform(0.0, 2.0 * math.pi),
                                         4.0 * (1.0 - rng.random()))
        ch = analytic.ch_closed(point)
        worst_asm = max(worst_asm, abs(ch - analytic.ch_assembled(point)))
        worst_exp = max(worst_exp, abs(analytic.chsh_closed(point) - (2.0 + 4.0 * ch)))
    checks.append(_check("closed_form_assembly_identity", worst_asm,
                         cfg.identity_tol, 500))
    checks.append(_check("closed_form_expanded_identity", worst_exp,
                         cfg.identity_tol, 500))

    # physics invariants: no-signalling and norm conservation
    worst_nosig = worst_norm = 0.0
    for _ in range(cfg.verify_draws):
        a2 = 4.0 * (1.0 - rng.random())
        xi, eta, xi_alt, eta_alt = rng.uniform(0.0, 2.0 * math.pi, 4)
        phi1, phi2, phi1_alt, phi2_alt = rng.uniform(0.0, 2.0 * math.pi, 4)
        a = math.sqrt(a2)
        spec = CutoffSpec(tail_eps=eps)
        base_in = build_input_state(ExperimentConfig(a, a, phi1, phi2, spec))
        base = run_network(ExperimentConfig(a, a, phi1, phi2, spec), xi, eta)
        alt_bob = run_network(ExperimentConfig(a, a, phi1, phi2_alt, spec),
                              xi, eta_alt)
        alt_alice = run_network(ExperimentConfig(a, a, phi1_alt, phi2, spec),
                                xi_alt, eta)
        worst_nosig = max(
            worst_nosig,
            abs(station_favorable_prob(base, Station.ALICE)
                - station_favorable_prob(alt_bob, Station.ALICE)),
            abs(station_favorable_prob(base, Station.BOB)
                - station_favorable_prob(alt_alice, Station.BOB)))
        worst_norm = max(worst_norm, abs(base.norm_sq() - base_in.norm_sq()))
    checks.append(_check("no_signalling", worst_nosig, cfg.nosignal_tol,
                         cfg.verify_draws))
    checks.append(_check("network_unitarity", worst_norm, cfg.unitarity_tol,
                         cfg.verify_draws))

    return {
        "checks": checks,
        analytic.LOCAL_EXPONENT_DECISION_KEY: decision,
        "phase_difference_convention": PHASE_CONVENTION,
    }


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    report = run_verification(cfg)
    report["provenance"] = provenance(cfg, args)
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
                rows: int, cols: int):
    """Row-major grid over alpha_sq in (0, max] and xi_plus_eta in [0, 2pi)."""
    for i in range(rows):
        alpha_sq = cfg.figure_alpha_sq_max * (i + 1) / rows
        for j in range(cols):
            total = 2.0 * math.pi * j / cols
            xi = (total + xi_minus_eta) / 2.0
            eta = (total - xi_minus_eta) / 2.0
            point = analytic.ClosedFormPoint(xi, eta, dphi, alpha_sq)
            yield (alpha_sq, total, analytic.ch_closed(point),
                   analytic.chsh_closed(point))


def cmd_figure(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows, cols = args.grid
    if rows * cols > cfg.grid_budget:
        raise ConfigError(f"grid has {rows * cols} points, exceeding the "
                          f"budget of {cfg.grid_budget}")
    data = list(figure_rows(cfg, args.dphi, args.xi_minus_eta, rows, cols))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for alpha_sq, total, ch, chsh in data:
                fh.write(f"{alpha_sq:.9g},{total:.9g},{ch:.9g},{chsh:.9g}\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc

    # mandatory numeric spot-check of the analytic grid
    count = max(1, math.ceil(cfg.crosscheck_fraction * len(data)))
    rng = np.random.default_rng(cfg.seed)
    picks = sorted(int(p) for p in rng.choice(len(data), count, replace=False))
    worst = 0.0
    for idx in picks:
        alpha_sq, total, ch, _ = data[idx]
        quad = SettingsQuadruple((total + args.xi_minus_eta) / 2.0,
                                 (total - args.xi_minus_eta) / 2.0)
        rec = evaluate_quadruple(
            symmetric_config(alpha_sq, args.dphi, cfg.cutoff_eps), quad)
        worst = max(worst, abs(rec.ch - ch))
    print(f"numeric crosscheck: {count} of {len(data)} points, "
          f"max |ch_numeric - ch_analytic| = {worst:.3e}")
    if worst > cfg.tol:
        print("figure crosscheck failed: numeric and analytic paths disagree",
              file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    family = get_family(args.family)
    outcome = maximize_chsh(args.family, cfg.restarts, cfg.seed,
                            diameter_tol=cfg.diameter_tol, maxfev=cfg.maxfev,
                            tail_eps=cfg.cutoff_eps)
    crosscheck = _check("numeric_crosscheck", outcome.crosscheck_residual,
                        cfg.tol, outcome.crosscheck_points)
    payload = {
        "family": family.kind,
        "path": outcome.best.path,
        "best": {"params": outcome.best.params, "ch": outcome.best.ch,
                 "chsh": outcome.best.chsh},
        "violation_found": bool(outcome.best.chsh > 2.0 + VIOLATION_MARGIN),
        "violation_margin": VIOLATION_MARGIN,
        "restarts": outcome.restarts,
        "evaluations": outcome.evaluations,
        "search_box": {p.name: [p.lo, p.hi] for p in family.params},
        "simplex_diameter_tol": outcome.diameter_tol,
        "maxfev_per_restart": outcome.maxfev,
        "numeric_crosscheck": crosscheck,
        "trace": [{"restart": rec.index, "params": rec.params,
                   "ch": rec.ch, "chsh": rec.chsh} for rec in outcome.trace],
        "provenance": provenance(cfg, args),
    }
    write_json(args.out, payload)
    print(f"{family.kind}: best chsh = {outcome.best.chsh:.9g} over "
          f"{outcome.restarts} restarts "
          f"(violation_found={payload['violation_found']})")
    print(f"numeric crosscheck: {outcome.crosscheck_points} of "
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
    a1, a2 = cfg.station_alpha_sq()
    if a1 != a2:
        raise ConfigError("state split is defined only for equal oscillator "
                          f"strengths, got alpha1_sq={a1} alpha2_sq={a2}")
    split = split_state(cfg.experiment())
    quad = reference_quadruple()
    payload = {
        "alpha_sq": a1,
        "c1": split.c1,
        "lam_coeff": split.lam_coeff,
        "psi1_tsirelson": tsirelson_two_qubit(split.psi1),
        "chsh_lambda_reference_settings": chsh_on_component(split.lam, quad),
        "reference_settings": {
            "dphi": REFERENCE_DPHI,
            "xi_minus_eta": REFERENCE_XI_MINUS_ETA,
            "xi": quad.xi,
            "eta": quad.eta,
        },
        "cross_terms": [
            {
                "occupation": list(term.occupation),
                "weight": term.weight,
                "magnitude": term.magnitude,
                "alice_minus_one_reachable": term.alice_minus_one_reachable,
                "bob_minus_one_reachable": term.bob_minus_one_reachable,
            }
            for term in lambda_cross_terms(split, count=10)
        ],
        "provenance": provenance(cfg, args),
    }
    write_json(args.out, payload)
    print(f"c1 = {split.c1:.9g}, psi1 tsirelson = "
          f"{payload['psi1_tsirelson']:.9g}, chsh(lambda) = "
          f"{payload['chsh_lambda_reference_settings']:.9g}")
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
        p.add_argument("--tol", type=float, default=None,
                       help="oracle agreement tolerance")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
