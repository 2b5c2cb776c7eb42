"""The benchmark's workloads.

Each workload derives one iteration's inputs from (seed, iteration index)
as plain values, makes the timed call into a program's public entry points,
and checks the outputs afterwards. Distinct inputs per iteration keep a
later iteration from hitting the program's `_pair_block` cache with an
earlier one's angles.

`run` and `check` take the program as an argument: a namespace holding its
`cli` and `scan` modules (worker.load_program). The worker runs the same
inputs through the program under test and through the frozen baseline copy
in `homodyne_bell_baseline`, and checks the outputs of the program under
test.

Import this module only after the BLAS thread count is pinned (worker.py
does that), because it imports numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
# The program writes floats at 9 significant digits, so a written value v is
# within half a unit of its 9th digit, which is at most 5e-9 * |v|; the
# absolute term absorbs last-bit differences between two evaluation orders.
NINE_DIGITS_REL = 5e-9
NINE_DIGITS_ABS = 1e-14
# chsh == 2 + 4*ch holds to rounding on every record (bell module); the
# program's own identity tolerance is the same value.
IDENTITY_TOL = 1e-12
# split report strength and figure alpha^2 range, passed to the program
# explicitly so that the checks below do not depend on its defaults
SPLIT_ALPHA_SQ = 1.0
FIGURE_ALPHA_SQ_MAX = 2.0


def iteration_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def close_at_nine_digits(written, exact):
    """Elementwise: does `written` equal `exact` to the digits written?"""
    return np.abs(written - exact) <= NINE_DIGITS_REL * np.abs(exact) + NINE_DIGITS_ABS


@dataclass
class Checked:
    """Outcome of one iteration's correctness check."""

    problems: list[str] = field(default_factory=list)
    # work the program reports it did, for evals_per_s
    evaluations: int = 0
    # largest oracle residual the check saw (diagnostic, not gated)
    oracle_residual: float = 0.0
    # calls of traced functions implied by counts the program reports
    # itself; a traced run requires its span counts to match
    span_counts: dict[str, int] = field(default_factory=dict)


class Verify:
    """`run_verification` at the default tolerances and truncation with 8
    oracle points and 4 no-signalling draws, then the `split` report at
    alpha^2 = 1: the strict-truncation checking path on the dense engine.
    The default 100 points and 50 draws take about 2 s; worker.py explains
    why iterations are kept short."""

    name = "verify"

    def __init__(self, out_dir: Path, verify_points: int = 8,
                 verify_draws: int = 4):
        self.split_out = str(out_dir / "split_report.json")
        self.verify_points = verify_points
        self.verify_draws = verify_draws

    def inputs(self, seed: int, index: int) -> int:
        return iteration_seed(seed, index)

    def run(self, prog, seed: int):
        cfg = prog.cli.RunConfig(seed=seed, alpha_sq=SPLIT_ALPHA_SQ,
                                 verify_points=self.verify_points,
                                 verify_draws=self.verify_draws)
        report = prog.cli.run_verification(cfg)
        split_exit = prog.cli.cmd_split(
            cfg, argparse.Namespace(out=self.split_out, degrees=False))
        return report, split_exit

    def check(self, prog, seed: int, output, stdout: str) -> Checked:
        report, split_exit = output
        out = Checked()
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        if failing:
            out.problems.append(f"verify checks failed: {failing}")
        decision = report.get("eq10_exponent_decision")
        if decision != "e^{-alpha^2}":
            out.problems.append(f"local exponent decision is {decision!r}")
        points = {c["name"]: c["points"] for c in report["checks"]}
        out.evaluations = sum(points.values())
        out.oracle_residual = max(c["max_residual"] for c in report["checks"])
        # one network run per oracle point, one per adjudication point and
        # three per no-signalling draw; one quadruple per identity record
        out.span_counts = {
            "optics.run_network": (points["joint_oracle_agreement"]
                                   + points["local_exponent_adjudication"]
                                   + 3 * points["no_signalling"]),
            "bell.evaluate_quadruple": points["record_ch_chsh_identity"],
        }
        if split_exit != 0:
            out.problems.append(f"split exited {split_exit}")
            return out
        with open(self.split_out, encoding="utf-8") as fh:
            split = json.load(fh)
        alpha_sq = SPLIT_ALPHA_SQ
        if not close_at_nine_digits(split["c1"],
                                    math.sqrt(alpha_sq) * math.exp(-alpha_sq)):
            out.problems.append(f"split c1 {split['c1']} != alpha e^-alpha^2")
        # psi1 is maximally entangled, so its CHSH maximum is 2 sqrt(2)
        if not close_at_nine_digits(split["psi1_tsirelson"], 2.0 * math.sqrt(2.0)):
            out.problems.append(
                f"psi1 Tsirelson value {split['psi1_tsirelson']} != 2 sqrt 2")
        return out


def ch_reference(alpha_sq, xi, eta, dphi):
    """CH of the standard quadruple in closed form, evaluated independently
    of the program (vectorized over numpy arrays)."""
    e2 = np.exp(-2.0 * alpha_sq)
    ea = np.exp(alpha_sq)
    return 0.25 * e2 * (
        alpha_sq * (1.0 + np.sin(dphi)) * (np.sin(xi - eta) - np.cos(xi - eta))
        + ea * (1.0 - alpha_sq) * (np.cos(eta) - np.sin(xi))
        + 2.0 * alpha_sq - 2.0 * ea * (alpha_sq + 1.0))


class FigureGrid:
    """`cmd_figure` on a 200x200 grid with 4 numeric spot-checks (the
    1e-4 share of 1000x1000 with 100): closed forms plus CSV output do most
    of the work, and the dense engine about a tenth."""

    name = "figure_grid"
    _CROSSCHECK = re.compile(r"numeric crosscheck: (\d+) of (\d+) points, "
                             r"max \|ch_numeric - ch_analytic\| = (\S+)")

    def __init__(self, out_dir: Path, rows: int = 200, cols: int = 200,
                 spot_checks: int = 4, sampled_rows: int = 200):
        self.out = str(out_dir / "ch_grid.csv")
        self.rows, self.cols = rows, cols
        self.spot_checks = spot_checks
        self.sampled_rows = sampled_rows

    def inputs(self, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        dphi, xi_minus_eta = (float(v) for v in rng.uniform(0.0, TWO_PI, 2))
        points = self.rows * self.cols
        program_seed = int(rng.integers(2**31))
        picks = rng.choice(points, min(self.sampled_rows, points), replace=False)
        sample = {0, points - 1, *(int(p) for p in picks)}
        return program_seed, dphi, xi_minus_eta, sample

    def run(self, prog, inputs):
        program_seed, dphi, xi_minus_eta, _ = inputs
        cfg = prog.cli.RunConfig(
            seed=program_seed, figure_alpha_sq_max=FIGURE_ALPHA_SQ_MAX,
            crosscheck_fraction=self.spot_checks / (self.rows * self.cols))
        args = argparse.Namespace(grid=(self.rows, self.cols), dphi=dphi,
                                  xi_minus_eta=xi_minus_eta, out=self.out,
                                  degrees=False)
        return prog.cli.cmd_figure(cfg, args)

    def check(self, prog, inputs, exit_code, stdout: str) -> Checked:
        _, dphi, xi_minus_eta, sample = inputs
        points = self.rows * self.cols
        out = Checked(evaluations=points)
        if exit_code != 0:
            out.problems.append(f"figure exited {exit_code}")
        match = self._CROSSCHECK.search(stdout)
        if match is None:
            out.problems.append("no numeric crosscheck line in the output")
        else:
            count, total, worst = match.groups()
            out.oracle_residual = float(worst)
            out.span_counts = {"bell.evaluate_quadruple": int(count),
                               "analytic.ch_closed": int(total)}
            if int(count) != self.spot_checks or int(total) != points:
                out.problems.append(f"crosscheck ran {count} of {total} points")

        written = {}
        n_lines = 0
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            for index, line in enumerate(fh):
                n_lines += 1
                if index in sample:
                    written[index] = [float(v) for v in line.split(",")]
        if header != "alpha_sq,xi_plus_eta,ch,chsh":
            out.problems.append(f"header is {header!r}")
        if n_lines != points:
            out.problems.append(f"{n_lines} data rows, expected {points}")
        if len(written) != len(sample):
            return out

        # intended coordinates of row-major row k = i * cols + j
        idx = np.array(sorted(written))
        rows = np.array([written[k] for k in idx])
        alpha_sq = FIGURE_ALPHA_SQ_MAX * (idx // self.cols + 1) / self.rows
        total = TWO_PI * (idx % self.cols) / self.cols
        xi = (total + xi_minus_eta) / 2.0
        eta = (total - xi_minus_eta) / 2.0
        ch = ch_reference(alpha_sq, xi, eta, dphi)
        for col, exact in (("alpha_sq", alpha_sq), ("xi_plus_eta", total),
                           ("ch", ch), ("chsh", 2.0 + 4.0 * ch)):
            got = rows[:, ("alpha_sq", "xi_plus_eta", "ch", "chsh").index(col)]
            bad = ~close_at_nine_digits(got, exact)
            if bad.any():
                k = int(np.argmax(bad))
                out.problems.append(f"row {int(idx[k])} {col} = {got[k]!r}, "
                                    f"expected {exact[k]!r}")
        return out


class RelaxedSearch:
    """`maximize_chsh("relaxed_phases")` with a binding evaluation cap: many
    small dense evaluations at continuously varying angles."""

    name = "relaxed_search"
    family = "relaxed_phases"

    def __init__(self, out_dir: Path, restarts: int = 4, maxfev: int = 10):
        # restarts >= 4 lets the Latin hypercube stratify alpha^2 over the box
        self.restarts = restarts
        self.maxfev = maxfev

    def inputs(self, seed: int, index: int) -> int:
        return iteration_seed(seed, index)

    def run(self, prog, seed: int):
        return prog.scan.maximize_chsh(self.family, self.restarts, seed,
                                       maxfev=self.maxfev)

    def check(self, prog, seed: int, outcome, stdout: str) -> Checked:
        # every Nelder-Mead evaluation plus one strict re-evaluation per restart
        out = Checked(evaluations=outcome.evaluations,
                      span_counts={"scan.evaluate_point":
                                   outcome.evaluations + outcome.restarts})
        cap = self.restarts * self.maxfev
        if outcome.evaluations != cap:
            out.problems.append(
                f"{outcome.evaluations} evaluations, expected the cap {cap}")
        if len(outcome.trace) != self.restarts:
            out.problems.append(f"{len(outcome.trace)} trace records, "
                                f"expected {self.restarts}")
        for rec in outcome.trace:
            residual = abs(rec.chsh - (2.0 + 4.0 * rec.ch))
            out.oracle_residual = max(out.oracle_residual, residual)
            if residual > IDENTITY_TOL:
                out.problems.append(
                    f"restart {rec.index}: chsh - (2 + 4 ch) = {residual:.3e}")
        if outcome.trace and outcome.best.chsh != max(r.chsh for r in outcome.trace):
            out.problems.append("best record is not the trace maximum")
        if outcome.best.chsh > 2.0 + prog.cli.VIOLATION_MARGIN:
            out.problems.append(
                f"best chsh {outcome.best.chsh!r} exceeds 2 + violation margin")
        return out


WORKLOADS = {w.name: w for w in (Verify, FigureGrid, RelaxedSearch)}
