"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds):

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json comes out with its unit,
that the traced run's layer self times plus the unattributed time add up to
the traced wall time, that deliberately corrupted outputs trip each
workload's correctness check, and that run.py refuses a directory without
the program's sources. Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # pins the BLAS threads and puts the sources on sys.path
import run
from workloads import FigureGrid, RelaxedSearch, Verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def tiny_workloads(out_dir: Path):
    return (Verify(out_dir, verify_points=2, verify_draws=2),
            FigureGrid(out_dir, rows=20, cols=20, spot_checks=2, sampled_rows=20),
            RelaxedSearch(out_dir, restarts=4, maxfev=10))


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    require(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} "
            "or their units differ from BENCHMARK.json")
    require(result["attempted"] >= 1 and result["failed"] == 0,
            f"{label}: {result['failed']} of {result['attempted']} iterations failed")


def expect_problem(live, workload, inputs, output, stdout, what: str) -> None:
    checked = workload.check(live, inputs, output, stdout)
    require(bool(checked.problems), f"{workload.name}: {what} was not detected")


def corrupt_outputs(live, verify, figure, relaxed) -> None:
    seed = verify.inputs(7, 0)
    (report, split_exit), _, _ = worker.timed_run(verify, live, seed)
    require(not verify.check(live, seed, (report, split_exit), "").problems,
            "verify: clean output was flagged")
    broken = json.loads(json.dumps(report))
    broken["checks"][0]["passed"] = False
    expect_problem(live, verify, seed, (broken, split_exit), "", "a failed check")
    broken = dict(report, eq10_exponent_decision="e^{-2alpha^2}")
    expect_problem(live, verify, seed, (broken, split_exit), "",
                   "a wrong exponent decision")

    inputs = figure.inputs(7, 0)
    output, stdout, _ = worker.timed_run(figure, live, inputs)
    require(not figure.check(live, inputs, output, stdout).problems,
            "figure_grid: clean output was flagged")
    lines = Path(figure.out).read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    Path(figure.out).write_text("".join([lines[0], ",".join(fields)] + lines[2:]))
    expect_problem(live, figure, inputs, output, stdout, "a corrupted ch value")
    Path(figure.out).write_text("".join(lines[:-1]))
    expect_problem(live, figure, inputs, output, stdout, "a missing row")

    seed = relaxed.inputs(7, 0)
    outcome = relaxed.run(live, seed)
    require(not relaxed.check(live, seed, outcome, "").problems,
            "relaxed_search: clean output was flagged")
    record = dataclasses.replace(outcome.trace[0], chsh=outcome.trace[0].chsh + 1e-6)
    broken = dataclasses.replace(outcome, trace=(record,) + outcome.trace[1:])
    expect_problem(live, relaxed, seed, broken, "",
                   "a record breaking chsh = 2 + 4 ch")
    broken = dataclasses.replace(outcome, evaluations=outcome.evaluations - 1)
    expect_problem(live, relaxed, seed, broken, "", "an evaluation count off the cap")
    tally = worker.Tally()
    with contextlib.redirect_stderr(io.StringIO()):
        tally.check(relaxed, live, seed, outcome, "", {"scan.evaluate_point": 0})
    require(tally.failed == 1, "relaxed_search: a traced span count differing "
            "from the program's own count was not detected")


def refuses_bare_directory() -> None:
    """run.py must fail, printing no result, where only the benchmark is."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    require(proc.returncode != 0, "run.py succeeded without the program")
    require('"correct"' not in proc.stdout, "run.py printed a result without the program")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m for m in bench["end_to_end"] if m["name"] != "setup_s"]
    out_dir = ROOT / ".bench_build" / "perfbench" / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        live = worker.load_program(worker.PROGRAM)
        workloads = tiny_workloads(out_dir)
        require(sorted(w.name for w in workloads) == sorted(run.WORKLOAD_NAMES)
                == sorted(w["name"] for w in bench["workloads"]),
                "workload names differ between workloads.py, run.py and BENCHMARK.json")
        for workload in workloads:
            untraced = worker.measure(workload, live, 5, seconds=0.0)
            check_metrics(untraced, end_to_end, f"{workload.name} untraced")
            require(untraced["metrics"]["wall_vs_baseline"][0] > 0.0,
                    f"{workload.name}: no time ratio against the baseline copy")
            traced = worker.measure_traced(workload, live, 5, seconds=0.0,
                                           import_s=0.0)
            check_metrics(traced, bench["per_layer"], f"{workload.name} traced")
            metrics = {k: v for k, (v, _) in traced["metrics"].items()}
            layers = sum(metrics[f"{layer}.self_s"] for layer in worker.LAYERS)
            require(abs(layers + metrics["trace.unattributed_s"]
                        - metrics["trace.wall_s"]) < 1e-9,
                    f"{workload.name}: layer self times plus unattributed "
                    "do not add up to the traced wall time")
        require(run.setup_time() > 0.0, "setup probe reported no time")
        corrupt_outputs(live, *workloads)
        refuses_bare_directory()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
