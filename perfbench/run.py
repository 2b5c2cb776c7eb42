"""Benchmark of homodyne_bell: one workload per run, measured in fresh
processes (worker.py) that pin the BLAS thread count to 1.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It times how long a fresh interpreter
takes to import and warm up the program (setup_s, median of SETUP_PROBES
fresh processes), then starts one worker process that runs the workload in a
closed loop with one caller for --seconds, timing each iteration against the
frozen baseline copy of the program on the same inputs, and checks every
iteration's outputs. With --trace 1 the worker instead runs the traced
measurement and reports per-layer figures. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. The exit code is
0 only when every iteration passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("verify", "figure_grid", "relaxed_search")
SETUP_PROBES = 5
# every run must end within 180 s
RUN_LIMIT_S = 175.0


def setup_time() -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    program, made its first calls and said so."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), "--setup-probe"],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def run_worker(args, out_dir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="homodyne_bell benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "homodyne_bell" / "cli.py").is_file():
        print(f"error: {root} holds no homodyne_bell sources (src/homodyne_bell); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [] if args.trace else [setup_time() for _ in range(SETUP_PROBES)]
        result = run_worker(args, out_dir,
                            RUN_LIMIT_S - (time.perf_counter() - start))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for note in result["notes"]:
        print(f"# {args.workload} {note}")
    if setups:
        print(f"# {args.workload} setup_s probes: "
              + " ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    correct = result["failed"] == 0 and result["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
