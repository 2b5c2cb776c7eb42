"""Benchmark worker: one fresh process that runs one workload.

    python3 perfbench/worker.py --setup-probe
    python3 perfbench/worker.py --workload verify --seed 1 --seconds 20 --trace 0

run.py starts it; the last line of its standard output is a JSON object with
the iteration counts, the metrics and the environment record. The thread
pinning below must happen before numpy is first imported: on a 2-core
machine, unpinned OpenBLAS threading made the same small evaluation take
3.6 ms or 96 ms.

The untraced run times the program under test (`homodyne_bell`, from the
checkout's src/) against a frozen copy of it kept in this directory
(`homodyne_bell_baseline`, the program as it was when the benchmark was
defined). Each iteration's inputs go through both, back to back, and the
reported time is the median over iterations of the ratio of the two wall
times. On a shared host the speed of the same code drifted by 25% or more
between runs minutes apart, and changed within a second; a ratio of two
timings taken back to back on the same inputs cancels the drift and the
differences in input cost between iterations. Iterations are kept to
0.2-0.6 s because the two timings of a pair see the same host speed only
when they are short: on 1.2 s iterations the pair ratios spread 25%
between quartiles, on 0.2 s ones 7%.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
import types
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

PROGRAM = "homodyne_bell"
BASELINE = "homodyne_bell_baseline"
# paired iterations per untraced run, at least
MIN_PAIRS = 3
# iterations of the program under test alone before the pairs; the peak RSS
# is read after them. The peak grows with the largest alpha^2 drawn and, on
# relaxed_search, until the program's 4096-entry `_pair_block` cache is full
# of blocks from many angles (5 to 10 iterations), so after one iteration it
# spread 20% between runs.
RSS_ITERATIONS = 10
# the program's modules; each is one layer of the traced run
LAYERS = ("fock", "optics", "detection", "bell", "analytic", "scan", "cli")
# bell functions that build or analyse the psi1/lambda state split
SPLIT_SPANS = ("split_state", "entangled_component", "chsh_on_component",
               "chsh_decomposition", "lambda_cross_terms",
               "logical_qubit_amplitudes", "tsirelson_two_qubit",
               "jacobi_eigenvalues")


def load_program(package: str) -> types.SimpleNamespace:
    """The package's modules the workloads and the traced run use."""
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}")
        for name in ("cli", "scan", "optics", "bell", "analytic")})


def warm_up(prog) -> None:
    """First calls that a ready program has already made: one small dense
    evaluation and one closed-form evaluation."""
    analytic, bell, optics = prog.analytic, prog.bell, prog.optics
    quad = bell.reference_quadruple()
    bell.evaluate_quadruple(optics.symmetric_config(0.5, bell.REFERENCE_DPHI), quad)
    analytic.ch_closed(analytic.ClosedFormPoint(quad.xi, quad.eta, 0.5, 0.5))


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in a plain copy of the files, which has no .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "baseline": f"{BASELINE} (frozen copy in perfbench/)",
    }


def timed_run(workload, prog, inputs):
    """The timed call, with the program's own prints captured for the check."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        output = workload.run(prog, inputs)
    return output, buf.getvalue(), time.perf_counter() - start


class Tally:
    """Attempted and failed iterations; a failure is an exception or a
    failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, workload, prog, inputs, output, stdout, span_calls=None):
        """Check one iteration; with `span_calls` (traced span counts by
        name) also require the counts the program reported itself."""
        self.attempted += 1
        try:
            checked = workload.check(prog, inputs, output, stdout)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        problems = list(checked.problems)
        for span, expected in checked.span_counts.items():
            got = span_calls.get(span, 0) if span_calls is not None else expected
            if got != expected:
                problems.append(f"traced {got} {span} calls, program reports {expected}")
        if problems:
            self.failed += 1
            print(f"{workload.name}: check failed: {problems}", file=sys.stderr)
        return checked

    def raised(self):
        self.attempted += 1
        self.failed += 1
        traceback.print_exc()


def _quartiles(values):
    import numpy as np
    if not values:
        return 0.0, 0.0, 0.0
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def measure(workload, live, seed: int, seconds: float) -> dict:
    """Untraced closed loop with one caller. RSS_ITERATIONS checked but
    untimed iterations of the program under test come first; the peak RSS is
    read after them, before the baseline is loaded. Then, after one warm-up
    call of the baseline, each iteration runs its inputs through the
    program under test and the baseline, alternating which goes first, until
    the next pair would end past `seconds` (at least MIN_PAIRS pairs).
    Only the program under test's outputs are checked."""
    tally = Tally()

    def run_live(inputs):
        try:
            output, stdout, wall = timed_run(workload, live, inputs)
        except Exception:
            tally.raised()
            return None
        return wall, tally.check(workload, live, inputs, output, stdout)

    for index in range(RSS_ITERATIONS):
        run_live(workload.inputs(seed, index))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    baseline = load_program(BASELINE)
    warm_up(baseline)
    # the two programs keep separate caches, so this input is not shared
    timed_run(workload, baseline, workload.inputs(seed, 0))

    walls, base_walls, ratios, rates = [], [], [], []
    start = time.perf_counter()
    index = RSS_ITERATIONS
    while True:
        inputs = workload.inputs(seed, index)
        live_first = index % 2 == 0
        index += 1
        pair_start = time.perf_counter()
        if not live_first:
            base_wall = timed_run(workload, baseline, inputs)[2]
        result = run_live(inputs)
        if live_first:
            base_wall = timed_run(workload, baseline, inputs)[2]
        if result is not None:
            wall, checked = result
            walls.append(wall)
            base_walls.append(base_wall)
            ratios.append(wall / base_wall)
            if checked is not None:
                rates.append(checked.evaluations / wall)
        now = time.perf_counter()
        if (index - RSS_ITERATIONS >= MIN_PAIRS
                and now - start + (now - pair_start) > seconds):
            break

    attempted = max(tally.attempted, 1)
    metrics = {
        "wall_vs_baseline": (_quartiles(ratios)[1], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": ((attempted - tally.failed) / attempted, "ratio"),
    }
    notes = []
    for label, values, unit in (("wall_vs_baseline", ratios, ""),
                                ("wall_s", walls, " s"),
                                ("baseline wall_s", base_walls, " s"),
                                ("evals_per_s", rates, " 1/s")):
        q1, median, q3 = _quartiles(values)
        notes.append(f"{label} median={median:.4f} q1={q1:.4f} q3={q3:.4f} "
                     f"n={len(values)}{unit}")
    notes += ["wall_s samples: " + " ".join(f"{w:.4f}" for w in walls),
              "baseline wall_s samples: " + " ".join(f"{w:.4f}" for w in base_walls),
              f"error_rate={tally.failed / attempted:.4f} "
              f"({tally.failed} of {tally.attempted} iterations)"]
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": notes}


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_stime, r.ru_minflt


class TracedRun:
    """Accumulates the untraced and traced passes of a traced run."""

    def __init__(self, workload, live, tally: Tally):
        from tracer import PERCENTILE_SPANS, Tracer

        self.workload = workload
        self.live = live
        self.tally = tally
        self.optics = live.optics
        self.tracer = Tracer([importlib.import_module(PROGRAM)] + [
            importlib.import_module(f"{PROGRAM}.{layer}") for layer in LAYERS])
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations = {span: [] for span in PERCENTILE_SPANS}
        self.acc = dict.fromkeys(
            ("untraced", "untraced_n", "evaluations", "traced", "traced_n",
             "root", "spans",
             "cpu", "sys", "minflt", "pb_hits", "pb_misses", "me_misses",
             "reorder_bytes", "bs_bytes", "output_bytes"), 0.0)
        self.cutoffs: list[int] = []
        self.state_bytes_max = 0
        self.oracle_residual = 0.0

    def untraced_pass(self, inputs) -> None:
        pair_block, mixing_eig = self.optics._pair_block, self.optics._mixing_eig
        pair_block.cache_clear()
        pb0, me0 = pair_block.cache_info(), mixing_eig.cache_info()
        cpu0, sys0, flt0 = _rusage()
        try:
            output, stdout, wall = timed_run(self.workload, self.live, inputs)
        except Exception:
            self.tally.raised()
            return
        cpu1, sys1, flt1 = _rusage()
        pb1, me1 = pair_block.cache_info(), mixing_eig.cache_info()
        checked = self.tally.check(self.workload, self.live, inputs, output, stdout)
        if checked is not None:
            self.acc["evaluations"] += checked.evaluations
        acc = self.acc
        acc["untraced"] += wall
        acc["untraced_n"] += 1
        acc["cpu"] += cpu1 - cpu0
        acc["sys"] += sys1 - sys0
        acc["minflt"] += flt1 - flt0
        acc["pb_hits"] += pb1.hits - pb0.hits
        acc["pb_misses"] += pb1.misses - pb0.misses
        acc["me_misses"] += me1.misses - me0.misses

    def traced_pass(self, inputs) -> None:
        tracer = self.tracer
        self.optics._pair_block.cache_clear()
        tracer.reset()
        tracer.install()
        try:
            output, stdout, wall = timed_run(self.workload, self.live, inputs)
        except Exception:
            self.tally.raised()
            return
        finally:
            tracer.restore()
        summary = tracer.summarize()
        checked = self.tally.check(self.workload, self.live, inputs, output,
                                   stdout, summary["calls"])
        if checked is not None:
            self.oracle_residual = max(self.oracle_residual, checked.oracle_residual)
        acc = self.acc
        acc["traced"] += wall
        acc["traced_n"] += 1
        acc["root"] += summary["root_s"]
        acc["spans"] += summary["spans"]
        for span, value in summary["self_s"].items():
            self.self_s[span] = self.self_s.get(span, 0.0) + value
        for span, value in summary["calls"].items():
            self.calls[span] = self.calls.get(span, 0) + value
        for span, values in summary["durations"].items():
            self.durations[span].append(values)
        acc["reorder_bytes"] += tracer.bytes_moved.get("fock.reorder_modes", 0)
        acc["bs_bytes"] += tracer.bytes_moved.get("optics.apply_beamsplitter", 0)
        acc["output_bytes"] += tracer.output_bytes
        self.cutoffs.extend(tracer.cutoffs)
        self.state_bytes_max = max(self.state_bytes_max, tracer.state_bytes_max)
        tracer.reset()


def measure_traced(workload, live, seed: int, seconds: float,
                   import_s: float) -> dict:
    """Traced run. Each iteration runs its inputs twice, untraced and traced,
    alternating which goes first, each after clearing the program's
    `_pair_block` cache so both passes start alike. The untraced pass gives
    the cache and getrusage deltas and the base for the tracing overhead; the
    traced pass gives the spans. Per-iteration figures are means over passes,
    so the layer self times plus the unattributed time add up to
    trace.wall_s."""
    import numpy as np

    tally = Tally()
    run = TracedRun(workload, live, tally)
    start = time.perf_counter()
    # one unrecorded pass first: the first pass in a process also pays for
    # growing the heap and filling `_mixing_eig`, which would bias the
    # overhead towards whichever pass came first
    try:
        timed_run(workload, live, workload.inputs(seed, 0))
    except Exception:
        tally.raised()
    index = 0
    while True:
        inputs = workload.inputs(seed, index)
        pair_start = time.perf_counter()
        if index % 2 == 0:
            run.untraced_pass(inputs)
            run.traced_pass(inputs)
        else:
            run.traced_pass(inputs)
            run.untraced_pass(inputs)
        index += 1
        pair_wall = time.perf_counter() - pair_start
        if index >= 2 and time.perf_counter() - start + pair_wall > seconds:
            break

    acc, sums, calls, durations = run.acc, run.self_s, run.calls, run.durations
    cutoffs, state_bytes_max = run.cutoffs, run.state_bytes_max
    oracle_residual = run.oracle_residual
    passes = int(acc["traced_n"])
    n = max(passes, 1)

    def per_pass(key):
        return acc[key] / n

    def self_s(*spans):
        return sum(sums.get(s, 0.0) for s in spans) / n

    def layer_self(layer):
        return sum(v for s, v in sums.items() if s.startswith(layer + ".")) / n

    def n_calls(*spans):
        return sum(calls.get(s, 0) for s in spans) / n

    def layer_calls(layer):
        return sum(v for s, v in calls.items() if s.startswith(layer + ".")) / n

    def pct_ms(span, q):
        values = np.concatenate(durations[span]) if durations[span] else []
        return float(np.percentile(values, q) * 1e3) if len(values) else 0.0

    lookups = acc["pb_hits"] + acc["pb_misses"]
    traced_wall = per_pass("traced")
    untraced_passes = max(acc["untraced_n"], 1)
    metrics = {f"{layer}.self_s": (layer_self(layer), "s") for layer in LAYERS}
    metrics.update({
        "fock.coherent_state.self_s": (self_s("fock.coherent_state"), "s"),
        "fock.tensor.self_s": (self_s("fock.tensor"), "s"),
        "fock.reorder_modes.calls": (n_calls("fock.reorder_modes"), "count"),
        "fock.reorder_modes.self_s": (self_s("fock.reorder_modes"), "s"),
        "fock.reorder_modes.bytes": (per_pass("reorder_bytes"), "B"),
        "fock.state_bytes.max": (state_bytes_max, "B"),
        "optics.build_input_state.calls": (n_calls("optics.build_input_state"), "count"),
        "optics.build_input_state.self_s": (self_s("optics.build_input_state"), "s"),
        "optics.apply_beamsplitter.calls": (n_calls("optics.apply_beamsplitter"), "count"),
        "optics.apply_beamsplitter.self_s": (self_s("optics.apply_beamsplitter"), "s"),
        "optics.apply_beamsplitter.p50_ms": (pct_ms("optics.apply_beamsplitter", 50), "ms"),
        "optics.apply_beamsplitter.bytes": (per_pass("bs_bytes"), "B"),
        "optics.alice_half_network.self_s": (self_s("optics.alice_half_network"), "s"),
        "optics.cutoff_n.max": (max(cutoffs, default=0), "count"),
        "optics.cutoff_n.mean": (float(np.mean(cutoffs)) if cutoffs else 0.0, "count"),
        "optics.pair_block.hit_ratio": (acc["pb_hits"] / lookups if lookups else 0.0,
                                        "ratio"),
        "optics.mixing_eig.misses": (acc["me_misses"] / untraced_passes, "count"),
        "detection.calls": (layer_calls("detection"), "count"),
        "bell.evaluate_settings.calls": (n_calls("bell.evaluate_settings"), "count"),
        "bell.evaluate_settings.self_s": (self_s("bell.evaluate_settings"), "s"),
        "bell.evaluate_settings.p50_ms": (pct_ms("bell.evaluate_settings", 50), "ms"),
        "bell.evaluate_settings.p90_ms": (pct_ms("bell.evaluate_settings", 90), "ms"),
        "bell.split.self_s": (self_s(*(f"bell.{s}" for s in SPLIT_SPANS)), "s"),
        "bell.oracle.max_residual": (oracle_residual, "1"),
        "analytic.calls": (layer_calls("analytic"), "count"),
        "scan.evaluate_point.calls": (n_calls("scan.evaluate_point"), "count"),
        "scan.evaluate_point.p50_ms": (pct_ms("scan.evaluate_point", 50), "ms"),
        "scan.evaluate_point.p99_ms": (pct_ms("scan.evaluate_point", 99), "ms"),
        "scan.optimizer.self_s": (self_s("scan.maximize_chsh"), "s"),
        "cli.figure_rows.self_s": (self_s("cli.figure_rows"), "s"),
        "cli.output.self_s": (self_s("cli.output"), "s"),
        "cli.output.bytes": (per_pass("output_bytes"), "B"),
        "cli.import_s": (import_s, "s"),
        "proc.cpu_s": (acc["cpu"] / untraced_passes, "s"),
        "proc.sys_s": (acc["sys"] / untraced_passes, "s"),
        "proc.minflt": (acc["minflt"] / untraced_passes, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (acc["untraced"] / untraced_passes, "s"),
        "trace.evals_per_s": (acc["evaluations"] / acc["untraced"]
                              if acc["untraced"] else 0.0, "1/s"),
        "trace.overhead_s": (traced_wall - acc["untraced"] / untraced_passes, "s"),
        "trace.unattributed_s": (traced_wall - per_pass("root"), "s"),
        "trace.spans": (per_pass("spans"), "count"),
    })
    notes = [f"traced passes={passes}; per pass: traced wall {traced_wall:.4f} s, "
             f"layer self times sum {sum(layer_self(l) for l in LAYERS):.4f} s, "
             f"unattributed {traced_wall - per_pass('root'):.6f} s",
             "bytes are computed from array sizes (input plus output nbytes), "
             "not measured traffic"]
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and warm up the program, print 'ready', exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_build" / "perfbench"))
    args = parser.parse_args(argv)

    start = time.perf_counter()
    importlib.import_module(f"{PROGRAM}.cli")
    import_s = time.perf_counter() - start
    live = load_program(PROGRAM)
    warm_up(live)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](out_dir)
    if args.trace:
        result = measure_traced(workload, live, args.seed, args.seconds, import_s)
    else:
        result = measure(workload, live, args.seed, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
