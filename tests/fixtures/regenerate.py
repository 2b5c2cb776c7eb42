"""Rewrite the pinned command outputs in this directory through cli.main.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/regenerate.py

tests/test_cli.py compares each command's report and stdout with these
files byte for byte, and the default figure grid's CSV with its sha256. A
change that moves an output on purpose regenerates them and lists every
changed key in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from homodyne_bell.cli import main

FIXTURES = Path(__file__).resolve().parent

# fixture name -> (the run's cli.main arguments before --out and --config,
# its config file payload or None for no file)
FIXTURE_RUNS = {
    "split_default": (["split"], None),
    "split_alpha3.5_phi0.4": (["split"], {"alpha_sq": 3.5, "phi2": 0.4}),
    "verify_default": (["verify"], None),
    "figure_grid20x20": (["figure", "--grid", "20x20"], None),
    "figure_default": (["figure"], None),
    "optimize_paper_baseline": (["optimize", "--family", "paper_baseline"], None),
    "optimize_relaxed_phases": (["optimize", "--family", "relaxed_phases"], None),
    "optimize_relaxed_amplitudes": (
        ["optimize", "--family", "relaxed_amplitudes"], None),
}
# each fixture pins its run's stdout in <name>.stdout and its report in
# <name>.json, or <name>.csv for figure; these pin the report by its sha256
# alone, in <name>.sha256 (the default 200x200 grid is 2.9 MB of CSV)
DIGEST_FIXTURES = {"figure_default"}


def report_name(name: str) -> str:
    """The file name of a fixture's pinned report."""
    return name + (".csv" if FIXTURE_RUNS[name][0][0] == "figure" else ".json")


def fixture_args(name, out, workdir) -> list[str]:
    """cli.main arguments of the fixture's run writing `out`, its config
    file (if any) written into workdir."""
    args, payload = FIXTURE_RUNS[name]
    args = [*args, "--out", str(out)]
    if payload is not None:
        config = Path(workdir) / "config.json"
        config.write_text(json.dumps(payload))
        args += ["--config", str(config)]
    return args


def run(name, out, workdir) -> tuple[int, str]:
    """The fixture's run: its exit code and its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(fixture_args(name, out, workdir))
    return code, stdout.getvalue()


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name in FIXTURE_RUNS:
            digest = name in DIGEST_FIXTURES
            out = Path(workdir) / "report" if digest else FIXTURES / report_name(name)
            code, stdout = run(name, out, workdir)
            if code != 0:
                print(f"{name}: exited {code}", file=sys.stderr)
                return code
            if digest:
                (FIXTURES / f"{name}.sha256").write_text(
                    hashlib.sha256(out.read_bytes()).hexdigest() + "\n",
                    encoding="utf-8")
            (FIXTURES / f"{name}.stdout").write_text(stdout, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
