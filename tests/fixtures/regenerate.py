"""Rewrite the pinned command outputs in this directory through cli.main.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/regenerate.py

tests/test_cli.py compares each command's report and stdout with these
files byte for byte. A change that moves an output on purpose regenerates
them and lists every changed key in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from homodyne_bell.cli import main

FIXTURES = Path(__file__).resolve().parent

# fixture name -> the split run's config file payload (None: no file)
SPLIT_FIXTURES = {
    "split_default": None,
    "split_alpha3.5_phi0.4": {"alpha_sq": 3.5, "phi2": 0.4},
}


def split_args(payload, out, workdir) -> list[str]:
    """cli.main arguments of a split run writing `out`, its config file
    (if any) written into workdir."""
    args = ["split", "--out", str(out)]
    if payload is not None:
        config = Path(workdir) / "config.json"
        config.write_text(json.dumps(payload))
        args += ["--config", str(config)]
    return args


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, payload in SPLIT_FIXTURES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(split_args(payload, FIXTURES / f"{name}.json", workdir))
            if code != 0:
                print(f"{name}: split exited {code}", file=sys.stderr)
                return code
            (FIXTURES / f"{name}.stdout").write_text(stdout.getvalue(),
                                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
