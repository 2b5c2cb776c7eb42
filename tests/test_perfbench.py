"""The benchmark's own smoke test, run against the sources in this tree.

perfbench's traced run reads names in the package (optics._pair_block and
_mixing_eig, the detection module) and checks span counts of run_network,
evaluate_quadruple, ch_closed and evaluate_point against counts the program
reports. It also calls scan.maximize_chsh(kind, restarts, seed, maxfev=...)
on the program and on its frozen baseline alike, so that signature is
pinned too. A source change that breaks any of these fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
