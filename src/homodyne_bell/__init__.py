"""Simulator and verifier for single-photon homodyne Bell tests.

Two independent evaluation routes for the same experiment: truncated
Fock-space numerics (fock, optics, detection, bell) and closed forms
(analytic), cross-validated against each other and sharing no code; plus
constrained CHSH maximization (scan) and a CLI (cli). The numerics mix
what each station holds, its truncated oscillator with 0 or 1 photon on
the ph port, with one splitter (optics.mix_station), one pass over all of
a network's settings, and read every setting of a pass out with one call
of the Born-rule readout (detection.read_pass), which also decides the
term order: the station engine assembles Bell records from them (bell),
and the verification oracles' network (optics.run_network, used only by
the cli) returns the probabilities the closed forms are checked against.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user has chosen a thread count: the products
# here are small, and spare threads spin more CPU than they save in wall
# time. Set before the first numpy import, which reads these variables.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .fock import CutoffSpec, coherent_state, required_cutoff
from .optics import ExperimentConfig, mix_station, symmetric_config
from .bell import (
    BellRecord,
    SettingsQuadruple,
    StateSplit,
    evaluate_quadruple,
    split_state,
    tsirelson_two_qubit,
)
from .analytic import (
    ClosedFormPoint,
    ch_chsh_general,
    ch_closed,
    chsh_closed,
    probs_general,
)
from .scan import ScanRecord, maximize_chsh

__all__ = [
    "__version__",
    "CutoffSpec", "coherent_state", "required_cutoff",
    "ExperimentConfig", "mix_station", "symmetric_config",
    "BellRecord", "SettingsQuadruple", "StateSplit", "evaluate_quadruple",
    "split_state", "tsirelson_two_qubit",
    "ClosedFormPoint", "ch_chsh_general", "ch_closed", "chsh_closed",
    "probs_general",
    "ScanRecord", "maximize_chsh",
]
