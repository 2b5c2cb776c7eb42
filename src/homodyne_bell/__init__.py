"""Simulator and verifier for single-photon homodyne Bell tests.

Two independent evaluation routes for the same experiment: brute-force
truncated Fock-space numerics (fock, optics, detection, bell) and closed
forms for the symmetric network (analytic), cross-validated against each
other; plus grid scans and constrained CHSH maximization (scan) and a CLI
(cli).
"""

__version__ = "0.1.0"

from .fock import (
    CutoffSpec,
    StateVector,
    amplitude_of,
    coherent_state,
    fock_basis_state,
    inner,
    required_cutoff,
    tensor,
)
from .optics import (
    ExperimentConfig,
    apply_beamsplitter,
    build_input_state,
    run_network,
    symmetric_config,
)
from .detection import (
    Station,
    correlator,
    joint_favorable_prob,
    outcome_distribution,
    station_favorable_prob,
)
from .bell import (
    BellRecord,
    SettingsQuadruple,
    StateSplit,
    chsh_on_component,
    evaluate_quadruple,
    split_state,
    tsirelson_two_qubit,
)
from .analytic import (
    ClosedFormPoint,
    ch_closed,
    chsh_closed,
    joint_prob_closed,
    local_prob_closed,
)
from .scan import ScanRecord, grid_scan, maximize_chsh

__all__ = [
    "__version__",
    "CutoffSpec", "StateVector", "amplitude_of", "coherent_state",
    "fock_basis_state", "inner", "required_cutoff", "tensor",
    "ExperimentConfig", "apply_beamsplitter",
    "build_input_state", "run_network", "symmetric_config",
    "Station", "correlator", "joint_favorable_prob", "outcome_distribution",
    "station_favorable_prob",
    "BellRecord", "SettingsQuadruple", "StateSplit", "chsh_on_component",
    "evaluate_quadruple", "split_state", "tsirelson_two_qubit",
    "ClosedFormPoint", "ch_closed", "chsh_closed", "joint_prob_closed",
    "local_prob_closed",
    "ScanRecord", "grid_scan", "maximize_chsh",
]
