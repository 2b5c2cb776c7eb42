"""Index readout of the dense network output, the last step of the
brute-force route: closed station columns -> dense output
(optics.run_network) -> the probabilities read here.

A station's favorable event is exactly one photon at its counting port c
and none at its veto port d; that outcome is assigned -1, everything else
+1. On an output out[c1, d1, c2, d2] the favorable weights are plain index
slices: out[1, 0] for Alice, out[:, :, 1, 0] for Bob, out[1, 0, 1, 0] for
both.

Probabilities are Born-rule probabilities conditional on the truncated
space: each is divided by <psi|psi>, so an output that lost probability to
photon-number truncation still gives p_A, p_B, p_AB and their complements
one shared normalization.
"""

from __future__ import annotations

import numpy as np


def favorable_probs(out: np.ndarray) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of a dense output out[c1, d1, c2, d2]:
    the favorable probability at Alice, at Bob and at both at once, each
    conditional on the truncated space, and the norm they are divided by."""
    if out.ndim != 4 or len(set(out.shape)) != 1 or out.shape[0] < 2:
        raise ValueError("expected a dense output [c1, d1, c2, d2] with one "
                         f"cutoff >= 1 on every mode, got shape {out.shape}")
    norm_sq = float(np.vdot(out, out).real)
    p_a = float(np.sum(np.abs(out[1, 0]) ** 2)) / norm_sq
    p_b = float(np.sum(np.abs(out[:, :, 1, 0]) ** 2)) / norm_sq
    p_ab = float(abs(out[1, 0, 1, 0]) ** 2) / norm_sq
    return p_a, p_b, p_ab, norm_sq
