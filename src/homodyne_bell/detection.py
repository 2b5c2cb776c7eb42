"""Born-rule readout of the factored network, the last step of the
brute-force route: closed station columns -> factored network
(optics.run_network) -> the probabilities read here.

A station's favorable event is exactly one photon at its counting port c
and none at its veto port d; that outcome is assigned -1, everything else
+1. The network comes as the factors (U_A, X, U_B) of the output
out = U_A X U_B^T, whose row f = N + 1 is Alice's favorable occupation
|1, 0> and whose column f is Bob's. The favorable weights are contractions
of the factors, so the (N+1)^4 output is never built:

    <psi|psi>      = ||out||^2       = vdot(X, G_A X G_B^T),  G = U^H U
    p_A <psi|psi>  = ||out[f, :]||^2 = ||U_B (U_A[f] X)||^2
    p_B <psi|psi>  = ||out[:, f]||^2 = ||U_A (X U_B[f])||^2
    p_AB <psi|psi> = |out[f, f]|^2   = |U_A[f] X U_B[f]|^2

X is read as a general matrix and the columns are not taken to be
unitary: each station's Gram matrix G carries what its columns lose at the
cutoff edge into the norm.

Probabilities are Born-rule probabilities conditional on the truncated
space: each is divided by <psi|psi>, so an output that lost probability to
photon-number truncation still gives p_A, p_B, p_AB and their complements
one shared normalization.
"""

from __future__ import annotations

import numpy as np


def favorable_probs(network: tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> tuple[float, float, float, float]:
    """(p_A, p_B, p_AB, <psi|psi>) of a factored network (u_a, x, u_b) as
    optics.run_network returns it: the favorable probability at Alice, at
    Bob and at both at once, each conditional on the truncated space, and
    the norm they are divided by."""
    u_a, x, u_b = network
    stride = x.shape[0] // 2 if x.ndim == 2 else 0
    if (stride < 2 or x.shape != (2 * stride,) * 2
            or u_a.shape != (stride * stride, 2 * stride) or u_b.shape != u_a.shape):
        raise ValueError("expected factors u_a, u_b of shape ((N+1)^2, 2(N+1)) "
                         "and x of shape (2(N+1), 2(N+1)) with one cutoff N >= 1, "
                         f"got {u_a.shape}, {x.shape}, {u_b.shape}")
    fav = stride  # flat output index of (c, d) = (1, 0)
    gram_a = u_a.conj().T @ u_a
    gram_b = u_b.conj().T @ u_b
    norm_sq = float(np.vdot(x, gram_a @ x @ gram_b.T).real)
    alice_row = u_b @ (u_a[fav] @ x)
    bob_column = u_a @ (x @ u_b[fav])
    p_a = float(np.vdot(alice_row, alice_row).real) / norm_sq
    p_b = float(np.vdot(bob_column, bob_column).real) / norm_sq
    p_ab = float(abs(u_a[fav] @ x @ u_b[fav]) ** 2) / norm_sq
    return p_a, p_b, p_ab, norm_sq
