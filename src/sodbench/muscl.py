"""MUSCL face reconstruction with the van Leer flux limiter.

Left/right fictitious primitive values at every face are built from the four
surrounding cell centers: limited upwind-biased extrapolation from the two
cells on the same side of the face (second-order upwind when the limiter is
fully open, nearest-cell values when it shuts near a discontinuity).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonPhysicalState

__all__ = ["EPSILON", "van_leer_limiter", "reconstruct_faces"]

# Zero-gradient guard threshold. Fixed value rather than the host epsilon so
# results are reproducible bit for bit across platforms.
EPSILON = 2.22e-16


def van_leer_limiter(r):
    """phi(r) = (r + |r|) / (1 + |r|); zero for r <= 0, approaches 2 at large r."""
    r = np.asarray(r, dtype=float)
    phi = (r + np.abs(r)) / (1.0 + np.abs(r))
    return float(phi) if phi.ndim == 0 else phi


def _extend_zero_gradient(w: np.ndarray) -> np.ndarray:
    """Two ghost cells per side, copies of the nearest interior cell."""
    return np.concatenate([w[:, :1], w[:, :1], w, w[:, -1:], w[:, -1:]], axis=1)


def reconstruct_faces(
    w: np.ndarray, limiter: Callable = van_leer_limiter
) -> tuple[np.ndarray, np.ndarray]:
    """Face-left and face-right primitive values at all n+1 faces of a grid.

    ``w`` holds (3, n) cell-center primitives; each component (rho, u, p) is
    reconstructed independently.  Faces near the boundary see zero-gradient
    ghost extensions, which leaves the boundary fluxes consistent with the
    edge cells.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[1]
    ext = _extend_zero_gradient(w)

    v_mm = ext[:, 0 : n + 1]
    v_m = ext[:, 1 : n + 2]
    v_p = ext[:, 2 : n + 3]
    v_pp = ext[:, 3 : n + 4]

    d_m = v_m - v_mm
    d_c = v_p - v_m
    d_p = v_pp - v_p
    # A one-sided difference at or below EPSILON zeroes its ratio, which in
    # turn shuts the limiter off and drops that side to first order.
    dead_m = np.abs(d_m) <= EPSILON
    dead_p = np.abs(d_p) <= EPSILON
    r_l = np.where(dead_m, 0.0, d_c / np.where(dead_m, 1.0, d_m))
    r_r = np.where(dead_p, 0.0, d_c / np.where(dead_p, 1.0, d_p))

    face_l = v_m + 0.5 * limiter(r_l) * d_m
    face_r = v_p - 0.5 * limiter(r_r) * d_p

    for name, face in (("left", face_l), ("right", face_r)):
        # "not > 0" so that NaN is caught too
        not_positive = ~((face[0] > 0.0) & (face[2] > 0.0))
        if np.any(not_positive):
            bad = int(np.argmax(not_positive))
            raise NonPhysicalState(
                f"reconstructed face-{name} state has non-positive density or "
                f"pressure at face {bad}",
                cell=bad,
            )
    return face_l, face_r
