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
    abs_r = np.abs(r)
    phi = (r + abs_r) / (1.0 + abs_r)
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

    # One difference array serves all three differences of every face:
    # d_m = v_m - v_mm, d_c = v_p - v_m and d_p = v_pp - v_p are its slices.
    d = ext[:, 1:] - ext[:, :-1]
    d_m = d[:, 0 : n + 1]
    d_c = d[:, 1 : n + 2]
    d_p = d[:, 2 : n + 3]
    # A one-sided difference at or below EPSILON zeroes its ratio, which in
    # turn shuts the limiter off and drops that side to first order.
    dead = np.abs(d) <= EPSILON
    safe = np.where(dead, 1.0, d)
    r_l = np.where(dead[:, 0 : n + 1], 0.0, d_c / safe[:, 0 : n + 1])
    r_r = np.where(dead[:, 2 : n + 3], 0.0, d_c / safe[:, 2 : n + 3])

    face_l = ext[:, 1 : n + 2] + 0.5 * limiter(r_l) * d_m
    face_r = ext[:, 2 : n + 3] - 0.5 * limiter(r_r) * d_p

    for name, face in (("left", face_l), ("right", face_r)):
        # Density and pressure rows at once; a NaN fails "> 0" too.
        if face[::2].min() > 0.0:
            continue
        bad = int(np.argmax(~((face[0] > 0.0) & (face[2] > 0.0))))
        raise NonPhysicalState(
            f"reconstructed face-{name} state has non-positive density or "
            f"pressure at face {bad}",
            face=bad,
        )
    return face_l, face_r
