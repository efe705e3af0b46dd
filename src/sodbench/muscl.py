"""MUSCL face reconstruction with the van Leer flux limiter.

Every cell gets one limited slope s from its two one-sided differences; the
left state of the face on its right is w + s/2 and the right state of the
face on its left is w - s/2 (second-order upwind when the limiter is fully
open, nearest-cell values when it shuts near a discontinuity).  Both sides
come out as one C-contiguous (3, 2, n+1) array, the layout the flux kernels
take: each primitive row ``faces[k]`` is one (2, n+1) block.
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


def reconstruct_faces(w: np.ndarray, limiter: Callable = van_leer_limiter) -> np.ndarray:
    """Both primitive states at all n+1 faces of a grid, as one (3, 2, n+1)
    array: ``faces[:, 0]`` face-left and ``faces[:, 1]`` face-right.

    ``w`` holds (3, n) cell-center primitives; each component (rho, u, p) is
    reconstructed independently, and the boundary faces copy the edge cells.
    ``limiter`` is called once, on the (3, n) ratios r = d_p / d_m of each
    cell's right and left differences; the cell's slope phi(r) d_m serves both
    its faces.  That needs a symmetric limiter, phi(r) / r = phi(1 / r), as van
    Leer's is: then phi(r) d_m = phi(1 / r) d_p, the slope seen from the right.
    """
    w = np.asarray(w, dtype=float)
    # One ghost cell per side, a copy of the nearest interior cell.
    ext = np.concatenate([w[:, :1], w, w[:, -1:]], axis=1)
    # d[:, i] = w_i - w_{i-1}; the ghost copies make both end columns 0.
    d = ext[:, 1:] - ext[:, :-1]
    d_m = d[:, :-1]
    # A difference at or below EPSILON on either side zeroes the cell's
    # ratio, which shuts the limiter off and drops the cell to first order.
    dead = np.abs(d) <= EPSILON
    r = np.where(dead[:, :-1] | dead[:, 1:], 0.0, d[:, 1:] / np.where(dead[:, :-1], 1.0, d_m))
    half = 0.5 * limiter(r) * d_m

    faces = np.empty((3, 2, d.shape[1]))
    faces[:, 0, 0] = w[:, 0]
    np.add(w, half, out=faces[:, 0, 1:])
    np.subtract(w, half, out=faces[:, 1, :-1])
    faces[:, 1, -1] = w[:, -1]

    # Density and pressure rows of both sides at once; a NaN fails "> 0" too.
    if faces[::2].min() > 0.0:
        return faces
    # The face-left row comes first, so a failing left state is named first.
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or "
        f"pressure at face {face}",
        face=face,
    )
