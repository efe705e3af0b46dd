"""MUSCL face reconstruction with van Leer's limited slope.

Every cell gets one limited slope s from its two one-sided differences; the
left state of the face on its right is w + s/2 and the right state of the
face on its left is w - s/2 (second order where the data are smooth,
nearest-cell values at an extremum or next to a flat difference).  Both
sides come out as one C-contiguous (3, 2, n+1) array, the layout the flux
kernels take: each primitive row ``faces[k]`` is one (2, n+1) block.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState

__all__ = ["reconstruct_faces"]


def reconstruct_faces(w: np.ndarray) -> np.ndarray:
    """Both primitive states at all n+1 faces of a grid, as one (3, 2, n+1)
    array: ``faces[:, 0]`` face-left and ``faces[:, 1]`` face-right.

    ``w`` holds (3, n) cell-center primitives; each component (rho, u, p) is
    reconstructed independently, and the boundary faces copy the edge cells.
    A cell with left and right differences d_m and d_p has van Leer's
    half-slope d_m d_p / (d_m + d_p) where d_m d_p > 0, and 0 elsewhere
    (J. Comput. Phys. 14, 1974): phi(r) d_m / 2 with phi(r) = (r + |r|) /
    (1 + |r|) and r = d_p / d_m.  It is symmetric in d_m and d_p, so the one
    slope serves both of the cell's faces.

    Raises ``NonPhysicalState``, naming a face with a non-positive or NaN
    density or pressure on either side.  Every cell i is a face state twice,
    as w_i + h_i (face-left of face i + 1) and as w_i - h_i (face-right of
    face i); whatever its half-slope h_i, one of the two is at most w_i, and
    a NaN in w_i gives NaN in both.  So any cell of non-positive or NaN
    density or pressure makes this raise, and the solver relies on that to
    check a step's cells (notes/decisions.md section 13).
    """
    w = np.asarray(w, dtype=float)
    # One ghost cell per side, a copy of the nearest interior cell.
    ext = np.concatenate([w[:, :1], w, w[:, -1:]], axis=1)
    # d[:, i] = w_i - w_{i-1}; the ghost copies make both end columns 0.
    d = ext[:, 1:] - ext[:, :-1]
    d_m, d_p = d[:, :-1], d[:, 1:]
    # Dividing before the product keeps differences near 1e154 from
    # overflowing it; the product in the mask may overflow (numpy warns),
    # but its sign holds.
    half = d_m * np.divide(d_p, d_m + d_p, out=np.zeros(d_m.shape), where=d_m * d_p > 0.0)

    faces = np.empty((3, 2, d.shape[1]))
    faces[:, 0, 0] = w[:, 0]
    np.add(w, half, out=faces[:, 0, 1:])
    np.subtract(w, half, out=faces[:, 1, :-1])
    faces[:, 1, -1] = w[:, -1]

    # Density and pressure rows of both sides at once; a NaN fails "> 0" too.
    if np.minimum.reduce(faces[::2], axis=None) > 0.0:
        return faces
    # The face-left row comes first, so a failing left state is named first.
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or "
        f"pressure at face {face}",
        face=face,
    )
