"""MUSCL face reconstruction with van Leer's limited slope.

Every cell gets one limited slope s from its two one-sided differences; the
left state of the face on its right is w + s/2 and the right state of the
face on its left is w - s/2 (second order where the data are smooth,
nearest-cell values at an extremum or next to a flat difference).  Both
sides come out as one C-contiguous (3, 2, n+1) array, the layout the flux
kernels take: each primitive row ``faces[k]`` is one (2, n+1) block
(notes/decisions.md sections 15 and 21).
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState

__all__ = ["reconstruct_faces"]

# The ghost cells' half-slopes: w + -0.0 and w - +0.0 are w bit for bit
_GHOST_HALVES = np.array([-0.0, 0.0])


def reconstruct_faces(wp: np.ndarray) -> np.ndarray:
    """Both primitive states at the n+1 faces of n cells, as one (3, 2, n+1)
    array: ``faces[:, 0]`` face-left and ``faces[:, 1]`` face-right.

    ``wp`` holds (3, n + 2) cell-center primitives: the n cells between one
    ghost cell at each end, a copy of the edge cell for a zero-gradient
    boundary.  Each component (rho, u, p) is reconstructed independently,
    and the boundary faces take the ghost cells' states.  A cell with left
    and right differences d_m and d_p has van Leer's half-slope
    d_m d_p / (d_m + d_p) where d_m d_p > 0, and 0 elsewhere (J. Comput.
    Phys. 14, 1974): phi(r) d_m / 2 with phi(r) = (r + |r|) / (1 + |r|) and
    r = d_p / d_m.  It is symmetric in d_m and d_p, so the one slope serves
    both of the cell's faces.  The solver's window rests on the zero slope
    next to a flat difference: its end cells never move (``solver._grow``).

    Raises ``NonPhysicalState``, naming a face with a non-positive or NaN
    density or pressure on either side.  Every cell i is a face state twice,
    as w_i + h_i (face-left of face i + 1) and as w_i - h_i (face-right of
    face i); whatever its half-slope h_i, one of the two is at most w_i, and
    a NaN in w_i gives NaN in both.  So any cell of non-positive or NaN
    density or pressure makes this raise, and the solver relies on that to
    check a step's cells (notes/decisions.md section 13).
    """
    n = wp.shape[1] - 2
    # d[:, k] = wp_k - wp_{k-1}, one subtraction; column 0 stays 0.  Cell i
    # is column i + 1 of d and of ``half``, in one zeroed buffer.
    buf = np.zeros((2, 3, n + 2))
    d, half = buf[0], buf[1]
    np.subtract(wp[:, 1:], wp[:, :-1], out=d[:, 1:])
    # The rows laid end to end put each cell's d_m and d_p side by side; the
    # ghost columns get the pairs that span rows, and are set after.
    d_m, d_p = d.ravel()[:-1], d.ravel()[1:]
    q = half.ravel()[:-1]
    # Dividing before the product keeps differences near 1e154 from
    # overflowing it; the product in the mask may overflow (numpy warns),
    # but its sign holds.
    np.divide(d_p, d_m + d_p, out=q, where=d_m * d_p > 0.0)
    np.multiply(d_m, q, out=q)
    half[:, :: n + 1] = _GHOST_HALVES

    faces = np.empty((3, 2, n + 1))
    np.add(wp[:, :-1], half[:, :-1], out=faces[:, 0])
    np.subtract(wp[:, 1:], half[:, 1:], out=faces[:, 1])

    # Density and pressure rows of both sides at once; a NaN fails "> 0" too.
    if np.minimum.reduce(faces[::2], axis=None) > 0.0:
        return faces
    # The face-left row comes first, so a failing left state is named first.
    bad = ~((faces[0] > 0.0) & (faces[2] > 0.0))
    side, face = divmod(int(bad.argmax()), bad.shape[1])
    raise NonPhysicalState(
        f"reconstructed face-{('left', 'right')[side]} state has non-positive density or pressure",
        face=face,
    )
