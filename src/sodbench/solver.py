"""Godunov explicit time integration on a uniform 1D grid.

Conserved variables are advanced with the conservative update
q_i^{n+1} = q_i^n - (dt/dx)(F_{i+1/2} - F_{i-1/2}); face fluxes come from
MUSCL-reconstructed primitive values fed to the configured flux method.  The
time step is fixed (derived once from the target Courant number); the solver
only monitors the Courant number actually reached.

A step marches only the window: the cells within two cells of an interface
whose two conserved states differ.  Every other cell sees a uniform 5-cell
stencil, so its update is exactly 0 (``notes/decisions.md`` section 10).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NoConvergence, NonPhysicalState, VacuumGenerated
from .fluxes import FluxMethod, compute_face_flux
from .gas import GasModel, PrimitiveState, conserved_array, primitive_array, require_real, sound_speed_array
from .muscl import reconstruct_faces

__all__ = [
    "SOD_LEFT",
    "SOD_RIGHT",
    "Grid1D",
    "RunConfig",
    "SolutionField",
    "advance",
    "derive_dt",
    "initialize_sod",
    "step_count",
    "run",
    "sweep_config",
]

SOD_LEFT = PrimitiveState(rho=1.0, u=0.0, p=1.0)
SOD_RIGHT = PrimitiveState(rho=0.125, u=0.0, p=0.1)


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid; centers sit at x_min + (i - 1/2) dx."""

    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 200

    def __post_init__(self):
        require_real(self, "x_min", "x_max")
        # A width that overflows also catches non-finite bounds.
        if not (self.x_max > self.x_min and math.isfinite(self.x_max - self.x_min)):
            raise InvalidConfig(
                f"x_max must exceed x_min by a finite width, got [{self.x_min}, {self.x_max}]"
            )
        try:
            operator.index(self.n_cells)
        except TypeError:
            raise InvalidConfig(f"cell count must be an integer, got {self.n_cells!r}") from None
        if self.n_cells < 4:
            raise InvalidConfig(f"need at least 4 cells for the MUSCL stencil, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class RunConfig:
    """One shock-tube run: grid, gas, flux method, and time marching."""

    method: FluxMethod = FluxMethod.RIEMANN
    grid: Grid1D = field(default_factory=Grid1D)
    gas: GasModel = field(default_factory=GasModel)
    dt: float = 0.001
    t_final: float = 0.2
    jump_position: float = 0.5
    left: PrimitiveState = SOD_LEFT
    right: PrimitiveState = SOD_RIGHT

    def __post_init__(self):
        for name, kind in (
            ("method", FluxMethod),
            ("grid", Grid1D),
            ("gas", GasModel),
            ("left", PrimitiveState),
            ("right", PrimitiveState),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidConfig(f"{name} must be a {kind.__name__}, got {value!r}")
        require_real(self, "dt", "t_final", "jump_position")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidConfig(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise InvalidConfig(f"t_final must be non-negative and finite, got {self.t_final}")
        if not math.isfinite(self.jump_position):
            raise InvalidConfig(f"jump position must be finite, got {self.jump_position}")


@dataclass(frozen=True)
class SolutionField:
    """Conserved cell data at one time, plus the Courant maximum seen so far."""

    time: float
    cells: np.ndarray  # (3, n_cells) rows of mass, momentum, energy
    max_courant_observed: float = 0.0

    def primitives(self, gas: GasModel) -> np.ndarray:
        return primitive_array(self.cells, gas.gamma)


def derive_dt(co_max_target: float, dx: float, s_max_estimate: float) -> float:
    """dt = Co_max dx / S_max."""
    if not 0.0 < co_max_target < 1.0:
        raise InvalidConfig(f"target Courant number must lie in (0, 1), got {co_max_target}")
    if not (math.isfinite(s_max_estimate) and s_max_estimate > 0.0):
        raise InvalidConfig(
            f"wave speed estimate s_max must be positive and finite, got {s_max_estimate}"
        )
    if not (math.isfinite(dx) and dx > 0.0):
        raise InvalidConfig(f"cell width dx must be positive and finite, got {dx}")
    dt = co_max_target * dx / s_max_estimate
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidConfig(
            f"derived dt must be positive and finite, got {dt} from dx = {dx}"
            f" and s_max = {s_max_estimate}"
        )
    return dt


def _step_data(cfg: RunConfig) -> tuple[np.ndarray, int]:
    """The conserved cells of the step data in ``q[:, 1:-1]`` of a buffer
    ``q`` with a ghost column at each end (set by ``_march``), and the
    number of cells left of the jump: those whose center lies below it."""
    grid = cfg.grid
    x_min, dx = float(grid.x_min), float(grid.dx)
    # The centers rise, so the left cells are a prefix.  Each center is
    # computed in the IEEE operations of Grid1D.centers(), so the count is
    # bitwise np.searchsorted(grid.centers(), x0), tied centers included,
    # and a center equal to the jump counts as right.
    n_left = bisect.bisect_left(
        range(grid.n_cells), float(cfg.jump_position), key=lambda i: x_min + (i + 0.5) * dx
    )
    states = conserved_array(np.array([cfg.left.array, cfg.right.array]).T, cfg.gas.gamma)
    q = np.empty((3, grid.n_cells + 2))
    cells = q[:, 1:-1]
    cells[:, :n_left] = states[:, :1]
    cells[:, n_left:] = states[:, 1:]
    return q, n_left


def initialize_sod(cfg: RunConfig) -> SolutionField:
    """Step data: left state where the cell center is left of the jump."""
    return SolutionField(time=0.0, cells=_step_data(cfg)[0][:, 1:-1], max_courant_observed=0.0)


def _cells_hold(w: np.ndarray) -> bool:
    # Every density and pressure of primitive cells ``w`` positive and finite (NaN fails)
    return np.minimum.reduce(w[::2], axis=None) > 0.0 and np.maximum.reduce(w[::2], axis=None) < np.inf


def _check_positive(w: np.ndarray, step_index: int, lo: int) -> None:
    # ``w``: the window from cell lo and a cell beyond each end, the first
    # standing for cell 0 (see ``_march``)
    if _cells_hold(w):
        return
    j = int(np.argmin(((w[::2] > 0.0) & (w[::2] < np.inf)).all(axis=0)))
    cell = lo + j - 1 if j else 0
    raise NonPhysicalState("solver produced non-positive density/pressure", cell=cell, step=step_index)


# Cells of checked windows whose Courant signal is taken in one pass
# (notes/decisions.md section 13).  Fixed, so the buffer does not grow with
# the grid.
_SIGNAL_BATCH = 2048


def _signal_peak(w: np.ndarray, gamma: float) -> float:
    """The largest |u| + a over primitive cells ``w``."""
    return float(np.maximum.reduce(np.abs(w[1]) + sound_speed_array(w, gamma)))


def _window(q: np.ndarray, start: int, stop: int) -> tuple[int, int]:
    """Cells [lo, hi) within two cells of an interface among cells
    [start, stop) whose conserved states differ; all cells when none does."""
    jumps = (q[:, start + 1 : stop] != q[:, start : stop - 1]).any(axis=0).nonzero()[0]
    if jumps.size == 0:
        return 0, q.shape[1]
    # jumps[j] lies between cells start + j and start + j + 1
    return max(start + int(jumps[0]) - 1, 0), min(start + int(jumps[-1]) + 3, q.shape[1])


def _grow(q: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """The window after a step that updated its cells [lo, hi) in ``q``.

    An end away from a wall holds two copies of its block (cells lo and
    lo + 1, or hi - 2 and hi - 1), whose half-slopes are 0 (see
    ``reconstruct_faces``): the end cell's update is exactly 0, so it never
    moves.  Where the inner cell moved, the end grows by one cell.  The
    (3, 2) end slices compare as Python floats, which agree with numpy's !=
    on NaN and on -0.0 (notes/decisions.md sections 10 and 20)."""
    n = q.shape[1]
    if lo > 0:
        end, inner = q[:, lo : lo + 2].T.tolist()
        if inner != end:
            lo -= 1
    if hi < n:
        inner, end = q[:, hi - 2 : hi].T.tolist()
        if inner != end:
            hi += 1
    return lo, hi


def advance(field: SolutionField, cfg: RunConfig, n_steps: int) -> SolutionField:
    """March ``n_steps`` conservative updates of dt; steps are numbered from
    0 in failure reports.  The incoming field is checked once: its cells
    must be a (3, n_cells) array of ``cfg``'s grid, and positive.

    The field is copied between two ghost columns, and its first window
    comes from a scan of every interface, since a caller's field can hold
    any cells."""
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise InvalidConfig(f"number of steps must be an integer, got {n_steps!r}") from None
    if n_steps < 0:
        raise InvalidConfig(f"number of steps must be non-negative, got {n_steps}")
    n = cfg.grid.n_cells
    shape = getattr(field.cells, "shape", None)
    if shape != (3, n):
        raise InvalidConfig(f"field cells must be a (3, {n}) array for the grid, got shape {shape}")
    q = np.empty((3, n + 2))
    q[:, 1:-1] = field.cells
    lo, hi = _window(field.cells, 0, n)
    return _march(q, lo, hi, cfg, n_steps, field.time, field.max_courant_observed)


def _march(
    q: np.ndarray,
    lo: int,
    hi: int,
    cfg: RunConfig,
    n_steps: int,
    time: float,
    max_courant: float,
) -> SolutionField:
    """The stepping loop: march the cells ``q[:, 1:-1]`` in place from the
    first window [lo, hi), at ``time`` and with the Courant maximum seen so
    far.  ``q``'s first and last columns are ghost cells, which copy the
    edge cells: zero-gradient walls.

    Each step reconstructs, fluxes and updates only the window [lo, hi).
    MUSCL reads it with one cell more at each end, the real neighbour or,
    at a wall, the ghost, so every face in it matches the whole grid's.  A
    ghost is refreshed after a step whose window reaches its wall
    (notes/decisions.md section 21).  Failures report whole-grid cells and
    faces.  An end cell away from a wall never moves (see ``_grow``), so it
    is its block's state.

    A step's cells are checked by the next step's face check, which fails
    for any cell of non-positive, NaN or infinite density or pressure (see
    ``reconstruct_faces``; an infinite one by its NaN half-slope).  The last
    step's cells are checked after it (notes/decisions.md sections 13, 28)."""
    method, gas, dt = cfg.method, cfg.gas, cfg.dt
    gamma = gas.gamma
    dx = cfg.grid.dx
    # One 0-d array per run: numpy's faster operand than a Python float
    dt_dx = np.array(dt / dx)
    cells = q[:, 1:-1]
    n = cells.shape[1]
    # Zero-gradient walls: the ghost columns copy the edge cells
    q[:, 0], q[:, -1] = cells[:, 0], cells[:, -1]
    # Outside the first window the field is two uniform blocks: cells
    # [0, lo) equal cell 0 and cells [hi, n) equal cell n - 1.  The window's
    # end cells, and the cell or ghost beyond each in ``w``, lie in those
    # runs of equal cells (notes/decisions.md section 11).  So one check of
    # ``w`` runs in grid order: the left block as cell 0, then the window,
    # whose last cell fails wherever the right block would.
    w = primitive_array(q[:, lo : hi + 2], gamma)
    _check_positive(w, 0, lo)
    # Each updated window, once checked, waits here for its Courant signal;
    # its end cells carry the blocks' signal into every batch.
    peak = 0.0
    cap = _SIGNAL_BATCH
    batch = np.empty((3, cap))
    used = 0
    for k in range(n_steps):
        try:
            faces = reconstruct_faces(w)
            flux = compute_face_flux(method, faces, gas, dx=dx, dt=dt)
        except (NonPhysicalState, NoConvergence, VacuumGenerated) as exc:
            # A failed run's traceback keeps this frame alive, and with it
            # the batch
            batch = None
            if k > 0 and not _cells_hold(w):
                # The last step made a bad cell: it is reported below, out
                # of this handler, as that step's cell check reported it
                break
            # Same object, bare raise: the failure still comes from muscl or
            # riemann.  A face counted from the window start becomes global.
            exc.face += lo
            exc.step = k
            raise
        if k > 0:
            # The last step's window has passed the face check
            width = hi - lo
            if used + width > cap and used:
                peak = max(peak, _signal_peak(batch[:, :used], gamma))
                used = 0
            if width > cap:
                peak = max(peak, _signal_peak(w[:, 1:-1], gamma))
            else:
                batch[:, used : used + width] = w[:, 1:-1]
                used += width
        cells[:, lo:hi] -= dt_dx * (flux[:, 1:] - flux[:, :-1])
        # An edge cell moves only in a window at its wall
        if lo == 0:
            q[:, 0] = cells[:, 0]
        if hi == n:
            q[:, -1] = cells[:, -1]
        # A window that spans the grid cannot grow.  It never narrows: one
        # wider than needed is still exact, and so every updated cell is
        # checked and monitored.
        if lo > 0 or hi < n:
            lo, hi = _grow(cells, lo, hi)
        w = primitive_array(q[:, lo : hi + 2], gamma)
        # Summed step by step, not n * dt, so the time matches repeated steps.
        time += dt
    else:
        if n_steps > 0:
            if used:
                peak = max(peak, _signal_peak(batch[:, :used], gamma))
            batch = None  # before the check can raise, as above
            _check_positive(w, k, lo)
            peak = max(peak, _signal_peak(w[:, 1:-1], gamma))
            # (s dt) / dx rises with s, so its largest value is that of the peak
            max_courant = max(max_courant, peak * dt / dx)
        return SolutionField(time=time, cells=cells, max_courant_observed=max_courant)
    # Only the break above gets here
    _check_positive(w, k - 1, lo)


def step_count(cfg: RunConfig) -> int:
    """Number of steps to reach t_final exactly; t_final must be a multiple of dt."""
    n = cfg.t_final / cfg.dt
    if not math.isfinite(n):
        raise InvalidConfig(f"t_final={cfg.t_final} / dt={cfg.dt} is not a finite step count")
    n_round = round(n)
    if abs(n - n_round) > 1e-9:
        raise InvalidConfig(
            f"t_final={cfg.t_final} is not an integer multiple of dt={cfg.dt}"
        )
    if n_round == 0 and cfg.t_final > 0.0:
        raise InvalidConfig(f"dt={cfg.dt} takes no step to reach t_final={cfg.t_final}")
    return int(n_round)


def run(cfg: RunConfig) -> SolutionField:
    """Initialize and march to t_final (which must be a multiple of dt).

    The step data are marched in place.  They are two uniform blocks, so
    the only interface that can carry a jump is the one between them, and
    the first window comes from that interface alone (notes/decisions.md
    section 19)."""
    n_steps = step_count(cfg)
    q, n_left = _step_data(cfg)
    n = q.shape[1] - 2
    lo, hi = _window(q[:, 1:-1], max(n_left - 1, 0), min(n_left + 1, n))
    return _march(q, lo, hi, cfg, n_steps, 0.0, 0.0)


def sweep_config(cfg: RunConfig, method: FluxMethod) -> RunConfig:
    """Same run with only the flux method swapped."""
    return dataclasses.replace(cfg, method=method)
