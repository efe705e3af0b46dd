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

import dataclasses
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NoConvergence, NonPhysicalState, VacuumGenerated
from .fluxes import FluxMethod, compute_face_flux
from .gas import GasModel, PrimitiveState, conserved_array, primitive_array, sound_speed_array
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
    if s_max_estimate <= 0.0:
        raise InvalidConfig(f"wave speed estimate must be positive, got {s_max_estimate}")
    if dx <= 0.0:
        raise InvalidConfig(f"cell width must be positive, got {dx}")
    return co_max_target * dx / s_max_estimate


def initialize_sod(cfg: RunConfig) -> SolutionField:
    """Step data: left state where the cell center is left of the jump."""
    # The centers rise, so the cells left of the jump are a prefix.
    n_left = int(np.searchsorted(cfg.grid.centers(), cfg.jump_position))
    gamma = cfg.gas.gamma
    cells = np.empty((3, cfg.grid.n_cells))
    cells[:, :n_left] = conserved_array(cfg.left.array[:, None], gamma)
    cells[:, n_left:] = conserved_array(cfg.right.array[:, None], gamma)
    return SolutionField(time=0.0, cells=cells, max_courant_observed=0.0)


def _check_positive(w: np.ndarray, step_index: int, first_cell: int = 0) -> None:
    # Density and pressure rows at once; a NaN fails "> 0" too.
    if np.minimum.reduce(w[::2], axis=None) > 0.0:
        return
    cell = first_cell + int(np.argmax(~((w[0] > 0.0) & (w[2] > 0.0))))
    raise NonPhysicalState(
        f"solver produced non-positive density/pressure in cell {cell} at step {step_index}",
        cell=cell,
        step=step_index,
    )


# Cells of checked windows whose Courant signal is taken in one pass
# (notes/decisions.md section 13).  Fixed, so the buffer does not grow with
# the grid.
_SIGNAL_BATCH = 2048


def _signal_peak(w: np.ndarray, gamma: float) -> float:
    """The largest |u| + a over primitive cells ``w``, computed in ``w``'s
    own rows, in the arithmetic of ``sound_speed_array``."""
    a = w[2]
    a *= gamma
    a /= w[0]
    np.sqrt(a, out=a)
    s = np.abs(w[1], out=w[1])
    s += a
    return float(np.maximum.reduce(s))


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

    The cells beyond each end were never updated and still equal their
    block, so a new jump lies inside the window or on an end interface.
    Only a jump on an end's two outermost interfaces lacks two window cells
    on its outer side: one between the block and the end cell grows that
    end by two cells, one between the end cell and its inner neighbour by
    one.  The (3, 3) end slices compare as Python floats, which agree with
    numpy's != on NaN and on -0.0 (notes/decisions.md section 10)."""
    n = q.shape[1]
    if lo > 0:
        block, end, inner = q[:, lo - 1 : lo + 2].T.tolist()
        if end != block:
            lo = max(lo - 2, 0)
        elif inner != end:
            lo -= 1
    if hi < n:
        inner, end, block = q[:, hi - 2 : hi + 1].T.tolist()
        if end != block:
            hi = min(hi + 2, n)
        elif inner != end:
            hi += 1
    return lo, hi


def advance(field: SolutionField, cfg: RunConfig, n_steps: int) -> SolutionField:
    """March ``n_steps`` conservative updates of dt; steps are numbered from
    0 in failure reports.  The incoming field is checked once.

    Each step reconstructs, fluxes and updates only the window [lo, hi).  Its
    end interfaces carry no jump, so the zero-gradient ghost cells of the
    slice equal the real neighbours and every face in it matches the whole
    grid's.  Failures report whole-grid cells and faces.

    A step's cells are checked by the next step's face check, which fails
    for any cell of non-positive or NaN density or pressure (see
    ``reconstruct_faces``); the cells of the last step are checked once,
    after it (notes/decisions.md section 13)."""
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise InvalidConfig(f"number of steps must be an integer, got {n_steps!r}") from None
    if n_steps < 0:
        raise InvalidConfig(f"number of steps must be non-negative, got {n_steps}")
    method, gas, dt = cfg.method, cfg.gas, cfg.dt
    gamma = gas.gamma
    dx = cfg.grid.dx
    dt_dx = dt / dx
    q = field.cells.copy()
    n = q.shape[1]
    lo, hi = _window(q, 0, n)
    # Outside the first window the field is two uniform blocks: cells
    # [0, lo) equal cell 0 and cells [hi, n) equal cell n - 1, and the
    # window's first and last cells lie in those runs of equal cells
    # (notes/decisions.md section 11).  So the window's end cells stand for
    # the blocks.
    w = primitive_array(q[:, lo:hi], gamma)
    # In grid order: the left block as cell 0, then the window, whose last
    # cell fails wherever the right block would.
    _check_positive(w[:, :1], 0)
    _check_positive(w, 0, lo)
    time = field.time
    # The window only grows, so the blocks keep their incoming state for the
    # whole call, and the signal of each non-empty block enters the Courant
    # maximum once, here.
    blocks = w[:, [0, -1]][:, [lo > 0, hi < n]]
    peak = float((np.abs(blocks[1]) + sound_speed_array(blocks, gamma)).max(initial=0.0))
    # Each updated window, once checked, waits here for its Courant signal
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
            if k > 0 and not np.minimum.reduce(w[::2], axis=None) > 0.0:
                # The last step made a bad cell: it is reported below, out
                # of this handler, as that step's cell check reported it
                break
            # Same object, bare raise: the failure still comes from muscl or
            # riemann.  A face counted from the window start becomes global.
            message = exc.args[0]
            face = getattr(exc, "face", None)
            if face is not None:
                exc.face = lo + face
                message = message.replace(f"face {face}", f"face {exc.face}", 1)
            exc.step = k
            exc.args = (f"{message} at step {k}",)
            raise
        if k > 0:
            # The last step's window has passed the face check
            width = hi - lo
            if used + width > cap and used:
                peak = max(peak, _signal_peak(batch[:, :used], gamma))
                used = 0
            if width > cap:
                peak = max(peak, _signal_peak(w, gamma))
            else:
                batch[:, used : used + width] = w
                used += width
        q[:, lo:hi] -= dt_dx * (flux[:, 1:] - flux[:, :-1])
        # A window that spans the grid cannot grow.  It never narrows: one
        # wider than needed is still exact, and so every updated cell is
        # checked and monitored.
        if lo > 0 or hi < n:
            lo, hi = _grow(q, lo, hi)
        w = primitive_array(q[:, lo:hi], gamma)
        # Summed step by step, not n * dt, so the time matches repeated steps.
        time += dt
    else:
        max_courant = field.max_courant_observed
        if n_steps > 0:
            if used:
                peak = max(peak, _signal_peak(batch[:, :used], gamma))
            batch = None  # before the check can raise, as above
            _check_positive(w, k, lo)
            peak = max(peak, _signal_peak(w, gamma))
            # (s dt) / dx rises with s, so its largest value is that of the peak
            max_courant = max(max_courant, peak * dt / dx)
        return SolutionField(time=time, cells=q, max_courant_observed=max_courant)
    # Only the break above gets here
    _check_positive(w, k - 1, lo)


def step_count(cfg: RunConfig) -> int:
    """Number of steps to reach t_final exactly; t_final must be a multiple of dt."""
    n = cfg.t_final / cfg.dt
    n_round = round(n)
    if abs(n - n_round) > 1e-9:
        raise InvalidConfig(
            f"t_final={cfg.t_final} is not an integer multiple of dt={cfg.dt}"
        )
    if n_round == 0 and cfg.t_final > 0.0:
        raise InvalidConfig(f"dt={cfg.dt} takes no step to reach t_final={cfg.t_final}")
    return int(n_round)


def run(cfg: RunConfig) -> SolutionField:
    """Initialize and march to t_final (which must be a multiple of dt)."""
    return advance(initialize_sod(cfg), cfg, step_count(cfg))


def sweep_config(cfg: RunConfig, method: FluxMethod) -> RunConfig:
    """Same run with only the flux method swapped."""
    return dataclasses.replace(cfg, method=method)
