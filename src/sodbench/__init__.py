"""1D compressible-flow finite-volume solver and flux-method benchmark.

Solves the Euler equations for shock-tube problems with Godunov time
stepping, MUSCL/van Leer reconstruction, and a choice of 22 intercell flux
construction methods, against an exact Riemann solver used as the analytic
reference.
"""

from .bench import (
    RmseReport,
    TimingReport,
    WaveReport,
    rmse,
    rmse_report,
    run_all_methods,
    timing_sweep,
    wave_report,
)
from .errors import (
    DegenerateJump,
    InvalidConfig,
    NoConvergence,
    NonPhysicalState,
    SodbenchError,
    VacuumGenerated,
)
from .fluxes import FluxMethod, compute_face_flux
from .gas import GasModel, PrimitiveState
from .muscl import reconstruct_faces
from .riemann import (
    ExactProfile,
    RiemannInput,
    StarRegion,
    WaveKind,
    WaveSpeeds,
    exact_profile,
    rankine_hugoniot_speed,
    solve_star,
)
from .solver import (
    SOD_LEFT,
    SOD_RIGHT,
    Grid1D,
    RunConfig,
    SolutionField,
    advance,
    derive_dt,
    initialize_sod,
    run,
)

__version__ = "0.1.0"
