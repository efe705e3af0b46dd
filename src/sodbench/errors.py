"""Exception types shared across the solver stack."""


class SodbenchError(Exception):
    """Base class for all solver-specific failures.

    A failure inside a run carries where it happened: the offending cell
    (time integrator) or face (reconstruction, flux), and the time step.
    Each is None where it does not apply.
    """

    cell: int | None
    face: int | None
    step: int | None

    def __init__(self, message: str, *, cell=None, face=None, step=None):
        super().__init__(message)
        self.cell = cell
        self.face = face
        self.step = step


class InvalidConfig(SodbenchError, ValueError):
    """A run, grid, gas or exact-profile input violates its constraints."""


class NonPhysicalState(SodbenchError):
    """A state with non-positive density or pressure was produced."""


class NoConvergence(SodbenchError):
    """The exact Riemann pressure iteration hit its iteration cap.

    Carries the first unconverged face problem, its last relative update
    |dp|/p and the number of iterations made.
    """

    residual: float | None
    iterations: int | None

    def __init__(self, message: str, *, residual=None, iterations=None, **location):
        super().__init__(message, **location)
        self.residual = residual
        self.iterations = iterations


class VacuumGenerated(SodbenchError):
    """The two states would generate a vacuum region (excluded by design)."""


class DegenerateJump(SodbenchError):
    """Jump relation requested across states with no density jump."""
