"""Exception types shared across the solver stack."""


class SodbenchError(Exception):
    """Base class for all solver-specific failures."""


class InvalidConfig(SodbenchError, ValueError):
    """A run, grid, gas or exact-profile input violates its constraints."""


class NonPhysicalState(SodbenchError):
    """A state with non-positive density or pressure was produced.

    Carries the offending cell (time integrator) or face (reconstruction)
    index and the time step, so blow-ups can be located.
    """

    def __init__(
        self,
        message: str,
        cell: int | None = None,
        step: int | None = None,
        face: int | None = None,
    ):
        super().__init__(message)
        self.cell = cell
        self.step = step
        self.face = face


class NoConvergence(SodbenchError):
    """The exact Riemann pressure iteration hit its iteration cap.

    Carries the first unconverged face problem, its last relative update
    |dp|/p, the number of iterations made and, inside a run, the time step.
    """

    def __init__(
        self,
        message: str,
        face: int | None = None,
        residual: float | None = None,
        iterations: int | None = None,
        step: int | None = None,
    ):
        super().__init__(message)
        self.face = face
        self.residual = residual
        self.iterations = iterations
        self.step = step


class VacuumGenerated(SodbenchError):
    """The two states would generate a vacuum region (excluded by design).

    Carries the first such face problem and, inside a run, the time step.
    """

    def __init__(self, message: str, face: int | None = None, step: int | None = None):
        super().__init__(message)
        self.face = face
        self.step = step


class DegenerateJump(SodbenchError):
    """Jump relation requested across states with no density jump."""
