"""Exception types shared across the solver stack."""


class SodbenchError(Exception):
    """Base class for all solver-specific failures.

    A failure inside a run carries where it happened: the offending cell
    (time integrator) or face (reconstruction, flux), and the time step,
    each None where it does not apply.  The message is the reason; ``str``
    appends the cell, the face and the step that are set, in that order.
    """

    cell: int | None
    face: int | None
    step: int | None
    _at_face = " at face {0.face}"

    def __init__(self, message: str, *, cell=None, face=None, step=None):
        super().__init__(message)
        self.cell = cell
        self.face = face
        self.step = step

    def __str__(self) -> str:
        where = ((" in cell {0.cell}", self.cell), (self._at_face, self.face),
                 (" at step {0.step}", self.step))
        return super().__str__() + "".join(text.format(self) for text, at in where if at is not None)


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
    _at_face = ": face {0.face} stopped at |dp|/p = {0.residual:.3e}"

    def __init__(self, message: str, *, residual=None, iterations=None, **location):
        super().__init__(message, **location)
        self.residual = residual
        self.iterations = iterations


class VacuumGenerated(SodbenchError):
    """The two states would generate a vacuum region (excluded by design)."""


class DegenerateJump(SodbenchError):
    """Jump relation requested across states with no density jump."""
