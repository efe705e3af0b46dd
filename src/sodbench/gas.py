"""Calorically perfect gas model, flow-state containers, and the Euler flux.

Two layers live here.  The dataclasses (``PrimitiveState``, ``ConservedState``,
``FluxVector``) are validated single-state values used by the exact Riemann
solver, the wave reports, and the tests.  The ``*_array`` functions are the
vectorized kernels the time integrator and the flux methods run on; they take
``(3, ...)`` float arrays laid out as rows of density, velocity, pressure (or
mass, momentum, energy for conserved data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonPhysicalState

__all__ = [
    "GasModel",
    "PrimitiveState",
    "ConservedState",
    "FluxVector",
    "sound_speed",
    "primitive_to_conserved",
    "conserved_to_primitive",
    "physical_flux",
    "total_specific_enthalpy",
    "internal_energy",
    "sound_speed_array",
    "conserved_array",
    "primitive_array",
    "flux_array",
    "enthalpy_array",
    "internal_energy_array",
]


@dataclass(frozen=True)
class GasModel:
    """Ratio of specific heats; 1.4 is diatomic air and the benchmark default."""

    gamma: float = 1.4

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 1.0):
            raise InvalidConfig(f"gamma must be finite and > 1, got {self.gamma}")


@dataclass(frozen=True)
class PrimitiveState:
    """Density, velocity, pressure (SI units by convention). Vacuum excluded."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.u) and math.isfinite(self.p)):
            raise ValueError(f"non-finite primitive state ({self.rho}, {self.u}, {self.p})")
        if self.rho <= 0.0 or self.p <= 0.0:
            raise ValueError(
                f"density and pressure must be positive, got rho={self.rho}, p={self.p}"
            )

    @property
    def array(self) -> np.ndarray:
        return np.array([self.rho, self.u, self.p])


@dataclass(frozen=True)
class ConservedState:
    """Mass, momentum, and total energy per unit volume.

    Deliberately not validated for positive internal energy at construction:
    the solver may produce such states transiently, and the conversion back to
    primitives is where the blow-up is detected and reported.
    """

    mass: float
    momentum: float
    energy: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.mass, self.momentum, self.energy])


@dataclass(frozen=True)
class FluxVector:
    """Mass, momentum, and energy flux components."""

    f_mass: float
    f_momentum: float
    f_energy: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.f_mass, self.f_momentum, self.f_energy])


def sound_speed(w: PrimitiveState, gas: GasModel = GasModel()) -> float:
    """a = sqrt(gamma p / rho)."""
    return float(sound_speed_array(w.array, gas.gamma))


def primitive_to_conserved(w: PrimitiveState, gas: GasModel = GasModel()) -> ConservedState:
    return ConservedState(*conserved_array(w.array, gas.gamma).tolist())


def conserved_to_primitive(q: ConservedState, gas: GasModel = GasModel()) -> PrimitiveState:
    """Exact inverse of :func:`primitive_to_conserved`.

    Raises ``NonPhysicalState`` when the recovered density or pressure is not
    positive, which is the solver's blow-up signal.
    """
    if q.mass <= 0.0:
        raise NonPhysicalState(f"non-positive density {q.mass}")
    rho, u, p = primitive_array(q.array, gas.gamma).tolist()
    if p <= 0.0:
        raise NonPhysicalState(f"non-positive pressure {p}")
    return PrimitiveState(rho=rho, u=u, p=p)


def physical_flux(w: PrimitiveState, gas: GasModel = GasModel()) -> FluxVector:
    """Euler flux (rho u, rho u^2 + p, (rho e_T + p) u)."""
    return FluxVector(*flux_array(w.array, gas.gamma).tolist())


def total_specific_enthalpy(w: PrimitiveState, gas: GasModel = GasModel()) -> float:
    """h_T = u^2/2 + gamma/(gamma-1) p/rho."""
    return float(enthalpy_array(w.array, gas.gamma))


def internal_energy(w: PrimitiveState, gas: GasModel = GasModel()) -> float:
    """e = p / (rho (gamma - 1))."""
    return float(internal_energy_array(w.array, gas.gamma))


# ---------------------------------------------------------------------------
# Array kernels.  w is (3, ...) primitive data; q is (3, ...) conserved data.
# ---------------------------------------------------------------------------

def sound_speed_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return np.sqrt(gamma * w[2] / w[0])


def conserved_array(w: np.ndarray, gamma: float) -> np.ndarray:
    rho, u, p = w[0], w[1], w[2]
    return np.array([rho, rho * u, p / (gamma - 1.0) + 0.5 * rho * u * u])


def primitive_array(q: np.ndarray, gamma: float) -> np.ndarray:
    """Convert conserved rows to primitive rows. No positivity check here;
    callers that can blow up are expected to inspect the result."""
    w = np.array(q, dtype=float)
    w[1] /= q[0]
    # p = (gamma - 1) (E - (0.5 m) u), rounded as the formula reads
    t = 0.5 * q[1]
    t *= w[1]
    w[2] -= t
    w[2] *= gamma - 1.0
    return w


def flux_array(w: np.ndarray, gamma: float) -> np.ndarray:
    rho, u, p = w[0], w[1], w[2]
    energy = p / (gamma - 1.0) + 0.5 * rho * u * u
    return np.array([rho * u, rho * u * u + p, (energy + p) * u])


def enthalpy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return 0.5 * w[1] * w[1] + gamma / (gamma - 1.0) * w[2] / w[0]


def internal_energy_array(w: np.ndarray, gamma: float) -> np.ndarray:
    return w[2] / (w[0] * (gamma - 1.0))
