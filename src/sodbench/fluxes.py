"""The 22 intercell flux construction methods.

Every method maps the fictitious face-left/face-right primitive values coming
out of the MUSCL step to a numerical flux vector.  All functions accept
either a single state per side (``PrimitiveState`` or a length-3 array) or
``(3, n_faces)`` arrays covering a whole grid of faces at once, and return a
matching array.

Closed-form sources: Roe averages and wave strengths follow the standard
eigendecomposition of the Roe-average Jacobian; the Steger-Warming and van
Leer splittings are the classical perfect-gas forms; the AUSM family follows
Liou-Steffen / Liou (the plus and plus-up variants with the common interface
sound speed built from the critical speeds); HLLC restores the contact wave
on top of the two-wave model with the usual star states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import riemann
from .errors import InvalidConfig
from .gas import (
    GasModel,
    PrimitiveState,
    enthalpy_array,
    flux_array,
    sound_speed_array,
)

__all__ = [
    "FluxMethod",
    "WaveSpeedEstimate",
    "AusmVariant",
    "RoeAverages",
    "WaveSpeedPair",
    "roe_average",
    "wave_speed_estimate",
    "flux_exact",
    "flux_roe",
    "flux_hll",
    "flux_hllc",
    "flux_sw_fvs",
    "flux_vanleer_fvs",
    "flux_ausm",
    "flux_aufs",
    "flux_lf",
    "flux_rusanov",
    "compute_face_flux",
]


class FluxMethod(enum.Enum):
    """The 22 methods, in benchmark-report order. Values are the CLI names."""

    RIEMANN = "riemann"
    ROE = "roe"
    KNP = "knp"
    KT = "kt"
    SW = "sw"
    VAN_LEER = "van-leer"
    AUSM = "ausm"
    AUSM_PLUS = "ausm-plus"
    AUSM_PLUS_UP = "ausm-plus-up"
    AUFS = "aufs"
    HLL_DAVIS1 = "hll-davis1"
    HLL_DAVIS2 = "hll-davis2"
    HLL_ROE = "hll-roe"
    HLL_EINFELDT = "hll-einfeldt"
    HLL_PBASED = "hll-pbased"
    HLLC_DAVIS1 = "hllc-davis1"
    HLLC_DAVIS2 = "hllc-davis2"
    HLLC_ROE = "hllc-roe"
    HLLC_EINFELDT = "hllc-einfeldt"
    HLLC_PBASED = "hllc-pbased"
    LF = "lf"
    RUSANOV = "rusanov"

    @property
    def table_index(self) -> int:
        """1-based position in the benchmark ordering."""
        return _TABLE_ORDER[self]


_TABLE_ORDER = {m: i + 1 for i, m in enumerate(FluxMethod)}


class WaveSpeedEstimate(enum.Enum):
    DAVIS1 = "davis1"
    DAVIS2 = "davis2"
    ROE = "roe"
    EINFELDT = "einfeldt"
    P_BASED = "pbased"


class AusmVariant(enum.Enum):
    BASIC = "basic"
    PLUS = "plus"
    PLUS_UP = "plus-up"


# The parameters the AUSM+ and AUSM+-up descriptions leave open, at their
# published values: alpha and beta from Liou, J. Comput. Phys. 129 (1996);
# Kp, Ku, sigma and the cutoff Mach number from Liou, J. Comput. Phys. 214
# (2006).
AUSM_PLUS_ALPHA = 3.0 / 16.0
AUSM_PLUS_BETA = 1.0 / 8.0
AUSM_UP_KP = 0.25
AUSM_UP_KU = 0.75
AUSM_UP_SIGMA = 1.0
AUSM_UP_CUTOFF_MACH = 0.1


@dataclass(frozen=True)
class RoeAverages:
    """Square-root-density weighted velocity, total enthalpy, and sound speed."""

    u: np.ndarray | float
    h_total: np.ndarray | float
    a: np.ndarray | float


class WaveSpeedPair(NamedTuple):
    """Left/right signal speeds of a two-wave model."""

    s_left: np.ndarray | float
    s_right: np.ndarray | float


def _as_w(state) -> np.ndarray:
    if isinstance(state, PrimitiveState):
        return state.array
    return np.asarray(state, dtype=float)


def _state_and_flux(w, g: float):
    """Conserved state and Euler flux of primitive rows ``w``, sharing rho u
    and E; the same expressions as ``conserved_array`` and ``flux_array``."""
    rho, u, p = w[0], w[1], w[2]
    mom = rho * u
    energy = p / (g - 1.0) + 0.5 * rho * u * u
    return np.array([rho, mom, energy]), np.array([mom, mom * u + p, (energy + p) * u])


def _fluxes_and_jump(wl, wr, g: float):
    """F(w_L), F(w_R) and q_R - q_L; the two states are freed on return."""
    ql, fl = _state_and_flux(wl, g)
    qr, fr = _state_and_flux(wr, g)
    return fl, fr, qr - ql


# ---------------------------------------------------------------------------
# Averages and signal-speed estimates
# ---------------------------------------------------------------------------

def roe_average(wl, wr, gas: GasModel = GasModel()) -> RoeAverages:
    wl, wr = _as_w(wl), _as_w(wr)
    g = gas.gamma
    sl = np.sqrt(wl[0])
    sr = np.sqrt(wr[0])
    u = (sl * wl[1] + sr * wr[1]) / (sl + sr)
    h = (sl * enthalpy_array(wl, g) + sr * enthalpy_array(wr, g)) / (sl + sr)
    a = np.sqrt((g - 1.0) * (h - 0.5 * u * u))
    return RoeAverages(u=u, h_total=h, a=a)


def wave_speed_estimate(
    variant: WaveSpeedEstimate, wl, wr, gas: GasModel = GasModel()
) -> WaveSpeedPair:
    """Left/right signal speeds (S_L, S_R) for the HLL/HLLC families."""
    wl, wr = _as_w(wl), _as_w(wr)
    if variant is WaveSpeedEstimate.ROE:
        avg = roe_average(wl, wr, gas)
        return WaveSpeedPair(avg.u - avg.a, avg.u + avg.a)
    g = gas.gamma
    a_l = sound_speed_array(wl, g)
    a_r = sound_speed_array(wr, g)
    u_l, u_r = wl[1], wr[1]

    if variant is WaveSpeedEstimate.DAVIS1:
        return WaveSpeedPair(u_l - a_l, u_r + a_r)
    if variant is WaveSpeedEstimate.DAVIS2:
        return WaveSpeedPair(
            np.minimum(u_l - a_l, u_r - a_r), np.maximum(u_l + a_l, u_r + a_r)
        )
    if variant is WaveSpeedEstimate.EINFELDT:
        sl = np.sqrt(wl[0])
        sr = np.sqrt(wr[0])
        u_roe = (sl * u_l + sr * u_r) / (sl + sr)
        d2 = (sl * a_l**2 + sr * a_r**2) / (sl + sr) + 0.5 * sl * sr * (
            (u_r - u_l) / (sl + sr)
        ) ** 2
        d = np.sqrt(d2)
        return WaveSpeedPair(u_roe - d, u_roe + d)
    if variant is WaveSpeedEstimate.P_BASED:
        # Primitive-variable pressure estimate; compression (u_r < u_l)
        # raises the estimate and flags the shocked side.  Strong expansions
        # can drive the raw estimate negative; the floor only affects the
        # branch in which the compression factor is unused.
        p_star = 0.5 * (wl[2] + wr[2]) - 0.125 * (u_r - u_l) * (a_r + a_l) * (wr[0] + wl[0])
        p_floor = np.maximum(p_star, 0.0)
        shock_factor = (g + 1.0) / (2.0 * g)
        f_l = np.where(p_star <= wl[2], 1.0, np.sqrt(1.0 + (p_floor / wl[2] - 1.0) * shock_factor))
        f_r = np.where(p_star <= wr[2], 1.0, np.sqrt(1.0 + (p_floor / wr[2] - 1.0) * shock_factor))
        return WaveSpeedPair(u_l - f_l * a_l, u_r + f_r * a_r)
    raise InvalidConfig(f"unknown wave speed estimate {variant!r}")


# ---------------------------------------------------------------------------
# Exact (Godunov) and Roe fluxes
# ---------------------------------------------------------------------------

def flux_exact(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Solve the face Riemann problem exactly and evaluate the flux of the
    state sitting on the face ray."""
    wl, wr = _as_w(wl), _as_w(wr)
    w0 = riemann.interface_states(wl, wr, gas.gamma)
    return flux_array(w0, gas.gamma)


def flux_roe(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Locally linearized (Roe-average) flux, without an entropy fix."""
    wl, wr = _as_w(wl), _as_w(wr)
    g = gas.gamma
    avg = roe_average(wl, wr, gas)
    u, h, a = avg.u, avg.h_total, avg.a

    fl, fr, dq = _fluxes_and_jump(wl, wr, g)
    alpha2 = (g - 1.0) / (a * a) * (dq[0] * (h - u * u) + u * dq[1] - dq[2])
    alpha1 = (dq[0] * (u + a) - dq[1] - a * alpha2) / (2.0 * a)
    alpha3 = dq[0] - alpha1 - alpha2

    lam1, lam2, lam3 = np.abs(u - a), np.abs(u), np.abs(u + a)
    diss = np.array(
        [
            lam1 * alpha1 + lam2 * alpha2 + lam3 * alpha3,
            lam1 * alpha1 * (u - a) + lam2 * alpha2 * u + lam3 * alpha3 * (u + a),
            lam1 * alpha1 * (h - u * a)
            + lam2 * alpha2 * 0.5 * u * u
            + lam3 * alpha3 * (h + u * a),
        ]
    )
    return 0.5 * (fl + fr) - 0.5 * diss


# ---------------------------------------------------------------------------
# HLL two-wave fluxes
# ---------------------------------------------------------------------------

def _two_wave_flux(wl, wr, s_left, s_right, g: float) -> np.ndarray:
    """Two-wave flux with the signal speeds clamped around zero.

    With S_L <= 0 <= S_R the expression is the standard intermediate-state
    flux; a clamped speed reproduces the pure upwind branches.  Degenerate
    spread below 1e-12 falls back to the centered average (only reachable for
    near-identical states, where that average is the consistent flux).
    """
    sl = np.minimum(s_left, 0.0)
    sr = np.maximum(s_right, 0.0)
    fl, fr, dq = _fluxes_and_jump(wl, wr, g)
    spread = sr - sl
    degenerate = spread < 1e-12
    safe = np.where(degenerate, 1.0, spread)
    blended = (sr * fl - sl * fr + sl * sr * dq) / safe
    return np.where(degenerate, 0.5 * (fl + fr), blended)


def flux_hll(variant: WaveSpeedEstimate, wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Harten-Lax-van Leer two-wave flux with the selected speed estimate."""
    wl, wr = _as_w(wl), _as_w(wr)
    s_left, s_right = wave_speed_estimate(variant, wl, wr, gas)
    return _two_wave_flux(wl, wr, s_left, s_right, gas.gamma)


# ---------------------------------------------------------------------------
# HLLC three-wave fluxes
# ---------------------------------------------------------------------------

def flux_hllc(variant: WaveSpeedEstimate, wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Two-wave model with the contact wave restored (star states).

    Only the star state on the face's side of the contact is built: the left
    one where s* >= 0, the right one elsewhere.
    """
    wl, wr = _as_w(wl), _as_w(wr)
    g = gas.gamma
    s_l, s_r = wave_speed_estimate(variant, wl, wr, gas)

    rho_l, u_l, p_l = wl[0], wl[1], wl[2]
    rho_r, u_r, p_r = wr[0], wr[1], wr[2]
    ql, fl = _state_and_flux(wl, g)
    qr, fr = _state_and_flux(wr, g)

    m_l = rho_l * (s_l - u_l)  # mass flux into the left wave (negative)
    m_r = rho_r * (s_r - u_r)
    den = m_l - m_r
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    s_star = (p_r - p_l + u_l * m_l - u_r * m_r) / den

    left = s_star >= 0.0
    rho_k = np.where(left, rho_l, rho_r)
    u_k = np.where(left, u_l, u_r)
    p_k = np.where(left, p_l, p_r)
    s_k = np.where(left, s_l, s_r)
    m_k = np.where(left, m_l, m_r)
    q_k = np.where(left, ql, qr)
    del ql, qr  # freed before the peak below; 0.5 MB each at 20 000 faces

    factor = m_k / np.where(np.abs(s_k - s_star) < 1e-300, 1e-300, s_k - s_star)
    energy = q_k[2] / rho_k + (s_star - u_k) * (s_star + p_k / m_k)
    q_star = np.array([factor, factor * s_star, factor * energy])
    f_star = np.where(left, fl, fr) + s_k * (q_star - q_k)

    return np.where(s_l >= 0.0, fl, np.where(s_r <= 0.0, fr, f_star))


# ---------------------------------------------------------------------------
# Central fluxes: Lax-Friedrichs, Rusanov
# ---------------------------------------------------------------------------

def _central_flux(wl, wr, speed, g: float) -> np.ndarray:
    fl, fr, dq = _fluxes_and_jump(wl, wr, g)
    return 0.5 * (fl + fr) - 0.5 * speed * dq


def flux_lf(
    wl, wr, gas: GasModel = GasModel(), dx: float | None = None, dt: float | None = None
) -> np.ndarray:
    """Lax-Friedrichs flux; the dissipation speed is the mesh ratio dx/dt."""
    if dx is None or dt is None or dt <= 0.0 or dx <= 0.0:
        raise InvalidConfig(f"Lax-Friedrichs needs dx > 0 and dt > 0, got dx={dx}, dt={dt}")
    wl, wr = _as_w(wl), _as_w(wr)
    return _central_flux(wl, wr, dx / dt, gas.gamma)


def _max_signal_speed(wl, wr, g: float):
    a_l = sound_speed_array(wl, g)
    a_r = sound_speed_array(wr, g)
    return np.maximum(np.abs(wl[1]) + a_l, np.abs(wr[1]) + a_r)


def flux_rusanov(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Single-wave flux with the local maximum signal speed."""
    wl, wr = _as_w(wl), _as_w(wr)
    return _central_flux(wl, wr, _max_signal_speed(wl, wr, gas.gamma), gas.gamma)


# ---------------------------------------------------------------------------
# Flux vector splittings: Steger-Warming and van Leer
# ---------------------------------------------------------------------------

def _steger_warming_part(w, g: float, sign: float) -> np.ndarray:
    """F+ (sign=+1) or F- (sign=-1) of the Steger-Warming eigenvalue split."""
    rho, u = w[0], w[1]
    a = sound_speed_array(w, g)
    h = enthalpy_array(w, g)
    lam = (u - a, u, u + a)
    l1, l2, l3 = (0.5 * (x + sign * np.abs(x)) for x in lam)
    c = rho / (2.0 * g)
    return np.array(
        [
            c * (l1 + 2.0 * (g - 1.0) * l2 + l3),
            c * (l1 * (u - a) + 2.0 * (g - 1.0) * l2 * u + l3 * (u + a)),
            c * (l1 * (h - u * a) + (g - 1.0) * l2 * u * u + l3 * (h + u * a)),
        ]
    )


def flux_sw_fvs(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Steger-Warming splitting: plus flux of the left state, minus of the right."""
    wl, wr = _as_w(wl), _as_w(wr)
    return _steger_warming_part(wl, gas.gamma, +1.0) + _steger_warming_part(wr, gas.gamma, -1.0)


def _van_leer_part(w, g: float, sign: float) -> np.ndarray:
    """Mach-quadratic van Leer split with C1 matching at M = +-1."""
    rho, u = w[0], w[1]
    a = sound_speed_array(w, g)
    mach = u / a
    full = flux_array(w, g)

    f_mass = sign * 0.25 * rho * a * (mach + sign) ** 2
    t = (g - 1.0) * u + sign * 2.0 * a
    sub = np.array([f_mass, f_mass * t / g, f_mass * t * t / (2.0 * (g * g - 1.0))])

    take_full = sign * mach >= 1.0  # wind fully through this side
    take_zero = sign * mach <= -1.0
    return np.where(take_full, full, np.where(take_zero, 0.0, sub))


def flux_vanleer_fvs(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    wl, wr = _as_w(wl), _as_w(wr)
    return _van_leer_part(wl, gas.gamma, +1.0) + _van_leer_part(wr, gas.gamma, -1.0)


# ---------------------------------------------------------------------------
# AUSM family
# ---------------------------------------------------------------------------

def _mach_split_1(mach, sign):
    """First AUSM Mach splitting: quadratic subsonic, linear supersonic."""
    sub = sign * 0.25 * (mach + sign) ** 2
    sup = 0.5 * (mach + sign * np.abs(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def _pressure_split_1(mach, sign):
    """AUSM pressure weight: (1/4)(M+-1)^2 (2 -+ M) subsonic, step supersonic."""
    sub = 0.25 * (mach + sign) ** 2 * (2.0 - sign * mach)
    sup = 0.5 * (1.0 + sign * np.sign(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def _mach_split_4(mach, sign, beta):
    """Fourth-degree AUSM+ Mach splitting."""
    sub = sign * 0.25 * (mach + sign) ** 2 + sign * beta * (mach * mach - 1.0) ** 2
    sup = 0.5 * (mach + sign * np.abs(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def _pressure_split_5(mach, sign, alpha):
    """Fifth-degree AUSM+ pressure splitting."""
    sub = 0.25 * (mach + sign) ** 2 * (2.0 - sign * mach) + sign * alpha * mach * (
        mach * mach - 1.0
    ) ** 2
    sup = 0.5 * (1.0 + sign * np.sign(mach))
    return np.where(np.abs(mach) <= 1.0, sub, sup)


def _interface_sound_speed(wl, wr, g: float):
    """Common interface sound speed from the critical speeds of both sides."""
    crit_l = np.sqrt(2.0 * (g - 1.0) / (g + 1.0) * enthalpy_array(wl, g))
    crit_r = np.sqrt(2.0 * (g - 1.0) / (g + 1.0) * enthalpy_array(wr, g))
    hat_l = crit_l * crit_l / np.maximum(crit_l, wl[1])
    hat_r = crit_r * crit_r / np.maximum(crit_r, -wr[1])
    return np.minimum(hat_l, hat_r)


def _convect(m_half, psi_l, psi_r):
    """Upwind the convected vector on the sign of the interface Mach number."""
    return m_half * np.where(m_half > 0.0, psi_l, psi_r)


def flux_ausm(variant: AusmVariant, wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Advection upstream splitting: convective and pressure parts split.

    basic    - per-side sound speeds, quadratic Mach split, cubic pressure split
    plus     - common interface sound speed, 4th/5th degree polynomials
    plus-up  - plus variant with pressure/velocity diffusion and low-Mach scaling
    """
    wl, wr = _as_w(wl), _as_w(wr)
    g = gas.gamma
    rho_l, u_l, p_l = wl[0], wl[1], wl[2]
    rho_r, u_r, p_r = wr[0], wr[1], wr[2]
    h_l = enthalpy_array(wl, g)
    h_r = enthalpy_array(wr, g)

    if variant is AusmVariant.BASIC:
        a_l = sound_speed_array(wl, g)
        a_r = sound_speed_array(wr, g)
        mach_l = u_l / a_l
        mach_r = u_r / a_r
        m_half = _mach_split_1(mach_l, +1.0) + _mach_split_1(mach_r, -1.0)
        p_half = _pressure_split_1(mach_l, +1.0) * p_l + _pressure_split_1(mach_r, -1.0) * p_r
        psi_l = np.array([rho_l * a_l, rho_l * a_l * u_l, rho_l * a_l * h_l])
        psi_r = np.array([rho_r * a_r, rho_r * a_r * u_r, rho_r * a_r * h_r])
        flux = _convect(m_half, psi_l, psi_r)
        flux[1] = flux[1] + p_half
        return flux

    a_half = _interface_sound_speed(wl, wr, g)
    mach_l = u_l / a_half
    mach_r = u_r / a_half
    beta = AUSM_PLUS_BETA

    if variant is AusmVariant.PLUS:
        alpha = AUSM_PLUS_ALPHA
        m_half = _mach_split_4(mach_l, +1.0, beta) + _mach_split_4(mach_r, -1.0, beta)
        p_half = (
            _pressure_split_5(mach_l, +1.0, alpha) * p_l
            + _pressure_split_5(mach_r, -1.0, alpha) * p_r
        )
    elif variant is AusmVariant.PLUS_UP:
        mach_bar_sq = (u_l * u_l + u_r * u_r) / (2.0 * a_half * a_half)
        mach_ref_sq = np.clip(mach_bar_sq, AUSM_UP_CUTOFF_MACH**2, 1.0)
        fa = np.sqrt(mach_ref_sq) * (2.0 - np.sqrt(mach_ref_sq))
        alpha = AUSM_PLUS_ALPHA * (-4.0 + 5.0 * fa * fa)
        rho_half = 0.5 * (rho_l + rho_r)
        m_p = (
            -AUSM_UP_KP
            / fa
            * np.maximum(1.0 - AUSM_UP_SIGMA * mach_bar_sq, 0.0)
            * (p_r - p_l)
            / (rho_half * a_half * a_half)
        )
        m_half = _mach_split_4(mach_l, +1.0, beta) + _mach_split_4(mach_r, -1.0, beta) + m_p
        p_plus = _pressure_split_5(mach_l, +1.0, alpha)
        p_minus = _pressure_split_5(mach_r, -1.0, alpha)
        p_u = -AUSM_UP_KU * p_plus * p_minus * (rho_l + rho_r) * fa * a_half * (u_r - u_l)
        p_half = p_plus * p_l + p_minus * p_r + p_u
    else:
        raise InvalidConfig(f"unknown AUSM variant {variant!r}")

    mdot = a_half * m_half * np.where(m_half > 0.0, rho_l, rho_r)
    psi_l = np.array([np.ones_like(u_l), u_l, h_l])
    psi_r = np.array([np.ones_like(u_r), u_r, h_r])
    flux = mdot * np.where(m_half > 0.0, psi_l, psi_r)
    flux[1] = flux[1] + p_half
    return flux


# ---------------------------------------------------------------------------
# AUFS: two-wave flux around artificially placed acoustic speeds
# ---------------------------------------------------------------------------

def flux_aufs(wl, wr, gas: GasModel = GasModel()) -> np.ndarray:
    """Artificially upstream splitting.

    The two signal speeds are placed artificially at u_avg -+ S2, where u_avg
    is the simple average of the face velocities and S2 an acoustic speed
    scale.  Expanding the two-wave formula shows the double splitting: the
    left/right fluxes are weighted by (1 +- M)/2 with M = u_avg/S2 (so the
    sign of u_avg decides the upwind bias), and the residual dissipation
    scales with S2 (1 - M^2).  Supersonic faces reduce to pure upwinding.
    """
    wl, wr = _as_w(wl), _as_w(wr)
    g = gas.gamma
    a_l = sound_speed_array(wl, g)
    a_r = sound_speed_array(wr, g)
    u_avg = 0.5 * (wl[1] + wr[1])
    s2 = 0.5 * (a_l + a_r)
    return _two_wave_flux(wl, wr, u_avg - s2, u_avg + s2, g)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_E = WaveSpeedEstimate

# Every kernel takes (wl, wr, gas, dx, dt).  KNP's zero-anchored one-sided
# speeds a+ = max(u_L + a_L, u_R + a_R, 0) and a- = min(u_L - a_L, u_R - a_R, 0)
# are the Davis-2 estimates clamped around zero, and Kurganov-Tadmor with fixed
# 0.5 weights is Rusanov's construction; sharing the kernels keeps
# KNP == HLL-Davis2 and KT == Rusanov bit for bit.
_KERNELS = {
    FluxMethod.RIEMANN: lambda wl, wr, gas, *_: flux_exact(wl, wr, gas),
    FluxMethod.ROE: lambda wl, wr, gas, *_: flux_roe(wl, wr, gas),
    FluxMethod.KNP: lambda wl, wr, gas, *_: flux_hll(_E.DAVIS2, wl, wr, gas),
    FluxMethod.KT: lambda wl, wr, gas, *_: flux_rusanov(wl, wr, gas),
    FluxMethod.SW: lambda wl, wr, gas, *_: flux_sw_fvs(wl, wr, gas),
    FluxMethod.VAN_LEER: lambda wl, wr, gas, *_: flux_vanleer_fvs(wl, wr, gas),
    FluxMethod.AUSM: lambda wl, wr, gas, *_: flux_ausm(AusmVariant.BASIC, wl, wr, gas),
    FluxMethod.AUSM_PLUS: lambda wl, wr, gas, *_: flux_ausm(AusmVariant.PLUS, wl, wr, gas),
    FluxMethod.AUSM_PLUS_UP: lambda wl, wr, gas, *_: flux_ausm(AusmVariant.PLUS_UP, wl, wr, gas),
    FluxMethod.AUFS: lambda wl, wr, gas, *_: flux_aufs(wl, wr, gas),
    FluxMethod.HLL_DAVIS1: lambda wl, wr, gas, *_: flux_hll(_E.DAVIS1, wl, wr, gas),
    FluxMethod.HLL_DAVIS2: lambda wl, wr, gas, *_: flux_hll(_E.DAVIS2, wl, wr, gas),
    FluxMethod.HLL_ROE: lambda wl, wr, gas, *_: flux_hll(_E.ROE, wl, wr, gas),
    FluxMethod.HLL_EINFELDT: lambda wl, wr, gas, *_: flux_hll(_E.EINFELDT, wl, wr, gas),
    FluxMethod.HLL_PBASED: lambda wl, wr, gas, *_: flux_hll(_E.P_BASED, wl, wr, gas),
    FluxMethod.HLLC_DAVIS1: lambda wl, wr, gas, *_: flux_hllc(_E.DAVIS1, wl, wr, gas),
    FluxMethod.HLLC_DAVIS2: lambda wl, wr, gas, *_: flux_hllc(_E.DAVIS2, wl, wr, gas),
    FluxMethod.HLLC_ROE: lambda wl, wr, gas, *_: flux_hllc(_E.ROE, wl, wr, gas),
    FluxMethod.HLLC_EINFELDT: lambda wl, wr, gas, *_: flux_hllc(_E.EINFELDT, wl, wr, gas),
    FluxMethod.HLLC_PBASED: lambda wl, wr, gas, *_: flux_hllc(_E.P_BASED, wl, wr, gas),
    FluxMethod.LF: lambda wl, wr, gas, dx, dt: flux_lf(wl, wr, gas, dx, dt),
    FluxMethod.RUSANOV: lambda wl, wr, gas, *_: flux_rusanov(wl, wr, gas),
}


def compute_face_flux(
    method: FluxMethod,
    wl,
    wr,
    gas: GasModel = GasModel(),
    *,
    dx: float | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Dispatch to the selected method. Only Lax-Friedrichs consumes dx/dt."""
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise InvalidConfig(f"unknown flux method {method!r}")
    return kernel(wl, wr, gas, dx, dt)
