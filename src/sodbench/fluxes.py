"""The 22 intercell flux construction methods.

Every method maps the face states coming out of the MUSCL step to a numerical
flux vector.  The two sides arrive as one float array ``faces`` of shape
``(3, 2, ...)``: rows of density, velocity and pressure, with ``faces[:, 0]``
the face-left states and ``faces[:, 1]`` the face-right ones.  A single face
is ``(3, 2)`` and gives a ``(3,)`` flux; ``(3, 2, m)`` gives ``(3, m)``.  Each
per-side quantity (state, Euler flux, sound speed, enthalpy, the split
fluxes) is computed once on both sides; the splittings take their sign as
a column of +1 and -1 shaped to a row ``faces[k]``.

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
from .gas import GasModel, enthalpy_array, flux_array, sound_speed_array, state_and_flux_array

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


_SIGN = np.array([1.0, -1.0])


def _side_sign(faces) -> np.ndarray:
    """+1 for the face-left side and -1 for the face-right one, as a column
    that broadcasts against a row ``faces[k]``."""
    return _SIGN.reshape((2,) + (1,) * (faces.ndim - 2))


def _fluxes_and_jump(faces, g: float):
    """F(w_L), F(w_R) and q_R - q_L; the states are freed on return."""
    q, f = state_and_flux_array(faces, g)
    return f[:, 0], f[:, 1], q[:, 1] - q[:, 0]


# ---------------------------------------------------------------------------
# Averages and signal-speed estimates
# ---------------------------------------------------------------------------

def roe_average(faces, gas: GasModel = GasModel()) -> RoeAverages:
    g = gas.gamma
    s = np.sqrt(faces[0])
    den = s[0] + s[1]
    su = s * faces[1]
    sh = s * enthalpy_array(faces, g)
    u = (su[0] + su[1]) / den
    h = (sh[0] + sh[1]) / den
    a = np.sqrt((g - 1.0) * (h - 0.5 * u * u))
    return RoeAverages(u=u, h_total=h, a=a)


def wave_speed_estimate(
    variant: WaveSpeedEstimate, faces, gas: GasModel = GasModel()
) -> WaveSpeedPair:
    """Left/right signal speeds (S_L, S_R) for the HLL/HLLC families."""
    if variant is WaveSpeedEstimate.ROE:
        avg = roe_average(faces, gas)
        return WaveSpeedPair(avg.u - avg.a, avg.u + avg.a)
    g = gas.gamma
    u = faces[1]
    a = sound_speed_array(faces, g)

    if variant is WaveSpeedEstimate.DAVIS1:
        return WaveSpeedPair(u[0] - a[0], u[1] + a[1])
    if variant is WaveSpeedEstimate.DAVIS2:
        lo, hi = u - a, u + a
        return WaveSpeedPair(np.minimum(lo[0], lo[1]), np.maximum(hi[0], hi[1]))
    if variant is WaveSpeedEstimate.EINFELDT:
        s = np.sqrt(faces[0])
        den = s[0] + s[1]
        su = s * u
        sa = s * a**2
        u_roe = (su[0] + su[1]) / den
        d2 = (sa[0] + sa[1]) / den + 0.5 * s[0] * s[1] * ((u[1] - u[0]) / den) ** 2
        d = np.sqrt(d2)
        return WaveSpeedPair(u_roe - d, u_roe + d)
    if variant is WaveSpeedEstimate.P_BASED:
        # Primitive-variable pressure estimate; compression (u_r < u_l)
        # raises the estimate and flags the shocked side.  Strong expansions
        # can drive the raw estimate negative; the floor only affects the
        # branch in which the compression factor is unused.
        rho, p = faces[0], faces[2]
        p_star = 0.5 * (p[0] + p[1]) - 0.125 * (u[1] - u[0]) * (a[1] + a[0]) * (rho[1] + rho[0])
        p_floor = np.maximum(p_star, 0.0)
        shock_factor = (g + 1.0) / (2.0 * g)
        f = np.where(p_star <= p, 1.0, np.sqrt(1.0 + (p_floor / p - 1.0) * shock_factor))
        fa = f * a
        return WaveSpeedPair(u[0] - fa[0], u[1] + fa[1])
    raise InvalidConfig(f"unknown wave speed estimate {variant!r}")


# ---------------------------------------------------------------------------
# Exact (Godunov) and Roe fluxes
# ---------------------------------------------------------------------------

def flux_exact(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Solve the face Riemann problem exactly and evaluate the flux of the
    state sitting on the face ray."""
    w0 = riemann.interface_states(faces[:, 0], faces[:, 1], gas.gamma)
    return flux_array(w0, gas.gamma)


def flux_roe(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Locally linearized (Roe-average) flux, without an entropy fix."""
    g = gas.gamma
    avg = roe_average(faces, gas)
    u, h, a = avg.u, avg.h_total, avg.a

    fl, fr, dq = _fluxes_and_jump(faces, g)
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

def _two_wave_flux(faces, s_left, s_right, g: float) -> np.ndarray:
    """Two-wave flux with the signal speeds clamped around zero.

    With S_L <= 0 <= S_R the expression is the standard intermediate-state
    flux; a clamped speed reproduces the pure upwind branches.  Degenerate
    spread below 1e-12 falls back to the centered average (only reachable for
    near-identical states, where that average is the consistent flux).
    """
    sl = np.minimum(s_left, 0.0)
    sr = np.maximum(s_right, 0.0)
    fl, fr, dq = _fluxes_and_jump(faces, g)
    spread = sr - sl
    degenerate = spread < 1e-12
    safe = np.where(degenerate, 1.0, spread)
    blended = (sr * fl - sl * fr + sl * sr * dq) / safe
    return np.where(degenerate, 0.5 * (fl + fr), blended)


def flux_hll(variant: WaveSpeedEstimate, faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Harten-Lax-van Leer two-wave flux with the selected speed estimate."""
    s_left, s_right = wave_speed_estimate(variant, faces, gas)
    return _two_wave_flux(faces, s_left, s_right, gas.gamma)


# ---------------------------------------------------------------------------
# HLLC three-wave fluxes
# ---------------------------------------------------------------------------

def flux_hllc(variant: WaveSpeedEstimate, faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Two-wave model with the contact wave restored (star states).

    Only the star state on the face's side of the contact is built: the left
    one where s* >= 0, the right one elsewhere.
    """
    g = gas.gamma
    s_l, s_r = wave_speed_estimate(variant, faces, gas)
    (rho_l, rho_r), (u_l, u_r), (p_l, p_r) = faces
    q, f = state_and_flux_array(faces, g)

    m_l = rho_l * (s_l - u_l)  # mass flux into the left wave (negative)
    m_r = rho_r * (s_r - u_r)
    den = m_l - m_r
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    s_star = (p_r - p_l + u_l * m_l - u_r * m_r) / den

    left = s_star >= 0.0
    rho_k, u_k, p_k = np.where(left, faces[:, 0], faces[:, 1])
    s_k = np.where(left, s_l, s_r)
    m_k = np.where(left, m_l, m_r)
    q_k = np.where(left, q[:, 0], q[:, 1])
    del q  # freed before the peak below; 1 MB at 20 000 faces

    gap = s_k - s_star
    factor = m_k / np.where(np.abs(gap) < 1e-300, 1e-300, gap)
    energy = q_k[2] / rho_k + (s_star - u_k) * (s_star + p_k / m_k)
    q_star = np.array([factor, factor * s_star, factor * energy])
    f_star = np.where(left, f[:, 0], f[:, 1]) + s_k * (q_star - q_k)

    return np.where(s_l >= 0.0, f[:, 0], np.where(s_r <= 0.0, f[:, 1], f_star))


# ---------------------------------------------------------------------------
# Central fluxes: Lax-Friedrichs, Rusanov
# ---------------------------------------------------------------------------

def _central_flux(faces, speed, g: float) -> np.ndarray:
    fl, fr, dq = _fluxes_and_jump(faces, g)
    return 0.5 * (fl + fr) - 0.5 * speed * dq


def flux_lf(
    faces, gas: GasModel = GasModel(), dx: float | None = None, dt: float | None = None
) -> np.ndarray:
    """Lax-Friedrichs flux; the dissipation speed is the mesh ratio dx/dt."""
    if dx is None or dt is None or dt <= 0.0 or dx <= 0.0:
        raise InvalidConfig(f"Lax-Friedrichs needs dx > 0 and dt > 0, got dx={dx}, dt={dt}")
    return _central_flux(faces, dx / dt, gas.gamma)


def flux_rusanov(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Single-wave flux with the local maximum signal speed."""
    s = np.abs(faces[1]) + sound_speed_array(faces, gas.gamma)
    return _central_flux(faces, np.maximum(s[0], s[1]), gas.gamma)


# ---------------------------------------------------------------------------
# Flux vector splittings: Steger-Warming and van Leer
# ---------------------------------------------------------------------------

def flux_sw_fvs(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Steger-Warming eigenvalue splitting: F+ of the left state plus F- of
    the right one."""
    g = gas.gamma
    sign = _side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    h = enthalpy_array(faces, g)
    lam = (u - a, u, u + a)
    l1, l2, l3 = (0.5 * (x + sign * np.abs(x)) for x in lam)
    c = rho / (2.0 * g)
    parts = np.array(
        [
            c * (l1 + 2.0 * (g - 1.0) * l2 + l3),
            c * (l1 * (u - a) + 2.0 * (g - 1.0) * l2 * u + l3 * (u + a)),
            c * (l1 * (h - u * a) + (g - 1.0) * l2 * u * u + l3 * (h + u * a)),
        ]
    )
    return parts[:, 0] + parts[:, 1]


def flux_vanleer_fvs(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Mach-quadratic van Leer split with C1 matching at M = +-1: F+ of the
    left state plus F- of the right one."""
    g = gas.gamma
    sign = _side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    mach = u / a
    full = flux_array(faces, g)

    f_mass = sign * 0.25 * rho * a * (mach + sign) ** 2
    t = (g - 1.0) * u + sign * 2.0 * a
    sub = np.array([f_mass, f_mass * t / g, f_mass * t * t / (2.0 * (g * g - 1.0))])

    take_full = sign * mach >= 1.0  # wind fully through this side
    take_zero = sign * mach <= -1.0
    parts = np.where(take_full, full, np.where(take_zero, 0.0, sub))
    return parts[:, 0] + parts[:, 1]


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


def _interface_sound_speed(u, h, sign, g: float):
    """Common interface sound speed from the critical speeds of both sides,
    whose velocities are ``u`` and total enthalpies ``h``."""
    crit = np.sqrt(2.0 * (g - 1.0) / (g + 1.0) * h)
    hat = crit * crit / np.maximum(crit, sign * u)
    return np.minimum(hat[0], hat[1])


def _upwind(m_half, x):
    """The face-left column of ``x`` where the interface Mach number is
    positive, the face-right one elsewhere."""
    return np.where(m_half > 0.0, x[:, 0], x[:, 1])


def flux_ausm(variant: AusmVariant, faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Advection upstream splitting: convective and pressure parts split.

    basic    - per-side sound speeds, quadratic Mach split, cubic pressure split
    plus     - common interface sound speed, 4th/5th degree polynomials
    plus-up  - plus variant with pressure/velocity diffusion and low-Mach scaling
    """
    g = gas.gamma
    sign = _side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)

    if variant is AusmVariant.BASIC:
        a = sound_speed_array(faces, g)
        mach = u / a
        m_split = _mach_split_1(mach, sign)
        m_half = m_split[0] + m_split[1]
        p_split = _pressure_split_1(mach, sign) * p
        p_half = p_split[0] + p_split[1]
        ra = rho * a
        flux = m_half * _upwind(m_half, np.array([ra, ra * u, ra * h]))
        flux[1] = flux[1] + p_half
        return flux

    a_half = _interface_sound_speed(u, h, sign, g)
    mach = u / a_half
    m_split = _mach_split_4(mach, sign, AUSM_PLUS_BETA)

    if variant is AusmVariant.PLUS:
        m_half = m_split[0] + m_split[1]
        p_split = _pressure_split_5(mach, sign, AUSM_PLUS_ALPHA) * p
        p_half = p_split[0] + p_split[1]
    elif variant is AusmVariant.PLUS_UP:
        uu = u * u
        mach_bar_sq = (uu[0] + uu[1]) / (2.0 * a_half * a_half)
        mach_ref = np.sqrt(np.minimum(np.maximum(mach_bar_sq, AUSM_UP_CUTOFF_MACH**2), 1.0))
        fa = mach_ref * (2.0 - mach_ref)
        alpha = AUSM_PLUS_ALPHA * (-4.0 + 5.0 * fa * fa)
        rho_half = 0.5 * (rho[0] + rho[1])
        m_p = (
            -AUSM_UP_KP
            / fa
            * np.maximum(1.0 - AUSM_UP_SIGMA * mach_bar_sq, 0.0)
            * (p[1] - p[0])
            / (rho_half * a_half * a_half)
        )
        m_half = m_split[0] + m_split[1] + m_p
        p_plus, p_minus = _pressure_split_5(mach, sign, alpha)
        p_u = -AUSM_UP_KU * p_plus * p_minus * (rho[0] + rho[1]) * fa * a_half * (u[1] - u[0])
        p_half = p_plus * p[0] + p_minus * p[1] + p_u
    else:
        raise InvalidConfig(f"unknown AUSM variant {variant!r}")

    # The mass flux convects (1, u, h) of the upwind side.
    rho_up, u_up, h_up = _upwind(m_half, np.array([rho, u, h]))
    mdot = a_half * m_half * rho_up
    return np.array([mdot, mdot * u_up + p_half, mdot * h_up])


# ---------------------------------------------------------------------------
# AUFS: two-wave flux around artificially placed acoustic speeds
# ---------------------------------------------------------------------------

def flux_aufs(faces, gas: GasModel = GasModel()) -> np.ndarray:
    """Artificially upstream splitting.

    The two signal speeds are placed artificially at u_avg -+ S2, where u_avg
    is the simple average of the face velocities and S2 an acoustic speed
    scale.  Expanding the two-wave formula shows the double splitting: the
    left/right fluxes are weighted by (1 +- M)/2 with M = u_avg/S2 (so the
    sign of u_avg decides the upwind bias), and the residual dissipation
    scales with S2 (1 - M^2).  Supersonic faces reduce to pure upwinding.
    """
    g = gas.gamma
    a = sound_speed_array(faces, g)
    u_avg = 0.5 * (faces[1, 0] + faces[1, 1])
    s2 = 0.5 * (a[0] + a[1])
    return _two_wave_flux(faces, u_avg - s2, u_avg + s2, g)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_E = WaveSpeedEstimate

# Every kernel takes (faces, gas, dx, dt).  KNP's zero-anchored one-sided
# speeds a+ = max(u_L + a_L, u_R + a_R, 0) and a- = min(u_L - a_L, u_R - a_R, 0)
# are the Davis-2 estimates clamped around zero, and Kurganov-Tadmor with fixed
# 0.5 weights is Rusanov's construction; sharing the kernels keeps
# KNP == HLL-Davis2 and KT == Rusanov bit for bit.
_KERNELS = {
    FluxMethod.RIEMANN: lambda faces, gas, *_: flux_exact(faces, gas),
    FluxMethod.ROE: lambda faces, gas, *_: flux_roe(faces, gas),
    FluxMethod.KNP: lambda faces, gas, *_: flux_hll(_E.DAVIS2, faces, gas),
    FluxMethod.KT: lambda faces, gas, *_: flux_rusanov(faces, gas),
    FluxMethod.SW: lambda faces, gas, *_: flux_sw_fvs(faces, gas),
    FluxMethod.VAN_LEER: lambda faces, gas, *_: flux_vanleer_fvs(faces, gas),
    FluxMethod.AUSM: lambda faces, gas, *_: flux_ausm(AusmVariant.BASIC, faces, gas),
    FluxMethod.AUSM_PLUS: lambda faces, gas, *_: flux_ausm(AusmVariant.PLUS, faces, gas),
    FluxMethod.AUSM_PLUS_UP: lambda faces, gas, *_: flux_ausm(AusmVariant.PLUS_UP, faces, gas),
    FluxMethod.AUFS: lambda faces, gas, *_: flux_aufs(faces, gas),
    FluxMethod.HLL_DAVIS1: lambda faces, gas, *_: flux_hll(_E.DAVIS1, faces, gas),
    FluxMethod.HLL_DAVIS2: lambda faces, gas, *_: flux_hll(_E.DAVIS2, faces, gas),
    FluxMethod.HLL_ROE: lambda faces, gas, *_: flux_hll(_E.ROE, faces, gas),
    FluxMethod.HLL_EINFELDT: lambda faces, gas, *_: flux_hll(_E.EINFELDT, faces, gas),
    FluxMethod.HLL_PBASED: lambda faces, gas, *_: flux_hll(_E.P_BASED, faces, gas),
    FluxMethod.HLLC_DAVIS1: lambda faces, gas, *_: flux_hllc(_E.DAVIS1, faces, gas),
    FluxMethod.HLLC_DAVIS2: lambda faces, gas, *_: flux_hllc(_E.DAVIS2, faces, gas),
    FluxMethod.HLLC_ROE: lambda faces, gas, *_: flux_hllc(_E.ROE, faces, gas),
    FluxMethod.HLLC_EINFELDT: lambda faces, gas, *_: flux_hllc(_E.EINFELDT, faces, gas),
    FluxMethod.HLLC_PBASED: lambda faces, gas, *_: flux_hllc(_E.P_BASED, faces, gas),
    FluxMethod.LF: lambda faces, gas, dx, dt: flux_lf(faces, gas, dx, dt),
    FluxMethod.RUSANOV: lambda faces, gas, *_: flux_rusanov(faces, gas),
}


def compute_face_flux(
    method: FluxMethod,
    faces,
    gas: GasModel = GasModel(),
    *,
    dx: float | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Dispatch to the selected method on ``faces``, both sides' states as
    one ``(3, 2, ...)`` array.  Only Lax-Friedrichs consumes dx/dt."""
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise InvalidConfig(f"unknown flux method {method!r}")
    return kernel(faces, gas, dx, dt)
