"""The 22 intercell flux construction methods.

Every method maps the face states coming out of the MUSCL step to a numerical
flux vector.  The two sides arrive as one float array ``faces`` of shape
``(3, 2, ...)``: rows of density, velocity and pressure, with ``faces[:, 0]``
the face-left states and ``faces[:, 1]`` the face-right ones.  A single face
is ``(3, 2)`` and gives a ``(3,)`` flux; ``(3, 2, m)`` gives ``(3, m)``.  Each
per-side quantity (state, Euler flux, sound speed, enthalpy, the split
fluxes) is computed once on both sides; the splittings take their sign as
a column of +1 and -1 shaped to a row ``faces[k]``.

``FluxMethod`` is the only selector.  ``_KERNELS`` maps each method to its
kernel and, for the two-wave and HLLC families, to one of the six signal-speed
estimates ``(faces, g) -> (S_L, S_R)``: Davis-1, Davis-2, Roe, Einfeldt,
p-based and AUFS.  AUSM, AUSM+ and AUSM+-up are three kernels.  Every kernel
takes the ratio of specific heats as a float ``g``; ``compute_face_flux`` is
the one entry that takes a validated ``GasModel``.

Closed-form sources: Roe averages and wave strengths follow the standard
eigendecomposition of the Roe-average Jacobian; the Steger-Warming and van
Leer splittings are the classical perfect-gas forms; the AUSM family follows
Liou-Steffen / Liou (the plus and plus-up variants with the common interface
sound speed built from the critical speeds); HLLC restores the contact wave
on top of the two-wave model with the usual star states.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import riemann
from .errors import InvalidConfig
from .gas import GasModel, enthalpy_array, flux_array, sound_speed_array, state_and_flux_array

__all__ = [
    "FluxMethod",
    "roe_average",
    "davis1_speeds",
    "davis2_speeds",
    "roe_speeds",
    "einfeldt_speeds",
    "pbased_speeds",
    "aufs_speeds",
    "flux_exact",
    "flux_roe",
    "flux_hll",
    "flux_hllc",
    "flux_sw_fvs",
    "flux_vanleer_fvs",
    "flux_ausm",
    "flux_ausm_plus",
    "flux_ausm_plus_up",
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
        return list(FluxMethod).index(self) + 1


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
# Averages and signal-speed estimates (S_L, S_R) for the HLL/HLLC families
# ---------------------------------------------------------------------------

def _roe_weights(faces):
    """Both sides' square-root-density weights, their sum and the Roe-average
    velocity."""
    s = np.sqrt(faces[0])
    den = s[0] + s[1]
    su = s * faces[1]
    return s, den, (su[0] + su[1]) / den


def roe_average(faces, g: float):
    """Square-root-density weighted velocity, total enthalpy and sound speed,
    as the tuple (u, h, a)."""
    s, den, u = _roe_weights(faces)
    sh = s * enthalpy_array(faces, g)
    h = (sh[0] + sh[1]) / den
    a = np.sqrt((g - 1.0) * (h - 0.5 * u * u))
    return u, h, a


def davis1_speeds(faces, g: float):
    """u_L - a_L and u_R + a_R."""
    u = faces[1]
    a = sound_speed_array(faces, g)
    return u[0] - a[0], u[1] + a[1]


def davis2_speeds(faces, g: float):
    """The smaller u - a and the larger u + a of the two sides."""
    u = faces[1]
    a = sound_speed_array(faces, g)
    lo, hi = u - a, u + a
    return np.minimum(lo[0], lo[1]), np.maximum(hi[0], hi[1])


def roe_speeds(faces, g: float):
    """The Roe average's u -+ a."""
    u, _, a = roe_average(faces, g)
    return u - a, u + a


def einfeldt_speeds(faces, g: float):
    """The Roe-average velocity -+ Einfeldt's averaged sound speed."""
    s, den, u_roe = _roe_weights(faces)
    u = faces[1]
    sa = s * sound_speed_array(faces, g) ** 2
    d2 = (sa[0] + sa[1]) / den + 0.5 * s[0] * s[1] * ((u[1] - u[0]) / den) ** 2
    d = np.sqrt(d2)
    return u_roe - d, u_roe + d


def pbased_speeds(faces, g: float):
    """u -+ a scaled on a shocked side by the primitive-variable pressure
    estimate.

    Compression (u_r < u_l) raises the estimate and flags the shocked side,
    where p* > p; elsewhere the maximum makes the factor exactly 1.
    """
    u = faces[1]
    a = sound_speed_array(faces, g)
    rho, p = faces[0], faces[2]
    p_star = 0.5 * (p[0] + p[1]) - 0.125 * (u[1] - u[0]) * (a[1] + a[0]) * (rho[1] + rho[0])
    shock_factor = (g + 1.0) / (2.0 * g)
    f = np.sqrt(np.maximum(1.0 + (p_star / p - 1.0) * shock_factor, 1.0))
    fa = f * a
    return u[0] - fa[0], u[1] + fa[1]


def aufs_speeds(faces, g: float):
    """Artificially upstream splitting's speeds.

    The two signal speeds are placed artificially at u_avg -+ S2, where u_avg
    is the simple average of the face velocities and S2 an acoustic speed
    scale.  Expanding the two-wave formula shows the double splitting: the
    left/right fluxes are weighted by (1 +- M)/2 with M = u_avg/S2 (so the
    sign of u_avg decides the upwind bias), and the residual dissipation
    scales with S2 (1 - M^2).  Supersonic faces reduce to pure upwinding.
    """
    a = sound_speed_array(faces, g)
    u_avg = 0.5 * (faces[1, 0] + faces[1, 1])
    s2 = 0.5 * (a[0] + a[1])
    return u_avg - s2, u_avg + s2


# ---------------------------------------------------------------------------
# Exact (Godunov) and Roe fluxes
# ---------------------------------------------------------------------------

def flux_exact(faces, g: float) -> np.ndarray:
    """Solve the face Riemann problem exactly and evaluate the flux of the
    state sitting on the face ray."""
    w0 = riemann.interface_states(faces[:, 0], faces[:, 1], g)
    return flux_array(w0, g)


def flux_roe(faces, g: float) -> np.ndarray:
    """Locally linearized (Roe-average) flux, without an entropy fix."""
    u, h, a = roe_average(faces, g)
    u_m, u_p, ua = u - a, u + a, u * a

    fl, fr, dq = _fluxes_and_jump(faces, g)
    alpha2 = (g - 1.0) / (a * a) * (dq[0] * (h - u * u) + u * dq[1] - dq[2])
    alpha1 = (dq[0] * u_p - dq[1] - a * alpha2) / (2.0 * a)
    alpha3 = dq[0] - alpha1 - alpha2

    # |lambda_k| alpha_k: each wave's strength times its absolute speed
    s1, s2, s3 = np.abs(u_m) * alpha1, np.abs(u) * alpha2, np.abs(u_p) * alpha3
    diss = np.array(
        [
            s1 + s2 + s3,
            s1 * u_m + s2 * u + s3 * u_p,
            s1 * (h - ua) + s2 * 0.5 * u * u + s3 * (h + ua),
        ]
    )
    return 0.5 * (fl + fr) - 0.5 * diss


# ---------------------------------------------------------------------------
# HLL two-wave and HLLC three-wave fluxes
# ---------------------------------------------------------------------------

def flux_hll(faces, g: float, speeds) -> np.ndarray:
    """Harten-Lax-van Leer two-wave flux with the signal speeds
    ``speeds(faces, g)`` clamped around zero.

    With S_L <= 0 <= S_R the expression is the standard intermediate-state
    flux; a clamped speed reproduces the pure upwind branches.  A spread below
    1e-12 (S_L >= 0 >= S_R: colliding supersonic streams, as on Toro's test 4
    with the Davis-1 speeds) falls back to the centered average.
    """
    s_left, s_right = speeds(faces, g)
    sl = np.minimum(s_left, 0.0)
    sr = np.maximum(s_right, 0.0)
    fl, fr, dq = _fluxes_and_jump(faces, g)
    spread = sr - sl
    blend = sr * fl - sl * fr + sl * sr * dq
    # NaN-ignoring: a NaN spread is not degenerate, as in the selects
    if np.fmin.reduce(spread, axis=None, initial=np.inf) < 1e-12:
        degenerate = spread < 1e-12
        return np.where(degenerate, 0.5 * (fl + fr), blend / np.where(degenerate, 1.0, spread))
    return blend / spread


def flux_hllc(faces, g: float, speeds) -> np.ndarray:
    """Two-wave model with the signal speeds ``speeds(faces, g)`` and the
    contact wave restored (star states).

    Both sides' star states are built at once, on the side axis, and each
    face takes one: the left where s* >= 0, the right elsewhere.  The upwind
    branches (S_L >= 0 or S_R <= 0) and the guards of a zero denominator are
    built only in a batch where some face needs them.
    """
    s_l, s_r = speeds(faces, g)
    s = np.array([s_l, s_r])
    rho, u, p = faces
    q, f = state_and_flux_array(faces, g)

    m = rho * (s - u)  # mass flux into each wave (negative on the left)
    um = u * m
    s_star = (p[1] - p[0] + um[0] - um[1]) / _nonzero(m[0] - m[1])

    factor = m / _nonzero(s - s_star)
    energy = q[2] / rho + (s_star - u) * (s_star + p / m)
    q_star = np.array([factor, factor * s_star, factor * energy])
    f_star = f + s * (q_star - q)
    flux = np.where(s_star >= 0.0, f_star[:, 0], f_star[:, 1])

    # NaN-ignoring reductions: a NaN speed takes the star flux, as it does
    # in the selects, and must not hide a face that needs them
    if (
        np.fmax.reduce(s_l, axis=None, initial=-np.inf) >= 0.0
        or np.fmin.reduce(s_r, axis=None, initial=np.inf) <= 0.0
    ):
        flux = np.where(s_l >= 0.0, f[:, 0], np.where(s_r <= 0.0, f[:, 1], flux))
    return flux


def _nonzero(x):
    """``x`` with each magnitude below 1e-300 raised to 1e-300; the where
    is built only in a batch that has one."""
    magnitude = np.abs(x)
    if np.fmin.reduce(magnitude, axis=None, initial=np.inf) < 1e-300:
        return np.where(magnitude < 1e-300, 1e-300, x)
    return x


# ---------------------------------------------------------------------------
# Central fluxes: Lax-Friedrichs, Rusanov
# ---------------------------------------------------------------------------

def _central_flux(faces, speed, g: float) -> np.ndarray:
    fl, fr, dq = _fluxes_and_jump(faces, g)
    return 0.5 * (fl + fr) - 0.5 * speed * dq


def flux_lf(faces, g: float, dx: float | None, dt: float | None) -> np.ndarray:
    """Lax-Friedrichs flux; the dissipation speed is the mesh ratio dx/dt."""
    if dx is None or dt is None or not (0.0 < dx < math.inf and 0.0 < dt < math.inf):
        raise InvalidConfig(f"Lax-Friedrichs needs finite dx > 0 and dt > 0, got dx={dx}, dt={dt}")
    speed = float(dx) / float(dt)
    if speed == math.inf:
        raise InvalidConfig(f"Lax-Friedrichs needs a finite dx/dt, got dx={dx}, dt={dt}")
    return _central_flux(faces, speed, g)


def flux_rusanov(faces, g: float) -> np.ndarray:
    """Single-wave flux with the local maximum signal speed."""
    s = np.abs(faces[1]) + sound_speed_array(faces, g)
    return _central_flux(faces, np.maximum(s[0], s[1]), g)


# ---------------------------------------------------------------------------
# Flux vector splittings: Steger-Warming and van Leer
# ---------------------------------------------------------------------------

def flux_sw_fvs(faces, g: float) -> np.ndarray:
    """Steger-Warming eigenvalue splitting: F+ of the left state plus F- of
    the right one."""
    sign = _side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    h = enthalpy_array(faces, g)
    u_m, u_p, ua = u - a, u + a, u * a
    l1, l2, l3 = (0.5 * (x + sign * np.abs(x)) for x in (u_m, u, u_p))
    c = rho / (2.0 * g)
    middle = 2.0 * (g - 1.0) * l2
    parts = np.array(
        [
            c * (l1 + middle + l3),
            c * (l1 * u_m + middle * u + l3 * u_p),
            c * (l1 * (h - ua) + (g - 1.0) * l2 * u * u + l3 * (h + ua)),
        ]
    )
    return parts[:, 0] + parts[:, 1]


def flux_vanleer_fvs(faces, g: float) -> np.ndarray:
    """Mach-quadratic van Leer split with C1 matching at M = +-1: F+ of the
    left state plus F- of the right one.

    The supersonic parts (the full flux and zero) are built only in a batch
    where some side has |M| >= 1.
    """
    sign = _side_sign(faces)
    rho, u = faces[0], faces[1]
    a = sound_speed_array(faces, g)
    mach = u / a

    f_mass = sign * 0.25 * rho * a * (mach + sign) ** 2
    t = (g - 1.0) * u + sign * 2.0 * a
    ft = f_mass * t
    parts = np.array([f_mass, ft / g, ft * t / (2.0 * (g * g - 1.0))])

    # NaN-ignoring: a NaN Mach number takes the subsonic part either way
    if np.fmax.reduce(np.abs(mach), axis=None, initial=0.0) >= 1.0:
        sign_mach = sign * mach
        take_full = sign_mach >= 1.0  # wind fully through this side
        parts = np.where(take_full, flux_array(faces, g), np.where(sign_mach <= -1.0, 0.0, parts))
    return parts[:, 0] + parts[:, 1]


# ---------------------------------------------------------------------------
# AUSM family: the convective and pressure parts split
# ---------------------------------------------------------------------------

def _ausm_splits(mach, sign, alpha=None):
    """Both sides' Mach and pressure splittings: AUSM's quadratic and cubic,
    or with ``alpha`` AUSM+'s, which add beta and alpha times (M^2 - 1)^2.

    The supersonic branch is built only in a batch where some |M| > 1.
    """
    quarter = 0.25 * (mach + sign) ** 2
    m_sub = sign * quarter
    p_sub = quarter * (2.0 - sign * mach)
    if alpha is not None:
        bump = (mach * mach - 1.0) ** 2
        m_sub = m_sub + sign * AUSM_PLUS_BETA * bump
        p_sub = p_sub + sign * alpha * mach * bump
    abs_mach = np.abs(mach)
    # NaN-propagating: a NaN Mach number takes the supersonic branch
    if np.maximum.reduce(abs_mach, axis=None, initial=0.0) <= 1.0:
        return m_sub, p_sub
    subsonic = abs_mach <= 1.0
    m_split = np.where(subsonic, m_sub, 0.5 * (mach + sign * abs_mach))
    return m_split, np.where(subsonic, p_sub, 0.5 * (1.0 + sign * np.sign(mach)))


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


def _upwind_mass_flux(m_half, p_half, a_half, rho, u, h):
    """The plus variants' flux: the mass flux a_half m_half rho convects
    (1, u, h) of the upwind side, and the momentum row adds p_half."""
    rho_up, u_up, h_up = _upwind(m_half, np.array([rho, u, h]))
    mdot = a_half * m_half * rho_up
    return np.array([mdot, mdot * u_up + p_half, mdot * h_up])


def flux_ausm(faces, g: float) -> np.ndarray:
    """AUSM: per-side sound speeds, quadratic Mach split, cubic pressure
    split."""
    sign = _side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)
    a = sound_speed_array(faces, g)
    m_split, p_weight = _ausm_splits(u / a, sign)
    m_half = m_split[0] + m_split[1]
    p_split = p_weight * p
    ra = rho * a
    flux = m_half * _upwind(m_half, np.array([ra, ra * u, ra * h]))
    flux[1] = flux[1] + (p_split[0] + p_split[1])
    return flux


def flux_ausm_plus(faces, g: float) -> np.ndarray:
    """AUSM+: common interface sound speed, 4th/5th degree polynomials."""
    sign = _side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)
    a_half = _interface_sound_speed(u, h, sign, g)
    m_split, p_weight = _ausm_splits(u / a_half, sign, AUSM_PLUS_ALPHA)
    p_split = p_weight * p
    return _upwind_mass_flux(m_split[0] + m_split[1], p_split[0] + p_split[1], a_half, rho, u, h)


def flux_ausm_plus_up(faces, g: float) -> np.ndarray:
    """AUSM+-up: AUSM+ with pressure and velocity diffusion and low-Mach
    scaling."""
    sign = _side_sign(faces)
    rho, u, p = faces[0], faces[1], faces[2]
    h = enthalpy_array(faces, g)
    a_half = _interface_sound_speed(u, h, sign, g)
    uu = u * u
    mach_bar_sq = (uu[0] + uu[1]) / (2.0 * a_half * a_half)
    mach_ref = np.sqrt(np.minimum(np.maximum(mach_bar_sq, AUSM_UP_CUTOFF_MACH**2), 1.0))
    fa = mach_ref * (2.0 - mach_ref)
    alpha = AUSM_PLUS_ALPHA * (-4.0 + 5.0 * fa * fa)
    m_split, p_weight = _ausm_splits(u / a_half, sign, alpha)
    p_split = p_weight * p

    rho_sum = rho[0] + rho[1]
    rho_half = 0.5 * rho_sum
    m_p = (
        -AUSM_UP_KP
        / fa
        * np.maximum(1.0 - AUSM_UP_SIGMA * mach_bar_sq, 0.0)
        * (p[1] - p[0])
        / (rho_half * a_half * a_half)
    )
    p_plus, p_minus = p_weight
    p_u = -AUSM_UP_KU * p_plus * p_minus * rho_sum * fa * a_half * (u[1] - u[0])
    m_half = m_split[0] + m_split[1] + m_p
    p_half = p_split[0] + p_split[1] + p_u
    return _upwind_mass_flux(m_half, p_half, a_half, rho, u, h)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

# One entry per method: its kernel and, for the two-wave and HLLC families,
# the signal-speed estimate the kernel takes.  AUFS is the two-wave flux
# around its artificial speeds.  KNP's zero-anchored one-sided speeds
# a+ = max(u_L + a_L, u_R + a_R, 0) and a- = min(u_L - a_L, u_R - a_R, 0) are
# the Davis-2 estimates clamped around zero, and Kurganov-Tadmor with fixed
# 0.5 weights is Rusanov's construction; sharing the kernels keeps
# KNP == HLL-Davis2 and KT == Rusanov bit for bit.
_KERNELS = {
    FluxMethod.RIEMANN: (flux_exact,),
    FluxMethod.ROE: (flux_roe,),
    FluxMethod.KNP: (flux_hll, davis2_speeds),
    FluxMethod.KT: (flux_rusanov,),
    FluxMethod.SW: (flux_sw_fvs,),
    FluxMethod.VAN_LEER: (flux_vanleer_fvs,),
    FluxMethod.AUSM: (flux_ausm,),
    FluxMethod.AUSM_PLUS: (flux_ausm_plus,),
    FluxMethod.AUSM_PLUS_UP: (flux_ausm_plus_up,),
    FluxMethod.AUFS: (flux_hll, aufs_speeds),
    FluxMethod.HLL_DAVIS1: (flux_hll, davis1_speeds),
    FluxMethod.HLL_DAVIS2: (flux_hll, davis2_speeds),
    FluxMethod.HLL_ROE: (flux_hll, roe_speeds),
    FluxMethod.HLL_EINFELDT: (flux_hll, einfeldt_speeds),
    FluxMethod.HLL_PBASED: (flux_hll, pbased_speeds),
    FluxMethod.HLLC_DAVIS1: (flux_hllc, davis1_speeds),
    FluxMethod.HLLC_DAVIS2: (flux_hllc, davis2_speeds),
    FluxMethod.HLLC_ROE: (flux_hllc, roe_speeds),
    FluxMethod.HLLC_EINFELDT: (flux_hllc, einfeldt_speeds),
    FluxMethod.HLLC_PBASED: (flux_hllc, pbased_speeds),
    FluxMethod.LF: (flux_lf,),
    FluxMethod.RUSANOV: (flux_rusanov,),
}


def compute_face_flux(
    method: FluxMethod,
    faces,
    gas: GasModel,
    *,
    dx: float | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Dispatch to the selected method on ``faces``, both sides' states as
    one ``(3, 2, ...)`` array.  Only Lax-Friedrichs consumes dx/dt."""
    entry = _KERNELS.get(method)
    if entry is None:
        raise InvalidConfig(f"unknown flux method {method!r}")
    kernel, *speeds = entry
    if kernel is flux_lf:
        return flux_lf(faces, gas.gamma, dx, dt)
    return kernel(faces, gas.gamma, *speeds)
