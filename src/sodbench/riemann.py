"""Exact Riemann solver for the 1D Euler equations with a perfect gas.

Star-region solution by Newton iteration on the two-branch pressure function,
self-similar sampling (including transonic fans), full-domain profiles, and
the mass-jump shock-speed cross check.  The ``*_arrays`` kernels solve many
independent face problems at once; a face with equal states comes back
unchanged, since Newton starts there at exactly p_L.  The dataclass API
solves one problem and is what the wave report and the tests consume; its
wave speeds come from ``_outer_wave``, the kernel the profile is sampled
with, so the reported pattern and the sampled one cannot disagree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateJump, InvalidConfig, NoConvergence, VacuumGenerated
from .gas import GasModel, PrimitiveState, sound_speed_array

__all__ = [
    "WaveKind",
    "RiemannInput",
    "WaveSpeeds",
    "StarRegion",
    "ExactProfile",
    "pressure_function",
    "solve_star",
    "rankine_hugoniot_speed",
    "sample",
    "exact_profile",
    "interface_states",
]

PRESSURE_FLOOR = 1e-14
NEWTON_RTOL = 1e-12
NEWTON_MAX_ITER = 100
# A residual f_L + f_R + du within this share of |f_L| + |f_R| + |du| is the
# round-off of its terms: 4 ulps of 1, fixed rather than read from the host.
ROUNDOFF_RTOL = 4.0 * 2.0**-52


class WaveKind(enum.Enum):
    SHOCK = "shock"
    FAN = "fan"


@dataclass(frozen=True)
class RiemannInput:
    left: PrimitiveState
    right: PrimitiveState
    gas: GasModel = GasModel()


@dataclass(frozen=True)
class WaveSpeeds:
    """Signal speeds ordered left to right.

    For a fan the head/tail pair brackets the smooth wave; for a shock both
    collapse onto the single shock speed (a zero-width fan).
    """

    left_head: float
    left_tail: float
    contact: float
    right_tail: float
    right_head: float
    a_star_left: float
    a_star_right: float


@dataclass(frozen=True)
class StarRegion:
    p_star: float
    u_star: float
    rho_star_left: float
    rho_star_right: float
    left_wave: WaveKind
    right_wave: WaveKind
    speeds: WaveSpeeds


@dataclass(frozen=True)
class ExactProfile:
    """Self-similar solution sampled at cell centers at one time."""

    x: np.ndarray
    w: np.ndarray  # (3, n) primitive rows
    time: float

    @property
    def density(self) -> np.ndarray:
        return self.w[0]

    @property
    def velocity(self) -> np.ndarray:
        return self.w[1]

    @property
    def pressure(self) -> np.ndarray:
        return self.w[2]


class _Side(NamedTuple):
    """The constants of one side of many face problems in the pressure
    function (Toro, 3rd ed., sec. 4.2), made once per star-state solve."""

    p: np.ndarray
    a: np.ndarray
    big_a: np.ndarray  # A_k = 2 / ((gamma + 1) rho_k)
    big_b: np.ndarray  # B_k = (gamma - 1) / (gamma + 1) p_k
    fan: np.ndarray  # 2 a_k / (gamma - 1)
    inv_rho_a: np.ndarray  # 1 / (rho_k a_k)
    gamma: float
    z: float  # (gamma - 1) / (2 gamma)


def _side(w, gamma: float) -> _Side:
    rho, p = w[0], w[2]
    a = sound_speed_array(w, gamma)
    return _Side(
        p=p,
        a=a,
        big_a=2.0 / ((gamma + 1.0) * rho),
        big_b=(gamma - 1.0) / (gamma + 1.0) * p,
        fan=2.0 * a / (gamma - 1.0),
        inv_rho_a=1.0 / (rho * a),
        gamma=gamma,
        z=(gamma - 1.0) / (2.0 * gamma),
    )


def pressure_function(p, side: _Side):
    """Velocity-jump function f(p) of one side and its derivative df/dp.

    Rarefaction branch for p <= p_side, shock branch above.  ``p`` may be a
    scalar or an array; ``side`` holds the side's constants, made once per
    solve by ``_side``.
    """
    p_k = side.p

    # Shock branch (Hugoniot): f = (p - p_k) sqrt(A / (p + B))
    jump = p - p_k
    p_b = p + side.big_b
    root = np.sqrt(side.big_a / p_b)
    f_shock = jump * root
    df_shock = root * (1.0 - 0.5 * jump / p_b)

    # Rarefaction branch (isentrope), with ratio^(-(g+1)/(2g)) = ratio^z / ratio
    ratio = p / p_k
    ratio_z = ratio**side.z
    f_fan = side.fan * (ratio_z - 1.0)
    df_fan = ratio_z / ratio * side.inv_rho_a

    shock = p > p_k
    f = np.where(shock, f_shock, f_fan)
    df = np.where(shock, df_shock, df_fan)
    if f.ndim == 0:
        return float(f), float(df)
    return f, df


def _check_vacuum(
    wl: np.ndarray, wr: np.ndarray, a_l: np.ndarray, a_r: np.ndarray, gamma: float
) -> None:
    vacuum = 2.0 * (a_l + a_r) / (gamma - 1.0) <= wr[1] - wl[1]
    if np.logical_or.reduce(vacuum, axis=None):
        face = int(np.argmax(vacuum))
        raise VacuumGenerated(
            f"pressure positivity condition violated: states would generate vacuum at face {face}",
            face=face,
        )


def _initial_pressure(wl, wr, left: _Side, right: _Side, du):
    """Newton's start: the two-rarefaction guess p_TR (Toro, 3rd ed., eq. 4.46)
    wherever it does not exceed both side pressures.

    Above both it contradicts its own assumption of two fans.  The pressure
    function is concave, so from a p_TR far above p* the first Newton step
    lands far below p* (below zero on Toro's test 5) and Newton has to climb
    back.  Those faces start from min(p_TR, p_TS) instead, with Toro's
    two-shock guess p_TS taken at the primitive-variable estimate (eq. 9.42).

    p_TR is written as p_L [...]^(1/z), with p_L and p_R only in the ratio
    (p_L/p_R)^z.  Where p_L = p_R and du is within the rounding of
    a_L + a_R, the bracket is exactly 1 and the start is p_L, where both
    pressure functions are exactly 0: Newton moves p only by du's own shift
    of p*.  With equal states du = 0, so dp = 0 and the solve returns w_L,
    the no-wave solution.  Toro's form, with a_L / p_L^z + a_R / p_R^z in
    the denominator, misses p_L there by an ulp or more, and that ulp in the
    momentum flux spreads into uniform states.
    """
    z = left.z
    num = left.a + right.a - 0.5 * (left.gamma - 1.0) * du
    den = left.a + right.a * (left.p / right.p) ** z
    p = left.p * (num / den) ** (1.0 / z)
    both_shocks = p > np.maximum(left.p, right.p)
    if np.logical_or.reduce(both_shocks, axis=None):
        p_pv = 0.5 * (left.p + right.p) - 0.125 * du * (wl[0] + wr[0]) * (left.a + right.a)
        p_pv = np.maximum(p_pv, 0.0)
        g_l = np.sqrt(left.big_a / (p_pv + left.big_b))
        g_r = np.sqrt(right.big_a / (p_pv + right.big_b))
        p_ts = (g_l * left.p + g_r * right.p - du) / (g_l + g_r)
        # p_TR is above the floor here: flooring the min below gives
        # min(p_TR, max(p_TS, floor))
        p = np.where(both_shocks, np.minimum(p, p_ts), p)
    return np.maximum(p, PRESSURE_FLOOR)


def _star_pressure(wl, wr, left: _Side, right: _Side):
    """Newton iteration for the star pressure of many face problems at once."""
    du = wr[1] - wl[1]
    p = _initial_pressure(wl, wr, left, right, du)
    converged = np.zeros(np.shape(p), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        f_l, df_l = pressure_function(p, left)
        f_r, df_r = pressure_function(p, right)
        residual = f_l + f_r + du
        dp = residual / (df_l + df_r)
        # f is concave: a step from above p* can land far below it, even
        # below zero, so no step goes under a tenth of p, from where Newton
        # climbs back in a few iterations
        p_new = np.maximum(p - dp, 0.1 * p)
        converged |= np.abs(dp) <= NEWTON_RTOL * p_new
        p = p_new
        if np.logical_and.reduce(converged, axis=None):
            return p
    # Near vacuum f is flat in p, and the round-off of the residual alone
    # moves p by more than NEWTON_RTOL: such a face has stalled, not failed
    converged |= np.abs(residual) <= ROUNDOFF_RTOL * (np.abs(f_l) + np.abs(f_r) + np.abs(du))
    if np.logical_and.reduce(converged, axis=None):
        return p
    face = int(np.argmin(converged))
    residual = float(np.ravel(np.abs(dp) / p)[face])
    raise NoConvergence(
        f"star pressure iteration did not converge within {NEWTON_MAX_ITER} steps: "
        f"face {face} stopped at |dp|/p = {residual:.3e}",
        face=face,
        residual=residual,
        iterations=NEWTON_MAX_ITER,
    )


def star_state_arrays(wl: np.ndarray, wr: np.ndarray, gamma: float):
    """Star pressure, contact velocity, and the two star densities (arrays).

    The side constants are made once here and serve every pressure-function
    call of the solve: two per Newton iteration and two for u*.
    """
    wl = np.asarray(wl, dtype=float)
    wr = np.asarray(wr, dtype=float)
    left, right = _side(wl, gamma), _side(wr, gamma)
    _check_vacuum(wl, wr, left.a, right.a, gamma)
    p_star = _star_pressure(wl, wr, left, right)
    f_l, _ = pressure_function(p_star, left)
    f_r, _ = pressure_function(p_star, right)
    u_star = 0.5 * (wl[1] + wr[1]) + 0.5 * (f_r - f_l)

    mu = (gamma - 1.0) / (gamma + 1.0)

    def star_density(side):
        ratio = p_star / side[2]
        shocked = side[0] * (ratio + mu) / (mu * ratio + 1.0)
        isentropic = side[0] * ratio ** (1.0 / gamma)
        return np.where(p_star > side[2], shocked, isentropic)

    return p_star, u_star, star_density(wl), star_density(wr)


def solve_star(problem: RiemannInput) -> StarRegion:
    """Solve one Riemann problem for its star region and wave pattern.

    The wave speeds come from the kernel the profile is sampled with
    (``_outer_wave``), under its rule: a side is a shock where p* > p_k, and
    the right side goes through the reflection x -> -x.  So ``sample`` at a
    reported head returns the outer state.  Identical inputs give two fans of
    zero width, since Newton's exact start returns p* = p_k exactly
    (``_initial_pressure``).
    """
    g = problem.gas.gamma
    star = star_state_arrays(problem.left.array, problem.right.array, g)
    p_star, u_star, rho_l, rho_r = (float(v) for v in star)

    def side(outer: PrimitiveState, rho_star: float, sign: float):
        # The right side enters with u -> -u and its speeds come back negated
        u_k, u_c = sign * outer.u, sign * u_star
        _, shock, head, tail = _outer_wave(outer.rho, u_k, outer.p, p_star, u_c, g)
        kind = WaveKind.SHOCK if p_star > outer.p else WaveKind.FAN
        if kind is WaveKind.SHOCK:
            head = tail = shock
        a_star = float(sound_speed_array((rho_star, u_star, p_star), g))
        return kind, sign * float(head), sign * float(tail), a_star

    left_wave, left_head, left_tail, a_star_l = side(problem.left, rho_l, 1.0)
    right_wave, right_head, right_tail, a_star_r = side(problem.right, rho_r, -1.0)
    speeds = WaveSpeeds(left_head, left_tail, u_star, right_tail, right_head, a_star_l, a_star_r)
    return StarRegion(p_star, u_star, rho_l, rho_r, left_wave, right_wave, speeds)


def rankine_hugoniot_speed(shocked: PrimitiveState, unshocked: PrimitiveState) -> float:
    """Shock speed from the mass jump condition, S = d(rho u) / d(rho)."""
    d_rho = shocked.rho - unshocked.rho
    if abs(d_rho) < 1e-14:
        raise DegenerateJump("density jump below 1e-14; no shock present")
    return (shocked.rho * shocked.u - unshocked.rho * unshocked.u) / d_rho


def _outer_wave(rho_k, u_k, p_k, p_star, u_star, g):
    """Sound speed a_k of the left state, and the speeds of the left wave: the
    shock's, and the fan's head and tail (Toro, 3rd ed., sec. 4.4).  The right
    wave is this one reflected, x -> -x."""
    a_k = sound_speed_array((rho_k, u_k, p_k), g)
    s_shock = u_k - a_k * np.sqrt((g + 1.0) / (2.0 * g) * p_star / p_k + (g - 1.0) / (2.0 * g))
    head = u_k - a_k
    tail = u_star - a_k * (p_star / p_k) ** ((g - 1.0) / (2.0 * g))
    return a_k, s_shock, head, tail


def _sample_arrays(wl, wr, p_star, u_star, rho_star_l, rho_star_r, xi, gamma):
    """Self-similar state at speed(s) xi.  All arguments broadcast together.

    Only the waves left of the contact are written out.  Right of it the
    reflection x -> -x swaps the sides and flips every velocity (Toro, 3rd ed.,
    sec. 4.5): the right state, u* and xi enter with u -> -u, and the sampled
    velocity is flipped back.  Negation is exact in IEEE arithmetic, so the
    values equal those of the right-side formulas written out directly.
    """
    g = gamma
    on_left = xi <= u_star
    sign = np.where(on_left, 1.0, -1.0)
    rho_k = np.where(on_left, wl[0], wr[0])
    u_k = sign * np.where(on_left, wl[1], wr[1])
    p_k = np.where(on_left, wl[2], wr[2])
    rho_star = np.where(on_left, rho_star_l, rho_star_r)
    u_star = sign * u_star
    xi = sign * xi
    a_k, s_shock, head, tail = _outer_wave(rho_k, u_k, p_k, p_star, u_star, g)
    mu2 = (g - 1.0) / (g + 1.0)
    # A shock leaves the outer state ahead of it and the star state behind;
    # a fan has the outer state ahead of its head, the star state behind its
    # tail, and the fan state in between.
    shock = p_star > p_k
    outer = np.where(shock, xi <= s_shock, xi <= head)
    star = shock | (xi >= tail)

    fan_fac = 2.0 / (g + 1.0) + mu2 / a_k * (u_k - xi)
    fan_fac = np.maximum(fan_fac, 1e-300)  # only consumed where the fan mask holds
    rho_fan = rho_k * fan_fac ** (2.0 / (g - 1.0))
    u_fan = 2.0 / (g + 1.0) * (a_k + 0.5 * (g - 1.0) * u_k + xi)
    p_fan = p_k * fan_fac ** (2.0 * g / (g - 1.0))

    def pick(v_outer, v_star, v_fan):
        return np.where(outer, v_outer, np.where(star, v_star, v_fan))

    return np.array(
        [
            pick(rho_k, rho_star, rho_fan),
            sign * pick(u_k, u_star, u_fan),
            pick(p_k, p_star, p_fan),
        ]
    )


def sample(star: StarRegion, problem: RiemannInput, xi: float) -> PrimitiveState:
    """State at similarity speed xi = x/t, covering all five regions."""
    w = _sample_arrays(
        problem.left.array,
        problem.right.array,
        star.p_star,
        star.u_star,
        star.rho_star_left,
        star.rho_star_right,
        float(xi),
        problem.gas.gamma,
    )
    return PrimitiveState(rho=float(w[0]), u=float(w[1]), p=float(w[2]))


def interface_states(wl: np.ndarray, wr: np.ndarray, gamma: float) -> np.ndarray:
    """States sampled on the face ray xi = 0 for many face problems at once.

    This is the kernel behind the exact (Godunov) flux method.  Every face is
    solved, one with equal states too: Newton's exact start returns its state
    (``_initial_pressure``), with a velocity of -0.0 as +0.0.
    """
    wl = np.asarray(wl, dtype=float)
    wr = np.asarray(wr, dtype=float)
    p_star, u_star, rho_l, rho_r = star_state_arrays(wl, wr, gamma)
    return _sample_arrays(wl, wr, p_star, u_star, rho_l, rho_r, 0.0, gamma)


def exact_profile(problem: RiemannInput, x: np.ndarray, jump_position: float, t: float) -> ExactProfile:
    """Exact solution at positions ``x`` and time ``t`` (step data at t = 0)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) <= 0.0):
        raise InvalidConfig("positions must be strictly increasing")
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidConfig(f"time must be non-negative and finite, got {t}")
    if not math.isfinite(jump_position):
        raise InvalidConfig(f"jump position must be finite, got {jump_position}")
    if t == 0.0:
        on_left = x < jump_position
        w = np.where(on_left, problem.left.array[:, None], problem.right.array[:, None])
        return ExactProfile(x=x, w=w, time=0.0)
    star = solve_star(problem)
    xi = (x - jump_position) / t
    w = _sample_arrays(
        problem.left.array[:, None],
        problem.right.array[:, None],
        star.p_star,
        star.u_star,
        star.rho_star_left,
        star.rho_star_right,
        xi[None, :],
        problem.gas.gamma,
    )
    return ExactProfile(x=x, w=w.reshape(3, x.size), time=t)
