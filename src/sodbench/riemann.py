"""Exact Riemann solver for the 1D Euler equations with a perfect gas.

Star-region solution by Newton iteration on the two-branch pressure function,
self-similar sampling (including transonic fans), full-domain profiles, and
the mass-jump shock-speed cross check.  The ``*_arrays`` kernels solve many
independent face problems at once; a face with equal states comes back
unchanged, since Newton starts there at exactly p_L.  The dataclass API
solves one problem, as a batch of one face, and is what the wave report and
the tests consume; its wave speeds come from ``_outer_wave``, the kernel the
profile is sampled with, so the reported pattern and the sampled one cannot
disagree.
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
    "exact_profile",
    "interface_states",
]

PRESSURE_FLOOR = 1e-14
NEWTON_RTOL = 1e-12
NEWTON_MAX_ITER = 100
# A residual f_L + f_R + du within this share of |f_L| + |f_R| + |du| is the
# round-off of its terms: 4 ulps of 1, fixed rather than read from the host.
ROUNDOFF_RTOL = 4.0 * 2.0**-52
# Positions of an exact profile sampled in one pass (notes/decisions.md
# section 23).  Fixed, so the sampler's temporaries do not grow with the grid.
_PROFILE_BLOCK = 2048


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


class _Side(NamedTuple):
    """The constants of the sides of many face problems in the pressure
    function (Toro, 3rd ed., sec. 4.2), made once per star-state solve.  Of
    the (3, 2, m) block of both sides each array is (2, m), left side first."""

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


def pressure_function(p, sides: _Side):
    """Velocity-jump function f(p) of each side and its derivative df/dp.

    Rarefaction branch for p <= p_side, shock branch above.  ``p`` broadcasts
    against the side constants, which ``_side`` makes once per solve: with
    those of the (3, 2, m) block one call evaluates both sides of every face
    at its (m,) pressures, and f and df come back as (2, m) arrays.
    """
    p_k = sides.p
    jump = p - p_k

    # Rarefaction branch (isentrope), with ratio^(-(g+1)/(2g)) = ratio^z / ratio
    ratio = p / p_k
    ratio_z = ratio**sides.z
    f = sides.fan * (ratio_z - 1.0)
    df = ratio_z / ratio * sides.inv_rho_a

    # Shock branch (Hugoniot), f = (p - p_k) sqrt(A / (p + B)), in place where
    # p > p_k: the difference of two distinct floats is never 0
    shock = jump > 0.0
    p_b = p + sides.big_b
    root = np.sqrt(sides.big_a / p_b)
    np.copyto(f, jump * root, where=shock)
    np.copyto(df, root * (1.0 - 0.5 * jump / p_b), where=shock)
    return f, df


def _check_vacuum(a_sum: np.ndarray, du: np.ndarray, gamma: float) -> None:
    vacuum = 2.0 * a_sum / (gamma - 1.0) <= du
    if np.count_nonzero(vacuum):
        raise VacuumGenerated(
            "pressure positivity condition violated: states would generate vacuum",
            face=int(np.argmax(vacuum)),
        )


def _initial_pressure(w, sides: _Side, du, a_sum):
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
    p_l, p_r = sides.p
    num = a_sum - 0.5 * (sides.gamma - 1.0) * du
    den = sides.a[0] + sides.a[1] * (p_l / p_r) ** sides.z
    p = p_l * (num / den) ** (1.0 / sides.z)
    both_shocks = p > np.maximum(p_l, p_r)
    if np.count_nonzero(both_shocks):
        p_pv = 0.5 * (p_l + p_r) - 0.125 * du * (w[0, 0] + w[0, 1]) * a_sum
        p_pv = np.maximum(p_pv, 0.0)
        g = np.sqrt(sides.big_a / (p_pv + sides.big_b))
        g_p = g * sides.p
        p_ts = (g_p[0] + g_p[1] - du) / (g[0] + g[1])
        # p_TR is above the floor here: flooring the min below gives
        # min(p_TR, max(p_TS, floor))
        np.minimum(p, p_ts, out=p, where=both_shocks)
    return np.maximum(p, PRESSURE_FLOOR)


def _star_pressure(w, sides: _Side, du, a_sum):
    """Newton iteration for the star pressure of many face problems at once."""
    p = _initial_pressure(w, sides, du, a_sum)
    converged = np.zeros(p.shape, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        f, df = pressure_function(p, sides)
        residual = f[0] + f[1] + du
        dp = residual / (df[0] + df[1])
        # f is concave: a step from above p* can land far below it, even
        # below zero, so no step goes under a tenth of p, from where Newton
        # climbs back in a few iterations
        p_new = np.maximum(p - dp, 0.1 * p)
        converged |= np.abs(dp) <= NEWTON_RTOL * p_new
        p = p_new
        if np.count_nonzero(converged) == converged.size:
            return p
    # Near vacuum f is flat in p, and the round-off of the residual alone
    # moves p by more than NEWTON_RTOL: such a face has stalled, not failed
    converged |= np.abs(residual) <= ROUNDOFF_RTOL * (np.abs(f).sum(axis=0) + np.abs(du))
    if np.count_nonzero(converged) == converged.size:
        return p
    face = int(np.argmin(converged))
    raise NoConvergence(
        f"star pressure iteration did not converge within {NEWTON_MAX_ITER} steps",
        face=face,
        residual=float(np.ravel(np.abs(dp) / p)[face]),
        iterations=NEWTON_MAX_ITER,
    )


def star_state_arrays(wl: np.ndarray, wr: np.ndarray, gamma: float):
    """Star pressure, contact velocity, and the two star densities of many
    face problems: (m,) arrays for (3, m) states, and (1,) ones for a single
    face's (3,) states, which is solved as a batch of one.

    The two sides are one (3, 2, m) block, so each per-side quantity is one
    array operation, and the side constants, made once, serve every
    pressure-function call: one per Newton iteration and one for u*.
    """
    w = np.concatenate((wl.reshape(3, 1, -1), wr.reshape(3, 1, -1)), axis=1)
    sides = _side(w, gamma)
    du = w[1, 1] - w[1, 0]
    a_sum = sides.a[0] + sides.a[1]
    _check_vacuum(a_sum, du, gamma)
    p_star = _star_pressure(w, sides, du, a_sum)
    f, _ = pressure_function(p_star, sides)
    u_star = 0.5 * (w[1, 0] + w[1, 1]) + 0.5 * (f[1] - f[0])

    # Star densities: the isentrope, and the Hugoniot where p* > p_k
    mu = (gamma - 1.0) / (gamma + 1.0)
    ratio = p_star / sides.p
    rho_star = w[0] * ratio ** (1.0 / gamma)
    np.copyto(rho_star, w[0] * (ratio + mu) / (mu * ratio + 1.0), where=p_star > sides.p)
    return p_star, u_star, rho_star[0], rho_star[1]


def solve_star(problem: RiemannInput) -> StarRegion:
    """Solve one Riemann problem for its star region and wave pattern.

    The wave speeds come from the kernel the profile is sampled with
    (``_outer_wave``), under its rule: a side is a shock where p* > p_k, and
    the right side goes through the reflection x -> -x.  So the profile
    sampled at a reported head is the outer state.  Identical inputs give two
    fans of zero width, since Newton's exact start returns p* = p_k exactly
    (``_initial_pressure``).  The star region is solved as a batch of one
    face, so it is the exact flux's for the same face, bit for bit.
    """
    g = problem.gas.gamma
    star = star_state_arrays(problem.left.array, problem.right.array, g)
    p_star, u_star, rho_l, rho_r = (v.item() for v in star)

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
    """Self-similar state at speed(s) xi.  The star values and xi broadcast
    together; the (3, ...) states' rows have the shape of ``xi <= u_star`` or
    are single values, so that one select takes the outer state and the
    velocity flips in place.

    Only the waves left of the contact are written out.  Right of it the
    reflection x -> -x swaps the sides and flips every velocity (Toro, 3rd ed.,
    sec. 4.5): the right state, u* and xi enter with u -> -u, and the sampled
    velocity is flipped back.  Negation is exact in IEEE arithmetic, so the
    values equal those of the right-side formulas written out directly.
    The fan state is built only in a batch where some ray lies inside a fan.
    """
    g = gamma
    on_left = xi <= u_star
    sign = np.where(on_left, 1.0, -1.0)
    rho_k, u_k, p_k = np.where(on_left, wl, wr)
    u_k *= sign
    rho_star = np.where(on_left, rho_star_l, rho_star_r)
    u_star = sign * u_star
    xi = sign * xi
    a_k, s_shock, head, tail = _outer_wave(rho_k, u_k, p_k, p_star, u_star, g)
    # A shock leaves the outer state ahead of it and the star state behind;
    # a fan has the outer state ahead of its head, the star state behind its
    # tail, and the fan state in between.
    shock = p_star > p_k
    outer = np.where(shock, xi <= s_shock, xi <= head)
    star = shock | (xi >= tail)
    behind = (rho_star, u_star, p_star)
    # A ray in neither region, one of NaN speed too, takes the fan state
    if not np.logical_and.reduce(outer | star, axis=None):
        mu2 = (g - 1.0) / (g + 1.0)
        fan_fac = 2.0 / (g + 1.0) + mu2 / a_k * (u_k - xi)
        fan_fac = np.maximum(fan_fac, 1e-300)  # only consumed where the fan mask holds
        rho_fan = rho_k * fan_fac ** (2.0 / (g - 1.0))
        u_fan = 2.0 / (g + 1.0) * (a_k + 0.5 * (g - 1.0) * u_k + xi)
        p_fan = p_k * fan_fac ** (2.0 * g / (g - 1.0))
        behind = [np.where(star, v, v_fan) for v, v_fan in zip(behind, (rho_fan, u_fan, p_fan))]
    rho, u, p = (np.where(outer, v, v_behind) for v, v_behind in zip((rho_k, u_k, p_k), behind))
    return np.array([rho, sign * u, p])


def interface_states(wl: np.ndarray, wr: np.ndarray, gamma: float) -> np.ndarray:
    """States sampled on the face ray xi = 0 for many face problems at once.

    This is the kernel behind the exact (Godunov) flux method.  Every face is
    solved, one with equal states too: Newton's exact start returns its state
    (``_initial_pressure``), with a velocity of -0.0 as +0.0.
    """
    star = star_state_arrays(wl, wr, gamma)
    w0 = _sample_arrays(wl.reshape(3, -1), wr.reshape(3, -1), *star, 0.0, gamma)
    return w0.reshape(wl.shape)


def exact_profile(problem: RiemannInput, x: np.ndarray, jump_position: float, t: float) -> ExactProfile:
    """Exact solution at positions ``x`` and time ``t`` (step data at t = 0).

    The positions are sampled in blocks of ``_PROFILE_BLOCK``, each written
    into its columns of the one (3, n) result.  The sampler is elementwise,
    so a block's values are those of one pass over all positions.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidConfig(f"positions must be one-dimensional, got shape {x.shape}")
    # A NaN fails "<=" too, so a non-finite position is caught first
    if not np.isfinite(x).all():
        raise InvalidConfig(f"positions must be finite, got {x[~np.isfinite(x)][0]}")
    if np.any(x[1:] <= x[:-1]):
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
    wl, wr = problem.left.array[:, None], problem.right.array[:, None]
    values = (star.p_star, star.u_star, star.rho_star_left, star.rho_star_right)
    w = np.empty((3, x.size))
    for lo in range(0, x.size, _PROFILE_BLOCK):
        block = slice(lo, lo + _PROFILE_BLOCK)
        xi = (x[block] - jump_position) / t
        w[:, block] = _sample_arrays(wl, wr, *values, xi, problem.gas.gamma)
    return ExactProfile(x=x, w=w, time=t)
