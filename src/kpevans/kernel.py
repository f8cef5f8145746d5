"""Stationary solutions of the mu = 0, k = 0 spectral problem.

The traveling-wave ODE is integrable, which hands us three solutions of
d/dx L[u] v = 0 directly: u_x, u_a, u_E (variations of the profile in
translation and in the integration constants), satisfying

    L[u] u_x = 0,   L[u] u_E = 0,   L[u] u_a = -1,

with L[u] = -d^2/dx^2 - f'(u) + c = -d^2/dx^2 - V''(u).  The missing
direction solves L[u] phi = x and comes from variation of parameters over
the fundamental pair (u_x, u_E), whose Wronskian the turning-point
normalization pins to exactly 1:

    phi(x) = (int_0^x s u_E ds) u_x - (int_0^x s u_x ds) u_E.

Initial data follow from differentiating u(0) = u_-(a, E, c) by the
turning-point identity V'(u_-) du_-/dq = dp/dq (wave.turning_point_derivatives).

No ODE is solved: u_a and u_E at fixed x are the complex steps in a and E
of the profile's first-integral construction (wave.orbit_theta,
wave.complex_step_rows), and every derivative, the second and third rows
of W included, comes from the governing equations, never from differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WronskianDegenerate
from .model import eval_V
from .wave import (CS_STEP, WaveProfile, complex_step_rows, orbit_samples,
                   orbit_theta)


@dataclass(eq=False)
class KernelBasis:
    """The kernel quadruple (u_x, u_a, u_E, phi) as W, with running integrals.

    W[i] = W(x_i, 0, 0), shape (n, 4, 4): column j holds v, v', v'', v'''
    of the j-th solution, so W[:, 0] holds the quadruple and W[:, 1] its
    slopes.  I_sE, I_sx, J, II_E hold int s*u_E, int s*u_x, int u and the
    iterated int int u_E, all from 0 to x.
    """

    profile: WaveProfile
    grid: np.ndarray
    u: np.ndarray
    I_sE: np.ndarray
    I_sx: np.ndarray
    J: np.ndarray
    II_E: np.ndarray
    W: np.ndarray


def _running_integral(h: float, f, df, d2f):
    """int_0^x f on a uniform grid (last axis), from f, f' and f'' at the nodes.

    Per interval h/2 (f_i + f_i+1) + h^2/10 (f'_i - f'_i+1)
    + h^3/120 (f''_i + f''_i+1): the integral of the quintic Hermite
    interpolant, exact for quintics.
    """
    steps = (0.5 * h * (f[..., :-1] + f[..., 1:])
             + (h * h / 10.0) * (df[..., :-1] - df[..., 1:])
             + (h ** 3 / 120.0) * (d2f[..., :-1] + d2f[..., 1:]))
    return np.concatenate((np.zeros_like(f[..., :1]), np.cumsum(steps, axis=-1)), axis=-1)


def variational_solutions(profile: WaveProfile) -> KernelBasis:
    """The kernel basis on the profile grid: u_x, u_a, u_E, phi, W and the
    running integrals.

    The real wave is sampled at the profile's theta (solved again for a
    profile built from samples alone); the a and E rows of
    wave.complex_step_rows, at the profile's own u_+-, give u_a, u_E and
    their slopes as imaginary parts over h at the same real x.  Derivatives
    follow from u_xx = -V'(u) and u_xxx = -V''(u) u_x; V does not depend on E.
    phi = I_sE u_x - I_sx u_E holds only while the (u_x, u_E) Wronskian stays
    at its normalized value 1: a drift beyond 1e-6 signals an exceptional
    parameter point and raises WronskianDegenerate.  Rows 3 and 4 of W are
    v'' = -V''(u) v + r and v''' = -V'''(u) u_x v - V''(u) v' + r', with
    r = 0, 1, 0, -x for the four columns.
    """
    params, x = profile.params, profile.grid
    p = params.energy_poly()
    tps = np.array([profile.u_minus, profile.u_plus])
    rows, roots = (z[:2] for z in complex_step_rows(   # rows a and E
        params, tps, eval_V(params, tps, 1)))
    theta = (profile.theta if profile.theta is not None
             else orbit_theta(p, tps, profile.period, x))
    u, ux = orbit_samples(p, tps, theta)
    theta_c = orbit_theta(rows, roots.T, profile.period, x, theta)
    u_c, ux_c = orbit_samples(rows, roots.T, theta_c)
    uxx = -eval_V(params, u, 1)
    V2, V3 = eval_V(params, u, 2), eval_V(params, u, 3)
    (ua, uE), (uap, uEp) = u_c.imag / CS_STEP, ux_c.imag / CS_STEP
    uEpp = -eval_V(params, u_c[1], 1).imag / CS_STEP
    # the integrands u, x u_x, u_E, x u_E with their first two derivatives
    J, I_sx, I_E, I_sE = _running_integral(
        x[1] - x[0],
        np.stack((u, x * ux, uE, x * uE)),
        np.stack((ux, ux + x * uxx, uEp, uE + x * uEp)),
        np.stack((uxx, 2.0 * uxx - x * V2 * ux, uEpp, 2.0 * uEp + x * uEpp)))
    drift = float(np.max(np.abs(ux * uEp - uxx * uE - 1.0)))
    if drift > 1e-6:
        raise WronskianDegenerate(
            f"Wronskian of (u_x, u_E) drifted {drift:.3e} from 1")
    phi, phip = I_sE * ux - I_sx * uE, I_sE * uxx - I_sx * uEp
    v = np.stack((ux, ua, uE, phi), axis=-1)
    vp = np.stack((uxx, uap, uEp, phip), axis=-1)
    W = np.stack((v, vp, -V2[:, None] * v,
                  -(V3 * ux)[:, None] * v - V2[:, None] * vp), axis=1)
    W[:, 2, 1] += 1.0
    W[:, 2, 3] -= x
    W[:, 3, 3] -= 1.0
    return KernelBasis(
        profile=profile, grid=x.copy(), u=u, I_sE=I_sE, I_sx=I_sx, J=J,
        II_E=x * I_E - I_sE,    # int_0^x int_0^s u_E, by parts
        W=W)


def predicted_deltaW(basis: KernelBasis, T_a: float, T_E: float) -> np.ndarray:
    """delta W(0,0) built from V'(u_-), T_a, T_E, and the moment integrals.

    Column 4 (the phi direction) carries the periodicity defects of u_E:
    since u_Ex(T) = V'(u_-) T_E and u_Exxx(T) = -V'(u_-) V''(u_-) T_E, the
    entries (2,4) and (4,4) pick up the extra moment T_E * int x u_x dx on
    top of int x u_E dx.  The extra terms equal -int(x u_x) times column 3,
    so the determinant is unchanged.
    """
    profile = basis.profile
    Vm = eval_V(profile.params, profile.u_minus, 1)
    Vmm = eval_V(profile.params, profile.u_minus, 2)
    aE = 1.0 / Vm     # du_-/dE, from V'(u_-) du_-/dE = 1
    T = profile.period
    Ix = basis.I_sx[-1]   # int_0^T x u_x dx
    IE = basis.I_sE[-1]   # int_0^T x u_E dx
    mom = IE + T_E * Ix
    return np.array([
        [0.0, 0.0, 0.0, -aE * Ix],
        [0.0, Vm * T_a, Vm * T_E, -Vm * mom],
        [0.0, 0.0, 0.0, -T + Vmm * aE * Ix],
        [0.0, -Vm * Vmm * T_a, -Vm * Vmm * T_E, Vmm * Vm * mom],
    ])


def verify_inverse_column(basis: KernelBasis) -> float:
    """sup over the grid of |W(x) c(x) - e4|, c = (-int int u_E, -x, int u, -1):
    the closed-form last column of W^{-1}, checked without inverting W."""
    n = len(basis.grid)
    claimed = np.stack([-basis.II_E, -basis.grid, basis.J, -np.full(n, 1.0)], axis=1)
    e4 = np.zeros(4)
    e4[3] = 1.0
    prod = np.einsum("nij,nj->ni", basis.W, claimed)
    return float(np.max(np.abs(prod - e4)))


def second_derivative_fd(grid: np.ndarray, vals: np.ndarray):
    """Interior second derivative by the 7-point O(h^6) central stencil.

    Independent of the governing equations, so residuals of L[u]v computed
    with it genuinely test the constructed solutions.  Returns (grid_core,
    d2vals).
    """
    h = grid[1] - grid[0]
    v = vals
    d2 = (2.0 * (v[:-6] + v[6:]) - 27.0 * (v[1:-5] + v[5:-1])
          + 270.0 * (v[2:-4] + v[4:-2]) - 490.0 * v[3:-3]) / (180.0 * h * h)
    return grid[3:-3], d2


def kernel_residuals(basis: KernelBasis) -> dict:
    """Sup-norm residuals of the four kernel relations, relative scaling.

    L[u] v = -v'' - V''(u) v, for each solution v in row 0 of W, evaluated
    with finite-difference second derivatives; keys: 'ux', 'uE', 'ua', 'phi'
    with targets 0, 0, -1, x.
    """
    out = {}
    V2 = eval_V(basis.profile.params, basis.u, 2)
    xc = basis.grid[3:-3]
    for name, j, target in (("ux", 0, 0.0), ("uE", 2, 0.0), ("ua", 1, -1.0),
                            ("phi", 3, xc)):
        v = basis.W[:, 0, j]
        _, d2 = second_derivative_fd(basis.grid, v)
        L = -d2 - (V2 * v)[3:-3]
        out[name] = float(np.max(np.abs(L - target)) / (1.0 + np.max(np.abs(v))))
    return out
