"""Periodic orbits of the profile oscillator u_x^2/2 = E - V(u; a, c).

Construction pipeline: locate the two simple turning points of E - V
(their derivatives in a, E and c follow from the first integral), evaluate
the period by the half-period trapezoid rule in theta, regularized with
u = u_- + (u_+ - u_-) sin^2(theta) (which cancels the square-root branch
points exactly for polynomial potentials), then place the profile on a
uniform grid over one period through the same substitution, where u and
u_x are exact (orbit_theta, orbit_samples).  WaveProfile interpolates
them by piecewise-quintic Hermite.  Energy polynomials are rows of
ascending coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousWell, DegenerateTurningPoint, NoPeriodicOrbit,
                     QuadratureNotConverged)
from .model import WaveParams, _trim_trailing_zeros, polyval_ascending
from .quadrature import MAX_N, QUAD_TOL, _parts, periodic_trapezoid

SIMPLICITY_TOL = 1e-8
# the complex step: far below rounding of any O(1) value, far above underflow
CS_STEP = 1e-30
# dp/dq, q = a, E, c, of p = E - V = E + a u + c u^2/2 - F(u), ascending in u
_DP_DQ = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])


# ----------------------------------------------------------------------
# turning points
# ----------------------------------------------------------------------

def _real_roots(asc_coeffs: np.ndarray):
    """Sorted, deduplicated real roots of ascending coefficients, as Python
    floats: np.roots' own (the eigenvalues of its companion matrix, and a 0
    per leading zero), each real one polished by Newton on Python lists."""
    c = _trim_trailing_zeros(np.asarray(asc_coeffs, dtype=float)).tolist()
    if len(c) <= 1:
        return []
    raw = np.roots(c[::-1]).tolist()
    scale = 1.0 + max(map(abs, raw))
    d1 = [k * ck for k, ck in enumerate(c)][1:]
    out = []
    for r in raw:
        if abs(r.imag) > 1e-7 * scale:
            continue
        x = r.real
        for _ in range(3):  # Newton polish; skipped near multiple roots
            dp = polyval_ascending(d1, x)
            if abs(dp) < 1e-12 * scale:
                break
            step = polyval_ascending(c, x) / dp
            x -= step
            if abs(step) < 1e-16 * (1.0 + abs(x)):
                break
        out.append(x)
    out.sort()
    merged = []
    for x in out:
        if merged and abs(x - merged[-1][0] / merged[-1][1]) <= 1e-7 * (1.0 + abs(x)):
            s, n = merged[-1]
            merged[-1] = (s + x, n + 1)
        else:
            merged.append((x, 1))
    return [s / n for s, n in merged]


def find_turning_points(params: WaveParams, bracket_hint=None):
    """Adjacent simple roots (u_-, u_+) of E = V with E - V > 0 between them.

    bracket_hint is an (lo, hi) interval singling out one well when the
    potential admits several; with more than one candidate and no hint the
    search refuses to guess and raises AmbiguousWell.
    """
    return _find_well(params, bracket_hint)[0]


def _find_well(params: WaveParams, bracket_hint):
    """find_turning_points' (u_-, u_+), and the V'(u_-), V'(u_+) it tests."""
    p = params.energy_poly()
    roots, p = _real_roots(p), p.tolist()
    wells = [(lo, hi) for lo, hi in zip(roots[:-1], roots[1:])
             if polyval_ascending(p, 0.5 * (lo + hi)) > 0.0]
    if bracket_hint is not None:
        lo_h, hi_h = float(bracket_hint[0]), float(bracket_hint[1])
        wells = [w for w in wells if w[1] > lo_h and w[0] < hi_h]
    if not wells:
        raise NoPeriodicOrbit(
            f"no potential well with E - V > 0 for a={params.a}, E={params.E}, c={params.c}")
    if len(wells) > 1:
        raise AmbiguousWell(
            f"{len(wells)} disjoint wells admit periodic orbits; pass bracket_hint")
    dV = params.V_coeffs(1).tolist()
    slopes = [polyval_ascending(dV, u) for u in wells[0]]
    for u, slope in zip(wells[0], slopes):
        if abs(slope) <= SIMPLICITY_TOL * (1.0 + abs(u) + abs(params.E)):
            raise DegenerateTurningPoint(
                f"|V'({u:.6g})| = {abs(slope):.3e} below simplicity "
                "tolerance (separatrix or equilibrium boundary)")
    return wells[0], slopes


def turning_point_derivatives(turning_points, slopes, step=1.0):
    """step du/dq at the turning points: rows q = a, E, c, columns (u_-, u_+).

    A simple turning point stays a root of p as q moves, so V'(u) du/dq =
    dp/dq(u) = (u, 1, u^2/2); formed as (step dp/dq) / V'(u), slopes V'(u+-).
    """
    lo, hi = turning_points
    dp = np.array([[lo, hi], [1.0, 1.0], [0.5 * lo * lo, 0.5 * hi * hi]])
    return step * dp / np.array(slopes)


def complex_step_rows(params: WaveParams, tps, slopes):
    """Rows p + i h dp/dq of the energy polynomial (q = a, E, c, h = CS_STEP)
    and their turning points tps + i h du+-/dq (rows q, columns (u_-, u_+)),
    slopes being V'(u+-).  Their real parts are tps exactly: complex Newton
    would move them by the roots' rounding, which on a 1e-6-deep KdV well
    lifts the kernel basis' inverse-column residual from 2e-8 to 1e-6."""
    rows = params.energy_poly() + np.zeros((3, 1), dtype=complex)
    rows[:, :3] += 1j * CS_STEP * _DP_DQ
    return rows, tps + turning_point_derivatives(tps, slopes, 1j * CS_STEP)


# ----------------------------------------------------------------------
# regularized quadrature over one well
# ----------------------------------------------------------------------

def _deflate(asc: np.ndarray, r) -> np.ndarray:
    """Synthetic division of ascending coefficients (last axis) by (u - r),
    run from the top coefficient down."""
    n = asc.shape[-1] - 1
    q = np.empty(asc.shape[:-1] + (n,), dtype=np.result_type(asc, r))
    acc = asc[..., n]
    for i in range(n - 1, -1, -1):
        q[..., i] = acc
        acc = asc[..., i] + r * acc
    return q


def _well_nodes(p_asc: np.ndarray, u_minus, u_plus):
    """theta -> (u, sqrt(g(u))) on the well, with u = u_- + (u_+ - u_-) sin^2(theta).

    E - V = (u - u_-)(u_+ - u) g(u).  Where sin^2 > cos^2, u is formed as
    u_+ - (u_+ - u_-) cos^2(theta): both ends then carry u to its own
    rounding, not to that of the far end, which near a separatrix would
    move u by a fraction of its distance to the next root of g.  Rows of
    ascending coefficients (last axis), one (u_-, u_+) each, give rows of
    u; for complex rows the sign test reads the real part.  g <= 0 means
    no well: NoPeriodicOrbit.
    """
    g = -_deflate(_deflate(p_asc, u_minus), u_plus)
    g_cols = g.T[..., np.newaxis]
    lo, hi = np.asarray(u_minus)[..., np.newaxis], np.asarray(u_plus)[..., np.newaxis]
    width = hi - lo

    def at(theta):
        sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        near_lo = sin2 < cos2
        u = np.where(near_lo, lo, hi) + width * np.where(near_lo, sin2, -cos2)
        g = polyval_ascending(g_cols, u)
        if (g.real <= 0.0).any():
            raise NoPeriodicOrbit("deflated energy polynomial not positive on the well")
        return u, np.sqrt(g)

    return at


def well_integral(at, h_of_u) -> float:
    """Integral of h(u) / sqrt(E - V(u)) over (u_-, u_+), branch points removed.

    at is the well's _well_nodes: with u = u_- + (u_+ - u_-) sin^2(theta)
    and the exact polynomial deflation E - V = (u - u_-)(u_+ - u) g(u), the
    integrand becomes 2 h(u) / sqrt(g(u)), analytic, even and pi-periodic
    in theta, which the half-period trapezoid rule integrates spectrally.
    """
    def integrand(theta):
        u, sqrt_g = at(theta)
        return 2.0 * h_of_u(u) / sqrt_g

    return periodic_trapezoid(integrand)


def compute_period(params: WaveParams, turning_points=None) -> float:
    """Period T = sqrt(2) * integral du / sqrt(E - V(u)) over the well."""
    tps = find_turning_points(params) if turning_points is None else turning_points
    at = _well_nodes(params.energy_poly(), *tps)
    return np.sqrt(2.0) * well_integral(at, np.ones_like)


# ----------------------------------------------------------------------
# the orbit in theta
# ----------------------------------------------------------------------

_NEWTON_ITERS = 8


def _cosine_series(f) -> np.ndarray:
    """Coefficients a_k of an even, pi-periodic f(theta) = sum_k a_k cos(2k theta).

    f is sampled at n uniform points of [0, pi) and transformed by a real
    FFT; n doubles until, in every row, the upper half of the coefficients
    is below QUAD_TOL times the mean of |f| (a_0 for a positive f).  Complex
    rows are transformed part by part: an FFT of complex data would leak
    the rounding of the real part into the complex step.
    """
    n = 16
    while n <= MAX_N:
        vals = f(np.pi * np.arange(n) / n)
        parts = _parts(vals)
        c = np.fft.rfft(parts, axis=-1).real * (2.0 / n)
        c[..., 0] *= 0.5
        if np.all(np.abs(c[..., n // 4:])
                  <= QUAD_TOL * np.mean(np.abs(parts), axis=-1, keepdims=True)):
            c = c[..., :n // 2]          # the Nyquist term is no cosine mode
            return c[0] + 1j * c[1] if np.iscomplexobj(vals) else c
        n *= 2
    raise QuadratureNotConverged(
        f"cosine series of dx/dtheta not converged to {QUAD_TOL:g} "
        f"with {MAX_N} nodes")


def _x_series(coef, theta, scale):
    """x(theta) = scale (a_0 theta + sum_k a_k sin(2k theta) / 2k) on each row.

    theta is one real vector shared by the rows.  With b_k = a_k / 2k and
    z = e^{2i theta}, the sine sum is Im sum_k b_k z^k, summed by Horner
    from the top coefficient: one multiply-add over the theta points per
    term.  Complex rows are summed part by part, so that the rounding of the
    real part stays out of the complex step.
    """
    b = _parts(coef[..., 1:] / (2.0 * np.arange(1, coef.shape[-1])))
    z = np.exp(2j * theta)
    acc = b[..., -1:] * z
    for k in range(b.shape[-1] - 2, -1, -1):
        acc += b[..., k:k + 1]
        acc *= z
    sines = acc.imag[0] + 1j * acc.imag[1] if np.iscomplexobj(coef) else acc.imag
    return scale * (np.multiply.outer(coef[..., 0], theta) + sines)


def orbit_theta(p_asc, turning_points, period: float, grid, theta=None):
    """theta at the points of a uniform x grid, on each row of p_asc.

    x(theta) integrates the cosine series of dx/dtheta = sqrt(2) / sqrt(g),
    scaled by the real factor period / (pi Re a_0), so that x(pi) = period
    on a real row.  Without theta, Newton from the linear interpolant of
    x(theta) solves x(theta) = grid on a real row.  Complex-step rows
    p + i h dp/dq instead take one complex Newton step from the real wave's
    theta: exact to O(h^2), and x stays the real grid.
    """
    at = _well_nodes(p_asc, *turning_points)

    def dx_dtheta(th):
        return np.sqrt(2.0) / at(th)[1]

    coef = _cosine_series(dx_dtheta)
    scale = period / (np.pi * coef[..., :1].real)

    def newton(th):
        return th - (_x_series(coef, th, scale) - grid) / (scale * dx_dtheta(th))

    if theta is not None:
        return newton(theta)
    nodes = np.linspace(0.0, np.pi, len(grid))
    theta = np.interp(grid, _x_series(coef, nodes, scale), nodes)
    for _ in range(_NEWTON_ITERS):
        new = newton(theta)
        step, theta = np.max(np.abs(new - theta)), new
        if step <= 1e-8:     # quadratic convergence: one more step reaches rounding
            return newton(theta)
    raise QuadratureNotConverged(
        f"theta Newton not converged in {_NEWTON_ITERS} steps (last step {step:.3e})")


def orbit_samples(p_asc, turning_points, theta):
    """(u, u_x) at theta: u = u_- + w sin^2(theta), u_x = sqrt(2) w sin cos sqrt(g(u))."""
    u, sqrt_g = _well_nodes(p_asc, *turning_points)(theta)
    width = np.asarray(turning_points[1] - turning_points[0])[..., np.newaxis]
    return u, np.sqrt(2.0) * width * np.sin(theta) * np.cos(theta) * sqrt_g


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------

def _quintic(c, t, h: float):
    """(value, d/dx) of the quintics with ascending coefficients c[0..5] in
    t = (x - x_i) / h, by Horner; c[j] broadcasts against t."""
    u, du = c[5], 5.0 * c[5]
    for j in range(4, 0, -1):
        u = u * t + c[j]
        du = du * t + j * c[j]
    return u * t + c[0], du / h


@dataclass(eq=False)
class WaveProfile:
    """One period of a traveling-wave profile on a uniform grid.

    Starts at the minimum turning point with zero slope (u(0) = u_-,
    u_x(0) = 0); treated as immutable after construction.  u and u_x between
    the grid points come from the piecewise-quintic Hermite interpolant of
    (u, u_x, u_xx) with u_xx = -V'(u): matching three derivatives at both
    ends of an interval gives an O(h^6) local error.  Its coefficients are
    six rows, one column per interval, ascending in t = (x - x_i) / h.
    theta is the orbit's theta at the grid points from integrate_profile
    (None for a profile built from samples alone; the kernel basis then
    solves it again).  at(x) evaluates the interpolant.  _evans_table holds
    evans' one table of the mu- and k-free rows of H, (m, rows) for the
    finest substep count m built so far ((0, None) before the first).
    """

    params: WaveParams
    u_minus: float
    u_plus: float
    period: float
    grid: np.ndarray
    u_samples: np.ndarray
    ux_samples: np.ndarray
    theta: np.ndarray = field(default=None, repr=False)
    _coeffs: np.ndarray = field(init=False, repr=False)
    _evans_table: tuple = field(init=False, repr=False, default=(0, None))

    def __post_init__(self):
        h = self.h
        y, dy = self.u_samples, self.ux_samples
        d2y = -polyval_ascending(self.params.V_coeffs(1), y)
        D0, D1 = dy[:-1] * h, dy[1:] * h
        S0, S1 = d2y[:-1] * h * h, d2y[1:] * h * h
        d = y[1:] - y[:-1]
        self._coeffs = np.array([
            y[:-1], D0, 0.5 * S0,
            10.0 * d - 6.0 * D0 - 4.0 * D1 - 1.5 * S0 + 0.5 * S1,
            -15.0 * d + 8.0 * D0 + 7.0 * D1 + 1.5 * S0 - S1,
            6.0 * d - 3.0 * (D0 + D1) - 0.5 * (S0 - S1)])

    @property
    def h(self) -> float:
        """The grid spacing."""
        return self.grid[1] - self.grid[0]

    def at(self, x):
        """(u, u_x) of the interpolant at x, wrapped into the grid's period."""
        g = self.grid
        t = np.mod(np.asarray(x, dtype=float) - g[0], g[-1] - g[0]) / self.h
        idx = np.minimum(t.astype(int), len(g) - 2)   # mod may round up to the period
        u, ux = _quintic(self._coeffs[:, idx], t - idx, self.h)
        return (u, ux) if t.ndim else (float(u), float(ux))

    def substep_samples(self, m: int):
        """(u, u_x) at x0 + (i + j / 2m) h for every interval i and 0 <= j < 2m,
        point i * 2m + j, then at the periodic image x0 + T of x0.  At the
        grid nodes (j = 0) these are the stored samples, bit for bit."""
        c = np.hstack([self._coeffs, self._coeffs[:, :1]])   # column n: interval 0
        u, ux = _quintic(c, (np.arange(2 * m) / (2 * m))[:, None], self.h)
        u[0], ux[0] = self.u_samples, self.ux_samples
        # point i * 2m + j sits at row j, column i; x0 + T at row 0, column n
        return u.T.ravel()[:1 - 2 * m], ux.T.ravel()[:1 - 2 * m]

    def energy_residual(self) -> float:
        """sup |u_x^2/2 - (E - V(u))| over the stored grid."""
        V = polyval_ascending(self.params.V_coeffs(), self.u_samples)
        return float(np.max(np.abs(0.5 * self.ux_samples ** 2 - (self.params.E - V))))


def integrate_profile(params: WaveParams, samples_per_period: int = 1024,
                      bracket_hint=None) -> WaveProfile:
    """The orbit from (u_-, 0) over one period on a uniform grid (theta series)."""
    if samples_per_period < 64:
        raise ValueError("samples_per_period must be at least 64")
    tps = find_turning_points(params, bracket_hint)
    T = compute_period(params, tps)
    grid = np.linspace(0.0, T, samples_per_period + 1)
    p = params.energy_poly()
    theta = orbit_theta(p, tps, T, grid)
    u_s, ux_s = orbit_samples(p, tps, theta)
    # pin the endpoint to the exact periodic image of the start
    u_s[-1], ux_s[-1] = tps[0], 0.0
    return WaveProfile(params, *tps, T, grid, u_s, ux_s, theta)
