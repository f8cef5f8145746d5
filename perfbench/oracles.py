"""Independent oracles for the benchmark's correctness checks.

Neither oracle calls kpevans. The invariant oracle rebuilds E - V from the
nonlinearity's coefficients, finds the turning points by bracketed root
finding and integrates against the square-root endpoint weight with
QUADPACK's QAWS rule. The Hill oracle reads only the profile samples and
solves the spectral problem as a matrix eigenproblem, with no ODE at all.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.optimize import brentq

from waves import critical_points, potential


# ----------------------------------------------------------------------
# T, M and {T, M}_{a,E}
# ----------------------------------------------------------------------

def _turning_point(p, inside: float, crit, direction: int) -> float:
    """Root of p next to `inside` in `direction`, bracketed by sign change.

    The first critical point of V past `inside` with p < 0 closes the
    bracket; past the last critical point p is monotone, so stepping
    outward cannot skip a root.
    """
    past = [u for u in (crit if direction > 0 else crit[::-1])
            if (u - inside) * direction > 0]
    far = inside
    for u in past:
        if P.polyval(u, p) < 0.0:
            far = u
            break
        far = u
    step = 0.25 * (1.0 + abs(far))
    while P.polyval(far, p) >= 0.0:
        far += direction * step
        step *= 2.0
    lo, hi = sorted((inside, far))
    return brentq(lambda u: P.polyval(u, p), lo, hi, xtol=1e-15, rtol=1e-15,
                  maxiter=400)


def turning_points(f, a: float, E: float, c: float, inside: float):
    """(u_-, u_+, g): E - V = (u - u_-)(u_+ - u) g(u) with g > 0 on the well."""
    V = potential(f, a, c)
    p = -V
    p[0] += E
    if P.polyval(inside, p) <= 0.0:
        raise ValueError(f"E - V(u) <= 0 at the inside point u = {inside}")
    crit = critical_points(V)
    u_lo = _turning_point(p, inside, crit, -1)
    u_hi = _turning_point(p, inside, crit, +1)
    q, _ = P.polydiv(p, np.array([-u_lo, 1.0]))
    q, _ = P.polydiv(q, np.array([-u_hi, 1.0]))
    return u_lo, u_hi, -q


def invariants_TM(f, a: float, E: float, c: float, inside: float):
    """(T, M): sqrt(2) * integral of (1, u) / sqrt(E - V) over the well."""
    u_lo, u_hi, g = turning_points(f, a, E, c, inside)

    def integral(h):
        val, _ = quad(lambda u: h(u) / math.sqrt(P.polyval(u, g)), u_lo, u_hi,
                      weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13,
                      epsrel=1e-13, limit=200)
        return math.sqrt(2.0) * val

    return integral(lambda u: 1.0), integral(lambda u: u), (u_lo, u_hi)


def _level_gap(f, a: float, E: float, c: float, u_lo: float, u_hi: float):
    """Distance from E to the critical values of V that bound the orbit.

    Those are the critical points inside [u_lo, u_hi] and the nearest one
    outside on each side; while E stays closer than this, the orbit keeps
    its topology.
    """
    V = potential(f, a, c)
    crit = critical_points(V)
    bounding = ([u for u in crit if u_lo <= u <= u_hi]
                + [u for u in crit if u < u_lo][-1:]
                + [u for u in crit if u > u_hi][:1])
    return min(abs(E - P.polyval(u, V)) for u in bounding)


def jacobian_TM(wave, rel_step: float = 1e-3):
    """{T, M}_{a,E} = T_a M_E - T_E M_a by central differences.

    The E step is rel_step times the gap from E to the critical values of V
    that bound the orbit, so every stencil point keeps the same topology;
    the a step moves V by about as much over the well. Returns the value,
    an error estimate (its change when both steps are doubled), T, M and
    the turning points.
    """
    T0, M0, (u_lo, u_hi) = invariants_TM(wave.f, wave.a, wave.E, wave.c,
                                         wave.bottom)
    gap = _level_gap(wave.f, wave.a, wave.E, wave.c, u_lo, u_hi)

    def at(scale):
        h_E = scale * rel_step * gap
        h_a = h_E / (1.0 + max(abs(u_lo), abs(u_hi)))
        d = {}
        for name, h in (("a", h_a), ("E", h_E)):
            pts = []
            for s in (1, -1):
                a = wave.a + (s * h if name == "a" else 0.0)
                E = wave.E + (s * h if name == "E" else 0.0)
                T, M, _ = invariants_TM(wave.f, a, E, wave.c, wave.bottom)
                pts.append((T, M))
            d[name] = ((pts[0][0] - pts[1][0]) / (2 * h),
                       (pts[0][1] - pts[1][1]) / (2 * h))
        return d["a"][0] * d["E"][1] - d["E"][0] * d["a"][1]

    jac = at(1.0)
    return jac, abs(at(2.0) - jac), T0, M0, (u_lo, u_hi)


# ----------------------------------------------------------------------
# Floquet-Fourier-Hill spectrum at xi = 0
# ----------------------------------------------------------------------

def hill_eigenvalues(g_samples, period: float, sigma: int, k: float,
                     modes: int) -> np.ndarray:
    """Eigenvalues mu of A v = mu B v on the mean-zero Fourier modes.

    A = d^4 + d^2 (g .) + sigma k^2, B = -d, with g = f'(u) - c sampled on
    a uniform periodic grid (endpoint excluded). The n = 0 row forces
    v_0 = 0 when k != 0, so B is invertible on the remaining 2 * modes
    modes and the problem is an ordinary eigenproblem of B^{-1} A
    (Deconinck & Kutz, J. Comput. Phys. 219, 2006).
    """
    g = np.asarray(g_samples, dtype=float)
    n = len(g)
    if n <= 4 * modes:
        raise ValueError("too few samples for the requested modes")
    ghat = np.fft.fft(g) / n
    idx = np.concatenate([np.arange(-modes, 0), np.arange(1, modes + 1)])
    nw = idx * (2.0 * np.pi / period)
    A = np.diag(nw ** 4 + sigma * k * k) \
        - (nw ** 2)[:, None] * ghat[(idx[:, None] - idx[None, :]) % n]
    return np.linalg.eigvals(A / (-1j * nw)[:, None])


def positive_real(eigs, lo: float, hi: float) -> np.ndarray:
    """Sorted eigenvalues on the positive real axis inside [lo, hi]."""
    e = np.asarray(eigs)
    real = e[np.abs(e.imag) <= 1e-8 * np.maximum(1.0, np.abs(e))].real
    return np.sort(real[(real >= lo) & (real <= hi)])


def hill_self_check(modes: int = 48) -> float:
    """Worst relative error against a constant profile's closed form.

    For g = g0 the eigenvalues are mu_n = i((n w)^4 - g0 (n w)^2 +
    sigma k^2) / (n w), n = +-1..+-modes.
    """
    period, g0, sigma, k = 7.0, -0.8, -1, 0.3
    got = hill_eigenvalues(np.full(256, g0), period, sigma, k, modes)
    nw = np.concatenate([np.arange(-modes, 0), np.arange(1, modes + 1)]) \
        * (2.0 * np.pi / period)
    want = 1j * (nw ** 4 - g0 * nw ** 2 + sigma * k * k) / nw
    key = lambda z: (round(z.imag, 6), round(z.real, 6))
    got, want = sorted(got, key=key), sorted(want, key=key)
    return max(abs(x - y) / abs(y) for x, y in zip(got, want))
