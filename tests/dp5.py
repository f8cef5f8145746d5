"""Adaptive Dormand-Prince 5(4) integration: the ODE oracle of the tests.

The package solves no ODE adaptively: the profile and the kernel basis come
from the first integral (wave.orbit_theta), and the monodromy and the
conjugator are fixed-step RK4 products.  This integrator is their
independent reference.  Its state is an arbitrary numpy array (real or
complex); steps are clipped to requested checkpoints so recorded values
carry no interpolation error.
"""

import numpy as np

from kpevans.errors import IntegrationFailure

# Dormand-Prince coefficients (Hairer-Norsett-Wanner, table II.5.2).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: coefficients of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _norm(a) -> float:
    a = np.asarray(a)
    return float(np.sqrt(np.mean(np.abs(a) ** 2))) if a.size else 0.0


def integrate(f, x0: float, x1: float, y0, rtol: float = 1e-12, atol: float = 1e-12,
              checkpoints=None, max_steps: int = 2_000_000, first_step=None):
    """Integrate y' = f(x, y) from x0 to x1 (x1 > x0).

    checkpoints: optional increasing sequence of x values in [x0, x1]; the
    returned list holds a copy of y at each one (steps are clipped to land
    exactly on them, so no dense-output interpolation is involved).

    Returns (y_end, checkpoint_values).
    """
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    span = x1 - x0
    if span <= 0:
        raise ValueError("integrate requires x1 > x0")
    eps_x = 1e-14 * max(1.0, abs(x0), abs(x1))
    cps = [] if checkpoints is None else list(checkpoints)
    recorded = []
    icp = 0
    while icp < len(cps) and cps[icp] <= x0 + eps_x:
        recorded.append(y.copy())
        icp += 1

    x = x0
    k1 = np.asarray(f(x, y))
    scale0 = atol + rtol * _norm(y)
    d0, d1 = _norm(y) / scale0, _norm(k1) / scale0
    if first_step is not None:
        h_prop = first_step
    elif d0 < 1e-5 or d1 < 1e-5:
        h_prop = span * 1e-6
    else:
        h_prop = 0.01 * d0 / d1
    h_prop = min(h_prop, span)

    ks = [k1] + [None] * 6
    nsteps = 0
    while x < x1 - eps_x:
        nsteps += 1
        if nsteps > max_steps:
            raise IntegrationFailure(
                f"step budget {max_steps} exhausted at x={x:.6g} of [{x0:.6g}, {x1:.6g}]")
        h = min(h_prop, x1 - x)
        clipped = h < h_prop
        if icp < len(cps) and x + h >= cps[icp] - eps_x:
            h = cps[icp] - x
            clipped = True
        if h <= eps_x:
            if icp < len(cps) and abs(cps[icp] - x) <= eps_x:
                recorded.append(y.copy())
                icp += 1
                continue
            raise IntegrationFailure(f"step size underflow at x={x:.6g}")

        for i in range(1, 7):
            yi = y + h * sum(aij * ks[j] for j, aij in enumerate(_A[i]) if aij != 0.0)
            ks[i] = np.asarray(f(x + _C[i] * h, yi))
        y_new = y + h * sum(b * ks[i] for i, b in enumerate(_B5) if b != 0.0)
        err = h * sum(e * ks[i] for i, e in enumerate(_E) if e != 0.0)
        scale = atol + rtol * max(_norm(y), _norm(y_new))
        err_norm = _norm(err) / scale if scale > 0 else 0.0

        if err_norm <= 1.0:
            x += h
            y = y_new
            ks[0] = ks[6]  # FSAL
            if not np.all(np.isfinite(y)):
                raise IntegrationFailure(f"non-finite state at x={x:.6g}")
            if icp < len(cps) and abs(x - cps[icp]) <= eps_x:
                recorded.append(y.copy())
                icp += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** -0.2)
            if clipped:
                # do not let an artificially short step shrink the proposal
                h_prop = max(h_prop, h * max(_MIN_FACTOR, factor))
            else:
                h_prop = h * max(_MIN_FACTOR, factor)
        else:
            # rejected: ks[0] still holds f(x, y)
            h_prop = h * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)

    while icp < len(cps):
        recorded.append(y.copy())  # checkpoints at (or within fuzz of) x1
        icp += 1
    return y, recorded


def period_map(A_of_x, dim: int, period: float, rtol: float = 1e-12,
               atol: float = 1e-13) -> np.ndarray:
    """Fundamental-solution period map of a general linear periodic system."""
    def rhs(x, Y):
        return np.atleast_2d(A_of_x(x)) @ Y

    Y, _ = integrate(rhs, 0.0, period, np.eye(dim, dtype=complex),
                     rtol=rtol, atol=atol)
    return Y


KERNEL_FIELDS = ("u", "up", "ux", "uxp", "ua", "uap", "uE", "uEp",
                 "I_sE", "I_sx", "J", "I_E", "II_E")


def kernel_reference(profile, tol: float = 1e-14) -> dict:
    """The profile, u_x, u_a, u_E and the running integrals by one joint solve.

    The 13-dimensional system the kernel basis was once integrated from:
    u'' = -V'(u), the variational equations v'' = -V''(u) v + r with the
    turning-point initial data, and the running integrals as extra state.
    Returns name -> samples on profile.grid, named as the kernel basis
    fields and its solutions from W (test_kernel.named; "up" is u_x).
    """
    params = profile.params
    vp_desc = np.trim_zeros(params.V_coeffs(1), trim="b")[::-1]
    v2_desc = np.trim_zeros(params.V_coeffs(2), trim="b")[::-1]
    Vm = np.polyval(vp_desc, profile.u_minus)

    def rhs(x, y):
        u, up, ux, uxp, ua, uap, uE, uEp = y[:8]
        V2 = np.polyval(v2_desc, u)
        return np.array([up, -np.polyval(vp_desc, u), uxp, -V2 * ux,
                         uap, -V2 * ua + 1.0, uEp, -V2 * uE,
                         x * uE, x * ux, u, uE, y[11]])

    y0 = np.zeros(13)
    y0[0], y0[3], y0[4], y0[6] = profile.u_minus, -Vm, profile.u_minus / Vm, 1.0 / Vm
    _, rec = integrate(rhs, 0.0, profile.period, y0, rtol=tol, atol=tol,
                       checkpoints=profile.grid)
    return dict(zip(KERNEL_FIELDS, np.array(rec).T))
