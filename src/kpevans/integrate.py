"""Runge-Kutta integration: adaptive Dormand-Prince 5(4) and RK4 step maps.

The adaptive integrator serves the profile equation, the stacked
variational systems and tracking.period_map.  Its state is an arbitrary
numpy array (real or complex); steps are clipped to requested checkpoints so
recorded values carry no interpolation error.

_rk4_steps gives the classical RK4 step propagators of a linear flow as one
numpy stack; the monodromy and conjugator engines build on it.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationFailure

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


def _rk4_steps(A: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step propagators of the linear flow Y' = A(x) Y.

    A holds the coefficient matrices at every half step, A[2j], A[2j + 1]
    and A[2j + 2] being step j's start, midpoint and end; h is the step.
    Returns the stack of the n = (len(A) - 1) / 2 one-step maps.
    """
    A0, Ah, A1 = A[0:-1:2], A[1::2], A[2::2]
    k2 = Ah + (0.5 * h) * (Ah @ A0)
    k3 = Ah + (0.5 * h) * (Ah @ k2)
    k4 = A1 + h * (A1 @ k3)
    return np.eye(A.shape[-1]) + (h / 6.0) * (A0 + 2.0 * (k2 + k3) + k4)
