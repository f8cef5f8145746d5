"""Conserved quantities T, M, P, H and their parameter gradients.

All four integrals use the same branch-point-regularized quadrature as the
period, on one deflation of E - V.  Gradients in (a, E, c) come from one
complex-step evaluation (Squire & Trapp, SIAM Rev. 40, 1998): the four
integrals are taken with each parameter moved by i h, and the imaginary
parts over h are the derivatives, with no subtractive cancellation and no
step off the real wave.  The orientation index reads only {T, M}_{a,E} =
T_a M_E - T_E M_a, which, computed alone, integrates only T and M in a, E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import WaveParams, polyval_ascending
from .quadrature import periodic_trapezoid
from .wave import (CS_STEP, WaveProfile, _find_well, _well_nodes,
                   complex_step_rows, find_turning_points, well_integral)


@dataclass(frozen=True)
class InvariantSet:
    """Period, mass, momentum, and Hamiltonian over one period."""
    T: float
    M: float
    P: float
    H: float

    def jensen_margin(self) -> float:
        """P*T - M^2, strictly positive for nonconstant waves."""
        return self.P * self.T - self.M * self.M


@dataclass(frozen=True)
class GradientSet:
    """Gradients of (T, M, P, H); components ordered (d/da, d/dE, d/dc)."""
    dT: np.ndarray
    dM: np.ndarray
    dP: np.ndarray
    dH: np.ndarray


def compute_invariants(params: WaveParams, turning_points=None,
                       bracket_hint=None) -> InvariantSet:
    """Evaluate (T, M, P, H) by regularized quadrature.

    M = int u dx, P = int u^2 dx, H = int (u_x^2/2 - F(u)) dx, each recast
    as an integral in u against 1/sqrt(E - V) over the well.  E - V is
    deflated once; each integral converges on its own, so T equals
    compute_period's bit for bit.
    """
    tps = (find_turning_points(params, bracket_hint) if turning_points is None
           else turning_points)
    F = params.nonlinearity.F_coeffs
    E = params.E
    rt2 = np.sqrt(2.0)

    def h_ham(u):
        # E - V(u) - F(u)
        return E - polyval_ascending(params.F_minus_quadratic(), u) \
            - polyval_ascending(F, u)

    at = _well_nodes(params.energy_poly(), *tps)
    T = rt2 * well_integral(at, np.ones_like)
    M = rt2 * well_integral(at, lambda u: u)
    P = rt2 * well_integral(at, lambda u: u * u)
    H = rt2 * well_integral(at, h_ham)
    return InvariantSet(T, M, P, H)


def profile_invariants(profile: WaveProfile) -> InvariantSet:
    """Dense-grid cross-check: integrate the stored samples in x.

    Independent route for the same quantities (oracle for the quadrature
    path): the periodic trapezoid rule on the uniform grid, which converges
    geometrically for the analytic, T-periodic profile.
    """
    F = profile.params.nonlinearity.F_coeffs
    u, ux = profile.u_samples[:-1], profile.ux_samples[:-1]
    M, P, H = (profile.h * float(np.sum(vals))
               for vals in (u, u * u, 0.5 * ux ** 2 - polyval_ascending(F, u)))
    return InvariantSet(profile.period, M, P, H)


def _complex_step_integrals(params: WaveParams, bracket_hint, n_rows: int,
                            n_cols: int) -> np.ndarray:
    """Complex-step gradients: [j, q] is the q-derivative of (T, M, P, H)[j],
    j < n_cols, for the first n_rows of q = (a, E, c), integrated as one
    (n_rows, n_cols, nodes) stack of the integrands (1, u, u^2, E - V - F)
    2 / sqrt(g).  Row q carries p + i h dp/dq (h = CS_STEP) with turning
    points u+- + i h du+-/dq (wave.complex_step_rows): no row leaves the real
    wave, so shallow wells need no special care.
    """
    rows, roots = (z[:n_rows] for z in
                   complex_step_rows(params, *_find_well(params, bracket_hint)))
    at = _well_nodes(rows, roots[:, 0], roots[:, 1])
    if n_cols == 4:   # p and F as one coefficient stack, each padded with top zeros
        n, F = rows.shape[1], params.nonlinearity.F_coeffs
        cols = np.zeros((max(n, len(F)), 2, n_rows, 1), dtype=complex)
        cols[:n, 0, :, 0], cols[:len(F), 1] = rows.T, F[:, None, None]

    def integrand(theta):
        u, sqrt_g = at(theta)
        out = np.empty((n_rows, n_cols) + u.shape[1:], dtype=complex)
        out[:, 0], out[:, 1] = 1.0, u
        if n_cols == 4:
            out[:, 2] = u * u
            np.subtract(*polyval_ascending(cols, u), out=out[:, 3])   # E - V - F
        out *= (2.0 / sqrt_g)[:, None, :]
        return out

    return np.sqrt(2.0) * periodic_trapezoid(integrand).imag.T / CS_STEP


def gradients(params: WaveParams, bracket_hint=None) -> GradientSet:
    """Complex-step gradients of (T, M, P, H) in (a, E, c): one stack of twelve."""
    return GradientSet(*_complex_step_integrals(params, bracket_hint, 3, 4))


def gradient_identity_residual(params: WaveParams, grads: GradientSet) -> float:
    """Residual of E grad T + a grad M + (c/2) grad P + grad H = 0, relative.

    Meaningful whenever the gradients exist; the identity is asserted in
    tests only when |E| is not tiny, matching its intended use of trading
    grad T for gradients of conserved quantities.
    """
    vec = (params.E * grads.dT + params.a * grads.dM
           + 0.5 * params.c * grads.dP + grads.dH)
    scale = (abs(params.E) * np.max(np.abs(grads.dT))
             + abs(params.a) * np.max(np.abs(grads.dM))
             + 0.5 * abs(params.c) * np.max(np.abs(grads.dP))
             + np.max(np.abs(grads.dH)))
    return float(np.max(np.abs(vec)) / max(scale, 1e-300))


def _jacobian_terms(params: WaveParams, grads: GradientSet, bracket_hint):
    """T_a M_E and T_E M_a, from grads or else from the {T, M} x {a, E} block."""
    (T_a, T_E), (M_a, M_E) = ((grads.dT[:2], grads.dM[:2]) if grads is not None else
                              _complex_step_integrals(params, bracket_hint, 2, 2))
    return T_a * M_E, T_E * M_a


def jacobian_TM(params: WaveParams, grads: GradientSet = None,
                bracket_hint=None) -> float:
    """{T, M}_{a,E} = T_a M_E - T_E M_a from the complex-step gradients, or,
    without grads, from the block alone on the well bracket_hint selects."""
    left, right = _jacobian_terms(params, grads, bracket_hint)
    return float(left - right)
