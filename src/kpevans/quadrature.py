"""Gauss-Legendre quadrature with node doubling.

The profile integrals are reduced to analytic integrands on [0, pi/2]
(branch points absorbed by a sin^2 substitution), so plain Gauss-Legendre
converges spectrally; doubling the node count until the value stops moving
gives a cheap a posteriori error estimate.
The adaptive rule takes array-valued integrands (last axis: the nodes), so
one call integrates a whole stack such as the complex-step gradients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged

_MAX_NODES = 4096


def _legendre_pair(n: int, x):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, p_prev


@lru_cache(maxsize=32)
def _nodes(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule, ascending.

    Newton's method in theta, with x = cos(theta), on P_n(cos theta) from
    Tricomi's initial guesses, for the nodes in [0, 1); the rest follow by
    symmetry.  Memory is O(n).  At a root, 1 - x^2 = sin^2(theta), so the
    weight 2 (1 - x^2) / (n P_{n-1}(x))^2 is formed from sin(theta) and
    does not lose digits to 1 - x^2 near x = +-1.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    theta += (n - 1) / (8.0 * n ** 3) / np.tan(theta)   # Tricomi's correction
    for _ in range(20):
        x = np.cos(theta)
        p, p_prev = _legendre_pair(n, x)
        # dP_n(cos theta)/dtheta = -n (p_prev - x p) / sin(theta)
        step = p * np.sin(theta) / (n * (p_prev - x * p))
        theta += step
        # convergence is quadratic: after a step this small the error sits
        # at the rounding noise of P_n(fl(cos theta)), about 1e-13 at n = 4096
        if np.max(np.abs(step)) <= 1e-12:
            break
    x = np.cos(theta)
    p, p_prev = _legendre_pair(n, x)
    r = np.sin(theta) / (n * (p_prev - x * p))
    w = 2.0 * r * r
    x -= p * np.sin(theta) * r   # a last Newton step in x: absolute accuracy near 0
    if n % 2:
        x[-1] = 0.0
    half = len(x) - n % 2    # the nodes in (0, 1), mirrored into (-1, 0)
    return (np.concatenate([-x[:half], x[::-1]]),
            np.concatenate([w[:half], w[::-1]]))


def _parts(v):
    """Real view of a value: (real, imag) stacked on a new first axis if complex."""
    return np.array((v.real, v.imag)) if np.iscomplexobj(v) else v


def adaptive_gauss_legendre(fn, a: float, b: float, rel_tol: float = 1e-13):
    """Double the nodes from 16 until the change meets rel_tol at the natural scale.

    fn maps the nodes to values whose last axis is the nodes; the result has
    the remaining shape (a scalar for a scalar integrand).  The 16- and
    32-node rules, which every call needs, share one call of fn; each sums
    its unit-stride slice of the 48 values.  The scale of each component is
    max(|integral|, integral of |fn|), so integrals that vanish by symmetry
    (e.g. the mass of an odd profile) still converge: no quadrature can
    resolve such cancellation below rel_tol * int |fn|.  The real and
    imaginary parts of complex values each meet their own scale: a
    complex-step derivative is far smaller than the value it rides on.
    """
    (x16, w16), (x, w) = _nodes(16), _nodes(32)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = fn(mid + half * np.concatenate((x16, x)))
    prev = half * np.dot(vals[..., :16], w16)
    scale_ref = half * np.dot(np.abs(_parts(vals[..., :16])), w16)
    cur = half * np.dot(vals[..., 16:], w)
    n = 32
    while True:
        diff = np.abs(_parts(cur - prev))
        scale = np.maximum(np.maximum(np.abs(_parts(cur)), scale_ref), 1e-300)
        if (diff <= rel_tol * scale).all():
            return cur
        n *= 2
        if n > _MAX_NODES:
            break
        x, w = _nodes(n)
        prev, cur = cur, half * np.dot(fn(mid + half * x), w)
    raise QuadratureNotConverged(
        f"no convergence to rel_tol={rel_tol:g} with {_MAX_NODES} nodes "
        f"(last change {np.max(diff / scale):.3e} of the scale)")
