"""The half-period trapezoid rule, with nested doubling.

The profile integrals are reduced to analytic integrands of theta (branch
points absorbed by the substitution u = u_- + (u_+ - u_-) sin^2(theta)),
which are pi-periodic and even about 0 and pi/2.  For such integrands the
trapezoid rule on [0, pi/2] with halved end values is the uniform rule on
the full period, and it converges geometrically (Trefethen & Weideman,
SIAM Rev. 56, 2014): the error of the n-interval rule is the cosine
coefficient of order 2n.  Doubling n keeps every old point, so each
doubling evaluates only the n new midpoints, and the change between two
rules is a cheap a posteriori error estimate.  The rule takes array-valued
integrands (last axis: the points), so one call integrates a whole stack
such as the complex-step gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNotConverged

# the largest n of both uniform-theta rules: intervals on [0, pi/2] here,
# points on [0, pi) in wave's cosine series
MAX_N = 2 ** 14
# the relative tolerance of both rules
QUAD_TOL = 1e-13


def _parts(v):
    """Real view of a value: (real, imag) stacked on a new first axis if complex."""
    return np.array((v.real, v.imag)) if np.iscomplexobj(v) else v


# the first rule: 32 intervals, its points and its weights (end values halved)
_THETA32 = np.linspace(0.0, np.pi / 2.0, 33)
_W32 = np.full(33, np.pi / 64.0)
_W32[[0, -1]] *= 0.5
_THETA32.flags.writeable = False     # every call hands it to its integrand


def periodic_trapezoid(fn):
    """Integral of fn over [0, pi/2], doubling the intervals until it converges.

    fn maps points theta to values whose last axis is the points; the result
    has the remaining shape (a scalar for a scalar integrand).  The first
    call of fn takes the 33 points of the 32-interval rule, and the 16- and
    32-interval sums are compared; each doubling then calls fn on the n new
    midpoints alone.  The scale of each component is max(|integral|,
    integral of |fn|), so integrals that vanish by symmetry (e.g. the mass
    of an odd profile) still converge: no quadrature can resolve such
    cancellation below QUAD_TOL * int |fn|.  The real and imaginary parts of
    complex values each meet their own scale: a complex-step derivative is
    far smaller than the value it rides on.  fn must be even and
    pi-periodic for the rule to be spectral.
    """
    vals = fn(_THETA32)
    cur = vals @ _W32
    prev = vals[..., ::2] @ (2.0 * _W32[::2])                # 16 intervals
    scale_ref = np.abs(_parts(vals)) @ _W32
    n = 32
    while True:
        diff = np.abs(_parts(cur - prev))
        scale = np.maximum(np.maximum(np.abs(_parts(cur)), scale_ref), 1e-300)
        if (diff <= QUAD_TOL * scale).all():
            return cur
        if 2 * n > MAX_N:
            break
        mids = fn((np.arange(n) + 0.5) * (np.pi / (2 * n)))
        prev, cur = cur, 0.5 * cur + np.sum(mids, axis=-1) * (np.pi / (4 * n))
        n *= 2
    raise QuadratureNotConverged(
        f"no convergence to QUAD_TOL={QUAD_TOL:g} with {n} intervals on [0, pi/2] "
        f"(last change {np.max(diff / scale):.3e} of the scale)")
