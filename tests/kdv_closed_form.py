"""The closed-form Jacobian {T, M}_{a,E} of KdV waves: an oracle of the
tests for the package's complex-step jacobian_TM."""

import numpy as np

from kpevans.conserved import compute_invariants
from kpevans.errors import KPEvansError
from kpevans.model import WaveParams, eval_V


class NotKdV(KPEvansError):
    """Operation requires the KdV nonlinearity f(u) = u^2/2."""


def cubic_discriminant(asc_coeffs) -> float:
    """Discriminant of a cubic, 18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2.

    Coefficients ascending (d + c u + b u^2 + a u^3); positive exactly when
    the cubic has three distinct real roots.
    """
    d, c, b, a = np.asarray(asc_coeffs, dtype=float)[:4]
    return (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b ** 2 * c ** 2
            - 4.0 * a * c ** 3 - 27.0 * a ** 2 * d ** 2)


def kdv_jacobian_closed_form(params: WaveParams) -> float:
    """Closed-form {T, M}_{a,E} for KdV: -T^2 V'(M/T) / (24 disc(E - V)).

    Derivation.  With p = E - V = E + a u + (c/2) u^2 - u^3/6, I_k = int
    u^k p^(-1/2) du over the well and J_k the finite part of int u^k
    p^(-3/2) du: T = sqrt(2) I_0, M = sqrt(2) I_1, d_E I_k = -J_k / 2 and
    d_a I_k = -J_(k+1) / 2, so {T, M}_{a,E} = (J_1^2 - J_0 J_2) / 2.
    Reducing the J_k to I_0, I_1 (Bezout's A p + B p' = 1, with coefficients
    over disc, and the vanishing integrals of (q p^(-1/2))' and (q p^(1/2))')
    gives J_1^2 - J_0 J_2 = -I_0^2 V'(I_1/I_0) / (6 disc), which is the
    12 disc form with the right side in I_0, I_1.  In T and M the sqrt(2)
    cancels inside V'(M/T) but not in T^2 = 2 I_0^2: 12 becomes 24.  The
    complex-step Jacobian agrees to about 1e-14 relative.
    The sign structure is normalization-free: V' is strictly convex, so
    V'(M/T) < 0 by Jensen, and disc > 0 whenever three real roots exist,
    making the Jacobian positive for every KdV periodic wave.
    """
    f = params.nonlinearity.f_coeffs
    want = np.array([0.0, 0.0, 0.5])
    if len(np.trim_zeros(f, trim="b")) != 3 or np.max(np.abs(f[:3] - want)) > 1e-12:
        raise NotKdV("closed-form Jacobian requires f(u) = u^2/2")
    inv = compute_invariants(params)
    p = params.energy_poly()  # cubic: E - V
    disc = cubic_discriminant(p)
    vprime_mean = eval_V(params, inv.M / inv.T, 1)
    return float(-inv.T ** 2 * vprime_mean / (24.0 * disc))
