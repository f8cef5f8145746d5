"""Jacobi elliptic functions, the complete integral K via AGM, and the KdV
cnoidal wave in closed form: an oracle of the tests, independent of the
package's theta-series profile.

Implements the descending Landen transformation of DLMF 22.20(ii) /
Abramowitz & Stegun 16.4: run the arithmetic-geometric mean to convergence,
unwind the amplitude by the backward recurrence, and read off sn, cn, dn.
K(k) comes from the same AGM tables (A&S 17.6).  Modulus convention
throughout: k (not the parameter m = k^2), with 0 <= k < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kpevans.errors import KPEvansError
from kpevans.model import NonlinearitySpec, WaveParams, polyval_ascending
from kpevans.wave import WaveProfile

class ModulusOutOfRange(KPEvansError):
    """Elliptic modulus outside [0, 1)."""


_AGM_TOL = 1e-17
_AGM_MAX = 40


@dataclass(frozen=True)
class EllipticModulus:
    k: float

    def __post_init__(self):
        if not (0.0 <= self.k < 1.0):
            raise ModulusOutOfRange(f"elliptic modulus must lie in [0, 1), got {self.k}")


def _as_k(m) -> float:
    k = m.k if isinstance(m, EllipticModulus) else float(m)
    if not (0.0 <= k < 1.0):
        raise ModulusOutOfRange(f"elliptic modulus must lie in [0, 1), got {k}")
    return k


def _agm_tables(k: float):
    """AGM sequences a_n, b_n, c_n starting from (1, k') with c_0 = k."""
    a = [1.0]
    b = [np.sqrt((1.0 - k) * (1.0 + k))]
    c = [k]
    while c[-1] > _AGM_TOL and len(a) < _AGM_MAX:
        an, bn = a[-1], b[-1]
        a.append(0.5 * (an + bn))
        b.append(np.sqrt(an * bn))
        c.append(0.5 * (an - bn))
    return a, b, c


def complete_K(m) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi/(2*agm(1, k'))."""
    a, _, _ = _agm_tables(_as_k(m))
    return np.pi / (2.0 * a[-1])


def jacobi_elliptic(x, m):
    """(sn, cn, dn) at real argument x for modulus k in [0, 1).

    Backward amplitude recurrence sin(2*phi_{n-1} - phi_n) = (c_n/a_n) sin
    phi_n (A&S 16.4.2); x may be a scalar or an ndarray.  dn is taken from
    the defining relation dn = +sqrt(1 - k^2 sn^2) -- the positive branch is
    exact for k < 1 since dn >= k' > 0, and it avoids the 0/0 of the
    amplitude-ratio formula at quarter periods.  (dn correctness is pinned
    elsewhere by the quarter-period value k' and the derivative relations.)
    """
    k = _as_k(m)
    a, _, c = _agm_tables(k)
    n = len(a) - 1
    if n < 1:
        a = a + [a[-1]]
        c = c + [0.0]
        n = 1
    x_arr = np.asarray(x, dtype=float)
    phi = 2.0 ** n * a[n] * x_arr
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[i] / a[i] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    if np.ndim(x) == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn



def cnoidal_wave(u0: float, kappa: float, m, samples_per_period: int = 1024,
                 sigma: int = 1) -> WaveProfile:
    """KdV cnoidal wave u = u0 + 12 k^2 kappa^2 cn^2(kappa x + K(k), k) at t = 0.

    The phase shift by the quarter period K(k) starts the profile at its
    trough, matching the u(0) = u_- normalization of integrated profiles.
    Wave parameters are recovered from the traveling frame x + c t, which
    forces c = 8 k^2 kappa^2 - 4 kappa^2 + u0, and then (E, a) by inserting
    the closed form into the oscillator equation at two sample points.
    """
    k = m.k if isinstance(m, EllipticModulus) else float(m)
    if not (0.0 < k < 1.0):
        raise ModulusOutOfRange(f"cnoidal modulus must lie in (0, 1), got {k}")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    K = complete_K(k)
    T = 2.0 * K / kappa
    amp = 12.0 * k * k * kappa * kappa
    c = 8.0 * k * k * kappa * kappa - 4.0 * kappa * kappa + u0

    grid = np.linspace(0.0, T, samples_per_period + 1)
    sn, cn, dn = jacobi_elliptic(kappa * grid + K, k)
    u_s = u0 + amp * cn ** 2
    ux_s = -2.0 * amp * kappa * cn * sn * dn
    u_s[0] = u_s[-1] = u0
    ux_s[0] = ux_s[-1] = 0.0

    kdv = NonlinearitySpec.kdv()
    # quad1 at two generic points: u_x^2/2 = E + a u + (c/2) u^2 - F(u)
    idx = [int(0.13 * samples_per_period), int(0.37 * samples_per_period)]
    A = np.array([[1.0, u_s[i]] for i in idx])
    b = np.array([0.5 * ux_s[i] ** 2 + polyval_ascending(kdv.F_coeffs, u_s[i])
                  - 0.5 * c * u_s[i] ** 2 for i in idx])
    E, a = np.linalg.solve(A, b)
    params = WaveParams(float(a), float(E), float(c), kdv, sigma)
    return WaveProfile(params, u0, u0 + amp, T, grid, u_s, ux_s)
