"""Jacobi elliptic functions and the complete integral K via AGM.

Implements the descending Landen transformation of DLMF 22.20(ii) /
Abramowitz & Stegun 16.4: run the arithmetic-geometric mean to convergence,
unwind the amplitude by the backward recurrence, and read off sn, cn, dn.
K(k) comes from the same AGM tables (A&S 17.6).  Modulus convention
throughout: k (not the parameter m = k^2), with 0 <= k < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModulusOutOfRange

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
