"""Per-point reference of the block reduction behind the high-frequency limit.

asymptotics.verify_block_reduction measures, on stacked arrays, what
`kpevans verify` reports: the lower-left row of E = S^{-1} (D4 + B~) S - D4
and its bound.  block_reduction_loop forms the same chain with one 4x4
solve per grid point, and adds what the package does not compute:

* the diagonalization Q^{-1} H0 Q = D4 of the principal part H0, the
  companion matrix with last row (0, -1, 0, 0) (q_diag_error);
* B~ = Q^{-1} B Q formed numerically, against its closed form w v, and its
  last column against chi w;
* the sup of B~'s upper-left 3x3 block, O(eps), with its bound;
* the (4, 4) entry of E against eps/2 A1_x~ + eps^2 (A1~ A1_x~ / 2 -
  sigma k^2), with its O(eps^{5/2}) bound;
* the full transformed system S^{-1} ((D4 + B~) S - dS/dx~), whose
  lower-left row is the eps^{3/2} coupling the conjugator of tracking.py
  removes.

It takes A1, A2 and A1_x from the package and differentiates A1 and A2
once more itself, from the derivatives of f:
A1_xx = -2 (f'''' u_x^3 + 3 f''' u_x u_xx + f'' u_xxx), A2_x = -f'' u_x,
with u_xx = -V'(u) and u_xxx = -V''(u) u_x.
"""

from dataclasses import dataclass

import numpy as np

from kpevans.asymptotics import (D4_MATRIX, LAMBDA_ROT, Q_MATRIX,
                                 _coefficient_functions)
from kpevans.model import _poly_derivative, eval_V, polyval_ascending


H0_MATRIX = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0, 0.0],
])


def q_diag_error():
    """max |Q^{-1} H0 Q - D4|: Q_MATRIX diagonalizes the principal part."""
    return float(np.max(np.abs(
        np.linalg.inv(Q_MATRIX) @ H0_MATRIX @ Q_MATRIX - D4_MATRIX)))


@dataclass(frozen=True)
class BlockReference:
    eps: float
    grid: np.ndarray             # x~ over one stretched period, both ends
    system: np.ndarray           # S^{-1} ((D4 + B~) S - S') at each grid point
    btilde_numeric_error: float
    last_column_error: float
    upper_left_sup: float
    upper_left_bound: float
    e44_residual: float
    e44_bound: float
    lower_left_sup: float        # E's lower-left row, as verify_block_reduction
    lower_left_full_sup: float   # the system's lower-left row, S' included


def second_derivatives(profile):
    """x -> (A1_xx, A2_x) in the original variable."""
    par = profile.params
    d2, d3, d4 = (_poly_derivative(par.nonlinearity.f_coeffs, j) for j in (2, 3, 4))

    def fields(x):
        u, ux = profile.at(x)
        uxx = -eval_V(par, u, 1)
        uxxx = -eval_V(par, u, 2) * ux
        f2, f3, f4 = (polyval_ascending(d, u) for d in (d2, d3, d4))
        return -2.0 * (f4 * ux ** 3 + 3.0 * f3 * ux * uxx + f2 * uxxx), -f2 * ux

    return fields


def block_reduction_loop(profile, mu, k, n_samples=768):
    """The block reduction at n_samples + 1 points of one stretched period."""
    rot, Qinv = LAMBDA_ROT, np.linalg.inv(Q_MATRIX)
    s = mu ** (-1.0 / 3.0)
    eps, sigma = s * s, profile.params.sigma
    fields, derivatives = _coefficient_functions(profile), second_derivatives(profile)
    w = np.array([1 / 3, 1 / 3, 1 / 3, 1.0], dtype=complex)
    grid_t = np.linspace(0.0, profile.period / s, n_samples + 1)
    system = np.empty((len(grid_t), 4, 4), dtype=complex)
    supA1 = supA2 = supA1x = 0.0
    bt_err = last_err = upper_left = e44_err = lower_left = lower_left_full = 0.0
    for idx, xt in enumerate(grid_t):
        A1, A2, A1x = fields(xt * s)
        A1xx, A2x = derivatives(xt * s)
        supA1, supA2, supA1x = max(supA1, abs(A1)), max(supA2, abs(A2)), max(supA1x, abs(A1x))
        At1, At1x = s * A1, eps * A1x
        chi = 0.5 * At1x * eps - sigma * k * k * eps * eps
        b = np.array([chi, At1 * eps, A2 * eps, 0.0], dtype=complex)
        v = Q_MATRIX.T @ b
        Bt = np.outer(w, v)
        B4 = np.zeros((4, 4), dtype=complex)
        B4[3] = b
        Bt_num = Qinv @ B4 @ Q_MATRIX
        bt_err = max(bt_err, float(np.max(np.abs(Bt_num - Bt))))
        last_err = max(last_err, float(np.max(np.abs(Bt_num[:, 3] - chi * w))))
        upper_left = max(upper_left, float(np.max(np.abs(Bt[:3, :3]))))
        S = np.eye(4, dtype=complex)
        S[3, :3] = [-v[0], v[1] / rot, v[2] / np.conj(rot)]
        DS = (D4_MATRIX + Bt) @ S
        E = np.linalg.solve(S, DS) - D4_MATRIX
        e44 = 0.5 * At1x * eps + eps * eps * (0.5 * At1 * At1x - sigma * k * k)
        e44_err = max(e44_err, abs(E[3, 3] - e44))
        lower_left = max(lower_left, float(np.max(np.abs(E[3, :3]))))
        Sp = np.zeros((4, 4), dtype=complex)
        Sp[3, :3] = s * np.array([
            0.5 * A1xx * eps * eps - s * A1x * eps + A2x * eps,
            (-0.5 * A1xx * eps * eps - rot * s * A1x * eps
             + np.conj(rot) * A2x * eps) / rot,
            (-0.5 * A1xx * eps * eps - np.conj(rot) * s * A1x * eps
             + rot * A2x * eps) / np.conj(rot)])
        system[idx] = np.linalg.solve(S, DS - Sp)
        lower_left_full = max(lower_left_full, float(np.max(np.abs(system[idx, 3, :3]))))
    return BlockReference(
        eps=eps, grid=grid_t, system=system,
        btilde_numeric_error=bt_err, last_column_error=last_err,
        upper_left_sup=upper_left,
        upper_left_bound=10.0 * eps * (supA2 + s * supA1 + k * k * eps),
        e44_residual=e44_err,
        e44_bound=10.0 * eps ** 2.5 * (1.0 + k * k * supA1 + supA1x),
        lower_left_sup=lower_left, lower_left_full_sup=lower_left_full)
