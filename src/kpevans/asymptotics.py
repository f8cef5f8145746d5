"""High/low frequency limits of D(mu, k, 1) and the orientation index.

Two one-sided limits combine into the instability test:

* high frequency: for k != 0, sgn D(mu, k, 1) -> sgn(sigma) as mu -> +inf.
  The mechanism is delicate: after rescaling x by |mu|^{1/3} the transverse
  term sits two orders down, and only the averaging of the periodic
  coefficients (int A1_x = int A1 A1_x = 0 over a period) lets it set the
  sign.  verify_block_reduction() measures what `kpevans verify` reports:
  the O(eps^3) lower-left row after the periodic shear S, and the averaging
  cancellations.  The tests check that Q diagonalizes the principal part
  H0, and their per-point reference checks B~ = Q^{-1} B Q and the shear's
  derivative term S'.

* low frequency: D(0, k, 1) = -(P T - M^2) {T, M}_{a,E} (sigma k^2)^2 +
  O(k^6).  The k^4 coefficient is read here as a Cauchy integral of two
  complex Evans values and compared against the prediction assembled from
  the conserved quantities.

If the two signs disagree -- equivalently sigma * {T, M}_{a,E} > 0, since
P T - M^2 > 0 -- the Evans function has a real positive root and the wave
is transversely unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conserved
from .evans import _base_coefficients, evans
from .model import WaveParams
from .wave import WaveProfile

LAMBDA_ROT = 0.5 * (1.0 + 1j * math.sqrt(3.0))  # e^{i pi/3}
_BLOCK_SAMPLES = 768    # block-reduction grid intervals per stretched period

#: constant diagonalizer of the principal part H0, the companion matrix
#: with last row (0, -1, 0, 0): Q^{-1} H0 Q = D4 (columns: eigenvectors for
#: eigenvalues -1, lambda, lambda*, 0)
Q_MATRIX = np.array([
    [-1.0, -1.0, -1.0, 1.0],
    [1.0, -LAMBDA_ROT, -np.conj(LAMBDA_ROT), 0.0],
    [-1.0, np.conj(LAMBDA_ROT), LAMBDA_ROT, 0.0],
    [1.0, 1.0, 1.0, 0.0],
], dtype=complex)

D4_MATRIX = np.diag([-1.0 + 0j, LAMBDA_ROT, np.conj(LAMBDA_ROT), 0.0])


# ----------------------------------------------------------------------
# high-frequency sign
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HighFreqReport:
    k: float
    probes: tuple            # (mu, sign, log|D|)
    onset_mu: float          # first mu of the trailing constant-sign run
    verdict: int             # +1 / -1, or 0 when inconclusive

    def to_json_dict(self) -> dict:
        return {"k": self.k,
                "probes": [{"mu": m, "sign": s, "log_abs_D": la}
                           for m, s, la in self.probes],
                "onset_mu": self.onset_mu, "verdict": self.verdict}


def high_freq_sign(profile: WaveProfile, k: float, mu_list) -> HighFreqReport:
    """Probe sgn D(mu, k, 1) along increasing positive mu.

    Conclusive once the last three probes agree; evenness in mu justifies
    probing mu > 0 only.
    """
    if k == 0.0:
        raise ValueError("high-frequency limit requires k != 0")
    mu_list = [float(m) for m in mu_list]
    if any(m <= 0 for m in mu_list) or any(b <= a for a, b in zip(mu_list, mu_list[1:])):
        raise ValueError("mu_list must be positive and increasing")
    probes = []
    for mu in mu_list:
        ev = evans(profile, mu, k, 1.0)
        probes.append((mu, ev.sign(), ev.log_abs))

    signs = [s for _, s, _ in probes]
    verdict = 0
    onset = math.nan
    if len(signs) >= 3 and signs[-1] != 0 and signs[-3:] == [signs[-1]] * 3:
        verdict = signs[-1]
        onset = probes[-1][0]
        for mu, s, _ in reversed(probes):
            if s != verdict:
                break
            onset = mu

    return HighFreqReport(k=k, probes=tuple(probes), onset_mu=onset,
                          verdict=verdict)


# ----------------------------------------------------------------------
# block reduction verifier (structure behind the high-frequency limit)
# ----------------------------------------------------------------------

def _coefficient_functions(profile: WaveProfile):
    """Original-x coefficient samples A1 = -2 f''(u) u_x, A2 = c - f'(u), A1_x.

    Vectorized over x; returns (A1, A2, A1_x).
    """
    base = _base_coefficients(profile.params)

    def fields(x):
        # row 4 of H: b41 = A1_x / 2, b42 = A1, b43 = A2
        b41, A1, A2 = base(*profile.at(x))
        return A1, A2, 2.0 * b41

    return fields


@dataclass(frozen=True)
class BlockReductionReport:
    eps: float
    lower_left_sup: float
    lower_left_bound: float
    avg_A1x: float
    avg_A1A1x: float
    abs_A1x: float               # int |A1_x| over a period, the scale of avg_A1x
    abs_A1A1x: float             # int |A1 A1_x|, the scale of avg_A1A1x


def verify_block_reduction(profile: WaveProfile, mu: float, k: float
                           ) -> BlockReductionReport:
    """Measure the reduced lower-left order and the averaging, with their scales.

    Conventions: eps = |mu|^{-2/3}; in the stretched variable x~ =
    |mu|^{1/3} x the coefficient functions contract, so A1 and A1_x pick up
    factors eps^{1/2} and eps against their original-x values.  The shear

        S = I + e4 (sigma1, sigma2, sigma3, 0)

    uses the exact first-order cancellation sigma1 = -v1, sigma2 = v2/rot,
    sigma3 = v3/rot* (v = row vector of B~ = Q^{-1} B Q), which is the
    displayed periodic shear with the rotation phases fixed so the O(eps)
    lower-left terms cancel against the diagonal commutator.  lower_left_sup
    is the sup of the lower-left row of E = S^{-1} (D4 + B~) S - D4.
    """
    if mu < 25.0:
        raise ValueError("block reduction verifier expects mu >= 25")
    rot = LAMBDA_ROT

    s = mu ** (-1.0 / 3.0)
    eps = s * s
    sigma = profile.params.sigma
    fields = _coefficient_functions(profile)

    grid_t = np.linspace(0.0, profile.period / s, _BLOCK_SAMPLES + 1)
    A1, A2, A1x = fields(grid_t * s)
    supA1, supA2 = (float(np.max(np.abs(f))) for f in (A1, A2))
    At1 = s * A1            # x~-convention coefficients
    At1x = eps * A1x
    chi = 0.5 * At1x * eps - sigma * k * k * eps * eps
    b = np.zeros((len(grid_t), 4), dtype=complex)
    b[:, 0], b[:, 1], b[:, 2] = chi, At1 * eps, A2 * eps
    v = b @ Q_MATRIX        # rows (Q^T b)^T
    w = np.array([1 / 3, 1 / 3, 1 / 3, 1.0], dtype=complex)
    Bt = w[:, None] * v[:, None, :]

    S = np.broadcast_to(np.eye(4, dtype=complex), Bt.shape).copy()
    S[:, 3, :3] = np.stack([-v[:, 0], v[:, 1] / rot, v[:, 2] / np.conj(rot)], axis=-1)
    E = np.linalg.solve(S, (D4_MATRIX + Bt) @ S) - D4_MATRIX
    lower_left_sup = float(np.max(np.abs(E[:, 3, :3])))
    lower_left_bound = 10.0 * eps ** 3 * (1.0 + supA1) * (1.0 + supA2)

    # averaging cancellations over one original period: both integrands are
    # exact x-derivatives of periodic quantities, so the integrals vanish;
    # the integrals of their absolute values set the scale of that zero.
    # Periodic trapezoid rule on the profile's own nodes, where the
    # interpolant returns the nodal data
    h = profile.period / (len(profile.grid) - 1)
    a1, _, a1x = fields(profile.grid[:-1])
    a1a1x = a1 * a1x
    avg_A1x, abs_A1x = h * float(np.sum(a1x)), h * float(np.sum(np.abs(a1x)))
    avg_A1A1x, abs_A1A1x = h * float(np.sum(a1a1x)), h * float(np.sum(np.abs(a1a1x)))

    return BlockReductionReport(
        eps=eps, lower_left_sup=lower_left_sup, lower_left_bound=lower_left_bound,
        avg_A1x=avg_A1x, avg_A1A1x=avg_A1A1x, abs_A1x=abs_A1x, abs_A1A1x=abs_A1A1x)


def lower_left_slope(profile: WaveProfile, k: float):
    """Lower-left log-log slope vs eps from mu = 100 to 800, with both reports."""
    r1 = verify_block_reduction(profile, 100.0, k)
    r2 = verify_block_reduction(profile, 800.0, k)
    slope = math.log(r2.lower_left_sup / r1.lower_left_sup) \
        / math.log(r2.eps / r1.eps)
    return slope, (r1, r2)


# ----------------------------------------------------------------------
# low-frequency coefficient
# ----------------------------------------------------------------------

# the radius of the Cauchy circle in s = sigma k^2, in units of 1 / T^2
RHO = 0.05


@dataclass(frozen=True)
class LowFreqReport:
    nodes: tuple             # s_0, s_1 = r e^{i pi / 4}, r e^{3 i pi / 4}
    d_values: tuple          # D(0, k, 1) at sigma k^2 = s_0, s_1
    c4: float
    predicted_c4: float
    relative_error: float

    def to_json_dict(self) -> dict:
        return {"nodes": [{"re": s.real, "im": s.imag} for s in self.nodes],
                "d_values": [{"re": d.real, "im": d.imag} for d in self.d_values],
                "c4": self.c4, "predicted_c4": self.predicted_c4,
                "relative_error": self.relative_error}


def low_freq_coefficient(profile: WaveProfile,
                         grads: conserved.GradientSet = None) -> LowFreqReport:
    """c4, the s^2 coefficient of D(0, k, 1) in s = sigma k^2, by a Cauchy
    integral (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann,
    Found. Comput. Math. 11, 2011), against -(P T - M^2) {T, M}_{a,E}.

    k enters H only through s, and D = c4 s^2 + O(s^3).  c4 is the
    mean of D / s^2 over the nodes s_j = r e^{i pi (2j + 1) / 4}, j = 0..3,
    r = RHO / T^2.  D is real for real s, so D(conj s) = conj D(s) and the
    mean is (Im D(s_0) - Im D(s_1)) / (2 r^2): two complex Evans values.
    Its error is the aliased d_6 r^4 plus the rounding of D over r^2.  The
    prediction is sigma-independent (sigma^2 = 1); the error is relative to
    |predicted c4|, which vanishes where {T, M}_{a,E} does (mKdV at a = 0
    at E* = 1.0130326).
    """
    params = profile.params
    r = RHO / profile.period ** 2
    nodes = r * np.exp(0.25j * np.pi * np.array([1.0, 3.0]))
    d_vals = [evans(profile, 0.0, np.sqrt(s / params.sigma), 1.0).value for s in nodes]
    c4 = (d_vals[0].imag - d_vals[1].imag) / (2.0 * r * r)

    tps = (profile.u_minus, profile.u_plus)
    inv = conserved.compute_invariants(params, turning_points=tps)
    jac = conserved.jacobian_TM(params, grads, bracket_hint=tps)
    predicted = -(inv.P * inv.T - inv.M ** 2) * jac
    return LowFreqReport(nodes=tuple(complex(s) for s in nodes),
                         d_values=tuple(d_vals), c4=float(c4),
                         predicted_c4=float(predicted),
                         relative_error=float(abs(c4 - predicted) / abs(predicted)))


# ----------------------------------------------------------------------
# orientation index
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IndexVerdict:
    jacobian: float
    sigma: int
    product_sign: int
    conclusion: str   # UnstableDetected | IndexInconclusive | DegenerateJacobian

    def to_json_dict(self) -> dict:
        return {"jacobian_TM": self.jacobian, "sigma": self.sigma,
                "product_sign": self.product_sign, "conclusion": self.conclusion}


def orientation_index(params: WaveParams, grads: conserved.GradientSet = None,
                      bracket_hint=None) -> IndexVerdict:
    """Instability verdict from the sign of sigma * {T, M}_{a,E}, from grads
    or else from the {T, M} x {a, E} block of the gradients alone.

    One-sided: a positive product certifies transverse spectral instability;
    a negative one decides nothing.  The Jacobian is degenerate when it is at
    most 1e-8 of the scale |T_a M_E| + |T_E M_a| of its two terms.
    """
    left, right = conserved._jacobian_terms(params, grads, bracket_hint)
    jac = float(left - right)
    if abs(jac) <= 1e-8 * max(abs(left) + abs(right), 1e-300):
        sign, conclusion = 0, "DegenerateJacobian"
    else:
        sign = 1 if params.sigma * jac > 0 else -1
        conclusion = "UnstableDetected" if sign > 0 else "IndexInconclusive"
    return IndexVerdict(jacobian=jac, sigma=params.sigma, product_sign=sign,
                        conclusion=conclusion)
