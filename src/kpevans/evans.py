"""Monodromy of the transverse spectral problem and the periodic Evans function.

The linearization of the gKP flow about a periodic gKdV profile, for
perturbations e^{-mu t + i k y} v(x), reduces to the first-order system
Y' = H(x; mu, k) Y with the companion matrix

    H = [[0, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1],
         [-sigma k^2 - f'''(u) u_x^2 - f''(u) u_xx,  -2 f''(u) u_x - mu,
          -f'(u) + c,  0]].

mu and sigma k^2 enter only additively, so one vectorized function,
_base_coefficients, gives the rest of row 4 to the monodromy engine and to
the asymptotic verifiers alike.

H is trace free, so the fundamental matrix has constant determinant; the
monodromy M(mu, k) = Phi(T) is stored as a normalized matrix plus a real
log of the factored-out scale.  It is a product of classical RK4 step
propagators aligned with the profile's quintic-Hermite grid.  Because H is
a companion matrix, each propagator entry is a fixed linear combination of
19 monomials in row 4 of H at the step's start, midpoint and end, so a
stack of propagators is one matrix product against a constant table
(_companion_steps), reduced pairwise (_reduce).  monodromy extrapolates
the maps of ever finer levels of steps, each read by stride from one table
that the profile keeps (_table).  The Evans function is

    D(mu, k, lambda) = det(M(mu, k) - lambda I),

evaluated through a complete-pivot LU so the sign survives near zeros even
when the scale bookkeeping is large.  evans_scan brackets the sign changes
of Re D on a real mu grid and refines each by Illinois regula falsi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure, NonRealEvans, ScaleOverflow
from .model import _poly_derivative, polyval_ascending
from .wave import WaveProfile

ODE_TOL = 1e-12   # the tolerance of monodromy
_LOG_MAX = 690.0  # exp() overflow guard for float64
_SIGN_SAFETY = 30.0  # a sign read needs |Re D| above this many LU noise floors


def _base_coefficients(params):
    """Vectorized (u, u_x) -> (b41, b42, b43), the mu- and k-free part of H.

    Row 4 of H is (b41 - sigma k^2, b42 - mu, b43, 0); u_xx comes from the
    profile ODE, u_xx = -V'(u).  The one source of these formulas.
    """
    f = params.nonlinearity.f_coeffs
    d1, d2, d3 = (_poly_derivative(f, j) for j in (1, 2, 3))
    vp = params.V_coeffs(1)
    c = params.c

    def base(u, ux):
        f2 = polyval_ascending(d2, u)
        uxx = -polyval_ascending(vp, u)
        b41 = -polyval_ascending(d3, u) * ux * ux - f2 * uxx
        return b41, -2.0 * f2 * ux, c - polyval_ascending(d1, u)

    return base


@dataclass(frozen=True)
class Monodromy:
    """Normalized period map: the true monodromy is exp(log_scale) * matrix.

    segments holds the (nseg, 4, 4) Richardson-extrapolated segment maps
    whose normalized product is matrix.  det_residual sums the complex logs
    of their determinants: determinants are multiplicative, and each
    segment map has moderate dynamic range, so the sum evaluates
    det(e^{log_scale} M) faithfully even when the full monodromy's
    eigenvalues span hundreds of orders of magnitude and a direct 4x4
    determinant would drown in roundoff.

    err_est is the Richardson estimate of the map's error relative to its
    largest entry, and steps the number of RK4 steps of every level built
    (see monodromy).
    """

    matrix: np.ndarray
    log_scale: float
    segments: np.ndarray
    err_est: float
    steps: int

    def full(self) -> np.ndarray:
        if abs(self.log_scale) > _LOG_MAX:
            raise ScaleOverflow(
                f"monodromy scale e^{self.log_scale:.1f} not representable")
        return math.exp(self.log_scale) * self.matrix

    def det_residual(self) -> float:
        """|det(e^{log_scale} M) - 1|; Liouville forces this to vanish."""
        log_det = sum((complex(np.log(complex(det_with_noise(seg)[0])))
                       for seg in self.segments), 0j)
        if abs(log_det.real) > _LOG_MAX:
            raise ScaleOverflow("determinant reconstruction overflows")
        return abs(np.exp(log_det) - 1.0)


def det_with_noise(A: np.ndarray):
    """(det, noise) by complete-pivot LU on a small matrix.

    Full pivoting keeps the tiny last pivot meaningful when the matrix is
    dominated by the huge stable/unstable Floquet directions, and the
    elimination runs in extended (80-bit) precision so the roundoff floor
    sits well below the structurally tiny determinants that arise at large
    spectral frequency.  noise estimates that floor: extended-precision
    epsilon times the product of all but the smallest pivot magnitudes.
    The LU runs on lists of longdouble scalars, which for a 4x4 matrix is
    cheaper than numpy calls on arrays; the pivot is the first largest
    magnitude in row-major order.
    """
    complex_in = np.iscomplexobj(A)
    dtype = np.clongdouble if complex_in else np.longdouble
    A = np.array(A, dtype=dtype).tolist()
    n = len(A)
    det = dtype(1.0)
    sign = 1.0
    eps = float(np.finfo(np.longdouble).eps)
    scale0 = float(max(abs(a) for row in A for a in row)) or 1.0
    pivots = []
    for p in range(n - 1):
        big, i, j = -1.0, p, p
        for r in range(p, n):
            for c in range(p, n):
                if abs(A[r][c]) > big:
                    big, i, j = abs(A[r][c]), r, c
        if i != p:
            A[p], A[i] = A[i], A[p]
            sign = -sign
        if j != p:
            for row in A:
                row[p], row[j] = row[j], row[p]
            sign = -sign
        piv = A[p][p]
        if piv == 0.0:
            noise = eps * scale0 * math.prod(pivots) if pivots else eps
            return (complex(det) * 0.0 if complex_in else 0.0), noise
        det *= piv
        pivots.append(float(abs(piv)))
        for row in A[p + 1:]:
            lead = row[p] / piv
            for c in range(p + 1, n):
                row[c] -= lead * A[p][c]
    det *= A[n - 1][n - 1]
    pivots.append(float(abs(A[n - 1][n - 1])))
    pivots.sort()
    noise = eps * scale0 * math.prod(pivots[1:])
    det = det * sign
    return (complex(det) if complex_in else float(det)), noise


_CHUNK = 1024          # RK4 steps per propagator stack
_MAX_STEPS = 1 << 16   # step budget of one level
_TOL_FACTOR = 1e3      # err_est <= _TOL_FACTOR * ODE_TOL


def _reduce(P: np.ndarray) -> np.ndarray:
    """P[:, -1] @ ... @ P[:, 1] @ P[:, 0] for a (g, c, 4, 4) stack of g
    sequences, by pairwise products along axis 1: (g, 4, 4).  While c is
    even no pair straddles two sequences, so the round runs on the flat
    (g c, 4, 4) stack, which numpy multiplies faster."""
    g = len(P)
    P = P.reshape(-1, 4, 4)
    while len(P) > g:
        if len(P) // g % 2:   # odd c: the last of each sequence waits a round
            Q = P.reshape(g, -1, 4, 4)
            P = np.concatenate([Q[:, 1:-1:2] @ Q[:, :-1:2], Q[:, -1:]],
                               axis=1).reshape(-1, 4, 4)
        else:
            P = P[1::2] @ P[::2]
    return P


# RK4's companion step map less its Taylor matrix, by the rows of
# _companion_steps' docstring: (row, k, w, block, shifts) is the term
# h^k w/24 v, v the feature block 0-5 (p, q, r, q2 p, r1 p, r2 q) shifted
# right `shifts` places.
_RK4_TERMS = ((0, 4, 1, 0, 0),
              (1, 3, 2, 0, 0), (1, 3, 2, 1, 0), (1, 4, 1, 1, 1),
              (2, 2, 4, 0, 0), (2, 2, 8, 1, 0), (2, 3, 4, 1, 1), (2, 4, 1, 1, 2),
              (2, 4, 1, 3, 0),
              (3, 1, 4, 0, 0), (3, 1, 16, 1, 0), (3, 1, 4, 2, 0), (3, 2, 8, 1, 1),
              (3, 2, 4, 2, 1), (3, 3, 2, 1, 2), (3, 3, 2, 2, 2), (3, 3, 2, 3, 0),
              (3, 3, 2, 5, 0), (3, 4, 1, 2, 3), (3, 4, 1, 4, 0), (3, 4, 1, 5, 1))


def _rk4_weights() -> np.ndarray:
    """24 B_k as one (5, 19, 16) integer table: entry [k, f, 4 i + j]
    weighs feature f in entry (i, j) of the step map, with h^k / 24."""
    B = np.zeros((5, 19, 16))
    for i in range(4):   # the Taylor matrix, on feature 1
        for k in range(4 - i):
            B[k, 0, 5 * i + k] = 24 // math.factorial(k)
    for i, k, w, block, shifts in _RK4_TERMS:
        for j in range(min(3, 4 - shifts)):
            B[k, 1 + 3 * block + j, 4 * i + j + shifts] = w
    return B


_RK4_B = _rk4_weights()


def _companion_steps(rows, h: float) -> np.ndarray:
    """Classical RK4 step propagators of Y' = A(x) Y for companion A.

    A = S + e_4 d^T, with S the shift (ones above the diagonal) and
    d = (d0, d1, d2, 0) the data row; rows = (d0, d1, d2) holds it at every
    half step, entries 2j, 2j + 1 and 2j + 2 being step j's start p,
    midpoint q and end r.  RK4's one-step map

        I + h/6 (A0 + 4 Ah + A1) + h^2/6 (Ah A0 + Ah^2 + A1 Ah)
          + h^3/12 (Ah^2 A0 + A1 Ah^2) + h^4/24 A1 Ah^2 A0

    expands, since S e_4 = e_3 and d^T e_4 = 0, to the Taylor matrix
    I + h S + h^2 S^2 / 2 + h^3 S^3 / 6 plus, by rows, with v> the row v
    shifted one place right, (v0, v1, v2, 0)> = (0, v0, v1, v2):

        0: h^4/24 p
        1: h^3/12 (p + q) + h^4/24 q>
        2: h^2/6 (p + 2q) + h^3/6 q> + h^4/24 (q>> + q2 p)
        3: h/6 (p + 4q + r) + h^2/6 (2q + r)> + h^3/12 ((q + r)>> + q2 p
           + r2 q) + h^4/24 (r>>> + r1 p + r2 q>).

    So every entry is a fixed linear combination of 19 features of the
    step, 1, p_j, q_j, r_j, q2 p_j, r1 p_j and r2 q_j (j = 0, 1, 2, in
    that order), with weights K(h) = sum_{k=0..4} h^k B_k: the constant
    24 B_k are _RK4_B, integers with 68 nonzeros, read off the rows above
    (_RK4_TERMS).  The features X are built as (19, n) rows and the stack
    is X^T K(h), one matrix product (two for complex rows), C-contiguous, of
    the n = (len(d0) - 1) / 2 one-step maps, in the dtype the rows promote to.
    """
    D = np.asarray(rows)
    p, q, r = D[:, 0:-1:2], D[:, 1::2], D[:, 2::2]
    X = np.empty((19, q.shape[1]), dtype=D.dtype)
    X[0] = 1.0
    X[1:4], X[4:7], X[7:10] = p, q, r
    np.multiply(q[2], p, out=X[10:13])
    np.multiply(r[1], p, out=X[13:16])
    np.multiply(r[2], q, out=X[16:19])
    K = ((np.array([1.0, h, h * h, h ** 3, h ** 4]) / 24.0)
         @ _RK4_B.reshape(5, -1)).reshape(19, 16)
    # a complex X as two real products, bit for bit the complex one, which
    # past a few hundred steps can stall for milliseconds in a threaded BLAS
    P = X.real.T @ K + 1j * (X.imag.T @ K) if np.iscomplexobj(X) else X.T @ K
    return P.reshape(-1, 4, 4)


def _table(profile: WaveProfile, m: int):
    """(m_t, (b41, b42, b43)): the profile's one table of the mu- and k-free
    part of row 4 of H, at the half steps of m_t >= m RK4 steps per grid
    interval (WaveProfile.substep_samples(m_t)).

    The table is built only when the one kept read-only in the profile's
    _evans_table is coarser than m, and then replaces it: a coarser table
    is every (m_t / m)-th point of a finer one, bit for bit, so every level
    reads the one table by stride (see monodromy).
    """
    if profile._evans_table[0] < m:
        base = _base_coefficients(profile.params)(*profile.substep_samples(m))
        for d in base:
            d.flags.writeable = False
        profile._evans_table = (m, base)
    return profile._evans_table


def _segment_maps(rows, h: float, nseg: int, c: int) -> np.ndarray:
    """The (nseg, 4, 4) maps of nseg segments of c RK4 steps of length h.

    rows hold row 4 of H at the 2 nseg c + 1 half steps.  Whole segments
    share a stack of at most _CHUNK steps, reduced at once (_reduce); a
    longer segment is the ordered product of its stacks.
    """
    per = max(1, _CHUNK // c)   # whole segments per stack
    maps = []
    for first in range(0, nseg, per):
        g = min(per, nseg - first)
        seg = None
        for s0 in range(0, c, _CHUNK):   # one stack unless c > _CHUNK
            s1 = min(s0 + _CHUNK, c)
            lo, hi = 2 * (first * c + s0), 2 * ((first + g - 1) * c + s1) + 1
            P = _companion_steps([d[lo:hi] for d in rows], h)
            part = _reduce(P.reshape(g, s1 - s0, 4, 4))
            seg = part if seg is None else part @ seg
        maps.append(seg)
    return np.concatenate(maps)


def _normalized_product(segments: np.ndarray):
    """(P, log_scale) with e^{log_scale} P = segments[-1] @ ... @ segments[0]
    and max |P| = 1: each segment is divided by its largest entry, the
    quotients are multiplied pairwise (_reduce) and the product divided by
    its largest entry, the logs of the divisors summed.  None when the
    product is not finite or vanishes."""
    s = np.abs(segments).max(axis=(1, 2))
    P = _reduce((segments / s[:, None, None])[None])[0]
    t = float(np.abs(P).max())
    if not (math.isfinite(t) and t > 0.0):
        return None
    return P / t, float(np.log(s).sum()) + math.log(t)


def monodromy(profile: WaveProfile, mu, k) -> Monodromy:
    """Period map of Y' = H Y by Richardson-extrapolated RK4 on the profile grid.

    Maps are built on levels of s_j = 2^j / q classical RK4 steps per grid
    interval, q the largest power of two that divides the n grid intervals
    and is at most 8 (s = 1/8, 1/4, 1/2, 1, 2, ... at the default n = 1024).
    Every step starts and ends on the half steps of the profile's one
    table of row 4 of H, at m_t >= max(1, s) steps per interval (_table),
    which level j reads with the stride (m_t q) >> j: a level with s < 1
    steps across 1 / s grid intervals and reads its start, midpoint and end
    at grid nodes, where the table holds the profile's stored samples.
    The profile interpolant is one quintic per grid interval, so H is
    polynomial inside every step of a level with s >= 1.  H is a companion
    matrix, so each step's 4x4 propagator is a closed form in row 4 of H at
    the step's start, midpoint and end (_companion_steps).

    [0, T] is split at grid nodes into nseg equal segments, nseg the
    smallest divisor of n / q not below ceil(max(|mu|^{1/3}, |k|^{1/2}) T / 5),
    or n / q (a power of two when n / q is one, as at the default n).
    |mu|^{1/3} and |k|^{1/2} are the fast growth rates of the system at
    large mu and at large k, so a segment spans at most about five e-folds
    of either and its determinant keeps its digits.  Every level has the
    same whole number of steps in each segment, and a level's segment maps
    L_j are reduced together (_segment_maps).  The segment maps of adjacent
    levels are Richardson-extrapolated,

        X_j = (16 L_j - L_{j-1}) / 15,

    which removes RK4's h^4 error term, and P_j, ls_j is the normalized
    product of X_j (_normalized_product): the scale e^{ls_j} is kept apart,
    so P_j stays representable when e^{ls_j} is not.  The first j >= 2 with

        err_est = max |P_j - e^{ls_{j-1} - ls_j} P_{j-1}| / 15 <= 1e3 * ODE_TOL

    returns P_j and ls_j, with X_j as its segments, so det_residual
    certifies the map returned.  The divisor is 15, not 31: against DP5 on
    the canonical waves the true error of P_j reaches 0.72 err_est, which
    31 would put above the estimate.  A level whose product is not finite
    is a miss.  The table holds the mu- and k-free part of row 4 alone, so
    every call subtracts sigma k^2 and mu from the rows its level reads (k
    enters H only there, and a complex k, like a complex mu, makes the rows
    and the map complex); it is three float64 rows of 2 m_t n + 1 points,
    about 48 m_t n bytes.  If a level would take more than 2^16 steps,
    IntegrationFailure is raised, so an uncertified map is never returned.
    steps counts every RK4 step of every level built, s_j n for level j.
    """
    mu_c = complex(mu)
    real_mode = mu_c.imag == 0.0
    mu_val = mu_c.real if real_mode else mu_c
    sigma_k2 = profile.params.sigma * k * k
    n = len(profile.grid) - 1
    q = math.gcd(n, 8)
    want = max(1, math.ceil(max(abs(mu_c) ** (1.0 / 3.0), abs(k) ** 0.5)
                            * profile.period / 5.0))
    nseg = next(d for d in range(min(want, n // q), n // q + 1) if (n // q) % d == 0)
    bound = _TOL_FACTOR * ODE_TOL
    steps, raw, prev = 0, None, None
    for j in itertools.count():
        if (n << j) // q > _MAX_STEPS:
            raise IntegrationFailure(
                f"RK4 step budget {_MAX_STEPS} exhausted before the Richardson "
                f"estimate met {bound:.3g} (mu={mu_c:.6g}, k={k:.6g})")
        m_t, table = _table(profile, max(1, (1 << j) // q))
        b41, b42, b43 = (d[::(m_t * q) >> j] for d in table)
        c = ((n // nseg) << j) // q   # steps per segment
        level = _segment_maps((b41 - sigma_k2, b42 - mu_val, b43),
                              profile.h * q / (1 << j), nseg, c)
        steps += nseg * c
        if raw is not None:
            X = (16.0 * level - raw) / 15.0
            cur = _normalized_product(X)
            err_est = math.inf
            if cur is not None and prev is not None \
                    and abs(prev[1] - cur[1]) <= _LOG_MAX:
                err_est = float(np.max(np.abs(
                    cur[0] - math.exp(prev[1] - cur[1]) * prev[0]))) / 15.0
            if err_est <= bound:
                return Monodromy(matrix=cur[0], log_scale=cur[1], segments=X,
                                 err_est=err_est, steps=steps)
            prev = cur
        raw = level


@dataclass(frozen=True)
class EvansValue:
    """D = mantissa * exp(log_factor), with a roundoff floor for the sign."""

    mantissa: complex
    log_factor: float
    noise: float

    @property
    def log_abs(self) -> float:
        return math.log(abs(self.mantissa)) + self.log_factor if self.mantissa != 0 \
            else -math.inf

    @property
    def value(self):
        """The true determinant when representable, else a signed infinity."""
        if self.mantissa == 0:
            return 0.0
        if self.log_abs > _LOG_MAX:
            u = self.mantissa / abs(self.mantissa)
            return u * math.inf
        v = self.mantissa * math.exp(self.log_factor)
        return v.real if isinstance(self.mantissa, float) else v

    def sign(self) -> int:
        """Sign of Re D; 0 when |Re D| <= _SIGN_SAFETY * noise, the LU floor."""
        re = self.mantissa.real if isinstance(self.mantissa, complex) else self.mantissa
        if abs(re) <= _SIGN_SAFETY * self.noise:
            return 0
        return 1 if re > 0 else -1


def evans(profile: WaveProfile, mu, k, lam=1.0) -> EvansValue:
    """Periodic Evans function D(mu, k, lambda) = det(M(mu, k) - lambda I).

    Computed as e^{4 ls} det(M_hat - lambda e^{-ls} I) so the determinant of
    the normalized matrix stays O(1) regardless of the accumulated scale.
    A complex mu, k or lambda gives a complex D by the same path.
    """
    mono = monodromy(profile, mu, k)
    ls = mono.log_scale
    if -ls > _LOG_MAX:
        raise ScaleOverflow("monodromy scale underflow")
    lam_c = complex(lam)
    real_case = not np.iscomplexobj(mono.matrix) and lam_c.imag == 0.0
    shift = (lam_c.real if real_case else lam_c) * math.exp(-ls) if ls < _LOG_MAX else 0.0
    A = mono.matrix - shift * np.eye(4, dtype=mono.matrix.dtype)
    mant, noise = det_with_noise(A)
    mant = float(mant.real) if real_case else complex(mant)
    return EvansValue(mantissa=mant, log_factor=4.0 * ls, noise=noise)


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvansSample:
    mu: float
    re: float
    im: float
    log_factor: float
    sign: int


@dataclass(frozen=True)
class RefinedRoot:
    mu_lo: float
    mu_hi: float
    mu_star: float

    @property
    def width(self) -> float:
        return self.mu_hi - self.mu_lo


@dataclass(frozen=True)
class ScanReport:
    k: float
    lam: complex
    samples: tuple
    roots: tuple
    unstable: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "unstable", any(r.mu_star > 0 for r in self.roots))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "samples": [{"mu": s.mu, "re_mantissa": s.re, "im_mantissa": s.im,
                         "log_factor": s.log_factor, "sign": s.sign}
                        for s in self.samples],
            "roots": [{"mu_lo": r.mu_lo, "mu_hi": r.mu_hi, "mu_star": r.mu_star,
                       "width": r.width} for r in self.roots],
            "unstable": self.unstable,
        }


def _refine(sample, s0: EvansSample, s1: EvansSample, tol: float) -> RefinedRoot:
    """Illinois refinement of the sign change of Re D between s0 and s1.

    Regula falsi on the signed value Re D e^{log_factor - L}, with L fixed
    for the bracket and the Illinois halving of an end value kept twice
    running (Dowell & Jarratt, BIT 11, 1971).  Each point is clamped tol/2
    inside the bracket, so a side that has converged closes it in one step.
    An in-noise read (sign 0) moves lo, as a bisection would, with the value
    0: the next point probes lo + tol/2, which closes the bracket if the
    read sat on the root.  The point is the midpoint instead when the secant
    point is not finite, after a second in-noise read in a row (a flat
    stretch), and when the last three evaluations did not halve the
    bracket; the last rule bounds the evaluations by
    4 ceil(log2((s1.mu - s0.mu) / tol)).  Stops once hi - lo <= tol.
    """
    L = max(s0.log_factor, s1.log_factor)

    def signed(s):
        return s.re * math.exp(min(s.log_factor - L, _LOG_MAX))

    lo, hi, f_lo, f_hi = s0.mu, s1.mu, signed(s0), signed(s1)
    widths, kept = [hi - lo], 0
    while hi - lo > tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else math.nan
        if not math.isfinite(x) or (len(widths) > 3 and hi - lo > 0.5 * widths[-4]):
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        s = sample(x)
        if s.sign == s1.sign:
            hi, f_hi = x, signed(s)
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = x, signed(s) if s.sign else (math.nan if f_lo == 0.0 else 0.0)
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        widths.append(hi - lo)
    return RefinedRoot(mu_lo=lo, mu_hi=hi, mu_star=0.5 * (lo + hi))


def evans_scan(profile: WaveProfile, mu_grid, k: float, lam=1.0,
               refine_tol: float = 1e-6) -> ScanReport:
    """Evaluate D along a real mu grid, bracket sign changes, refine roots.

    Each sign change of Re D between neighbouring grid points (both read
    above the noise floor) is refined by _refine, Illinois regula falsi
    with a bisection safeguard, to a bracket at most refine_tol wide.

    For real mu and lambda the system has real coefficients, so the scan
    runs entirely in real arithmetic; a nonzero imaginary part can only
    arrive through a complex code path and trips NonRealEvans.

    At k = 0 and lambda = 1 the scan raises ValueError: D(mu, 0, 1)
    vanishes for every mu.  With w = v''' + (f'(u) - c) v' + f''(u) u_x v
    + mu v, w' = -sigma k^2 v, so at k = 0 the row (mu, f'(u_-) - c, 0, 1)
    annihilates M - I, and every sign read there is rounding.
    """
    mu_grid = [float(m) for m in mu_grid]
    if any(m2 <= m1 for m1, m2 in zip(mu_grid, mu_grid[1:])):
        raise ValueError("mu_grid must be strictly increasing")
    lam_c = complex(lam)
    if k == 0.0 and lam_c == 1.0:
        raise ValueError("D(mu, 0, 1) vanishes identically: scan at k != 0")

    def sample(mu: float) -> EvansSample:
        ev = evans(profile, mu, k, lam_c.real if lam_c.imag == 0 else lam_c)
        m = complex(ev.mantissa)
        if abs(m.imag) > 1e-9 * max(abs(m), 1e-300):
            raise NonRealEvans(
                f"Im D = {m.imag:.3e} at mu={mu:.6g} on real data")
        return EvansSample(mu=mu, re=m.real, im=m.imag,
                           log_factor=ev.log_factor, sign=ev.sign())

    samples = [sample(mu) for mu in mu_grid]
    roots = [_refine(sample, s0, s1, refine_tol)
             for s0, s1 in zip(samples, samples[1:]) if s0.sign * s1.sign < 0]
    return ScanReport(k=k, lam=lam_c, samples=tuple(samples), roots=tuple(roots))
