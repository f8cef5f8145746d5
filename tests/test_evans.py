"""Monodromy and periodic Evans function."""

import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import kpevans as kp
from kpevans import cli
from kpevans.evans import ODE_TOL, EvansValue, det_with_noise

from conftest import coefficient_matrix
from dp5 import integrate
from tracking import _rk4_steps


def char_poly_coeffs(mono):
    """(a, b, c) with det(M - lam I) = lam^4 + a lam^3 + b lam^2 + c lam + det M.

    Newton's identities on the full (unscaled) monodromy; intended for the
    moderate-mu regime where the scale is representable.
    """
    M = mono.full()
    p1 = np.trace(M)
    p2 = np.trace(M @ M)
    p3 = np.trace(M @ M @ M)
    e1 = p1
    e2 = (p1 * p1 - p2) / 2.0
    e3 = (p1 ** 3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0
    return -e1, e2, -e3


def test_coefficient_matrix_trace_free(kdv_profile):
    rng = np.random.default_rng(11)
    for _ in range(8):
        H = coefficient_matrix(kdv_profile)(rng.uniform(-5, 5), rng.uniform(-1, 1),
                                            rng.uniform(0, 9))
        assert np.trace(H) == 0.0
        assert np.allclose(H[0, 1], 1.0) and np.allclose(H[2, 3], 1.0)


def test_coefficient_matrix_k_shift(kdv_profile):
    # -sigma k^2 enters additively in the bottom-left entry, and nowhere else.
    # The shift is added to the k-independent part of h41 in floating point,
    # so H5[3,0] - H0[3,0] equals -sigma k^2 only up to the rounding of those
    # sums: a few half-ulps of |H[3,0]|, and the bound allows four.  For KdV
    # at x = 1.3 the base -u_xx ~ -0.417 is exact, but adding -0.25 crosses
    # into [0.5, 1) and rounds away its odd last bit (half an ulp off).
    k = 0.5
    H = coefficient_matrix(kdv_profile)
    H0, H5 = H(0.7, 0.0, 1.3), H(0.7, k, 1.3)
    shift = -kdv_profile.params.sigma * k**2
    ulp = np.spacing(max(abs(H0[3, 0]), abs(H5[3, 0])))
    assert H5[3, 0] - H0[3, 0] == pytest.approx(shift, rel=0, abs=2 * ulp)
    # every other entry is computed without k, so it is bit-identical
    off = np.ones((4, 4), dtype=bool)
    off[3, 0] = False
    assert np.array_equal(H5[off], H0[off])


# the census of the error certificate: mu at k = 0.1 and 0.5 on every canonical wave
CENSUS_MUS = [1e-3, 0.5, 3.0, 20.0, 60.0, 200.0, -10.0, 3.0 + 4.0j]


def test_monodromy_determinant(kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
    """det(e^{log_scale} M) = 1 to 1e-8 from the certified segments, at
    (mu, k) = (1.7, 0.3) and at the census mu and k = 0.1, 0.5 on every
    canonical wave."""
    assert kp.monodromy(kdv_profile, 1.7, 0.3).det_residual() <= 1e-8
    for profile in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
        for mu in CENSUS_MUS:
            for k in (0.1, 0.5):
                assert kp.monodromy(profile, mu, k).det_residual() <= 1e-8


def test_monodromy_determinant_small_mu_large_k(cnoidal_mkdv_profile):
    """At mu = 0, k = 1 one segment of the cnoidal map would have singular
    values over ten decades (8.9e4 to 1.1e-5) and a residual of 9.0e-8; the
    segment count grows with |k|^{1/2} too, and the residual holds."""
    assert kp.monodromy(cnoidal_mkdv_profile, 0.0, 1.0).det_residual() <= 1e-8


LIOUVILLE_MUS = [0.0, 1e-4, 1e-2, 0.1, 1.0, -1.0, 5.0, -5.0, 13.0, 30.0, -30.0, 50.0]
LIOUVILLE_KS = [0.0, 0.1, 0.3, 0.5, 0.7, 1.0]


def test_liouville_census(kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
    """det(e^{log_scale} M) = 1 to 1e-8 on 12 mu x 6 k x 3 waves: small mu
    at large k, where the segment count is set by |k|^{1/2}, included."""
    for profile in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
        for mu in LIOUVILLE_MUS:
            for k in LIOUVILLE_KS:
                assert kp.monodromy(profile, mu, k).det_residual() <= 1e-8, (mu, k)


def test_liouville_certificate_on_demand(kdv_profile, monkeypatch):
    """monodromy takes no segment determinant; det_residual takes one per
    segment of the returned map."""
    ev = sys.modules["kpevans.evans"]
    calls = []

    def counted(A):
        calls.append(A)
        return det_with_noise(A)

    monkeypatch.setattr(ev, "det_with_noise", counted)
    mono = kp.monodromy(kdv_profile, 60.0, 0.3)
    assert calls == []
    residual = mono.det_residual()
    assert len(calls) == len(mono.segments) > 1
    monkeypatch.undo()
    assert residual == mono.det_residual() <= 1e-8


def test_group_property(kdv_profile):
    """Two-segment oracle: Phi(T) = Phi(T/2 -> T) Phi(0 -> T/2)."""
    mu, k = 1.7, 0.3
    T = kdv_profile.period

    H = coefficient_matrix(kdv_profile)

    def rhs(x, Y):
        return H(mu, k, x) @ Y

    half1, _ = integrate(rhs, 0.0, 0.5 * T, np.eye(4), rtol=1e-12, atol=1e-12)
    half2, _ = integrate(rhs, 0.5 * T, T, np.eye(4), rtol=1e-12, atol=1e-12)
    full = kp.monodromy(kdv_profile, mu, k).full()
    prod = half2 @ half1
    assert np.max(np.abs(full - prod)) <= 1e-9 * np.max(np.abs(prod))


def test_monodromy_matches_W(kdv_profile, kdv_basis):
    mono = kp.monodromy(kdv_profile, 0.0, 0.0)
    ref = kdv_basis.W[-1] @ np.linalg.inv(kdv_basis.W[0])
    assert np.max(np.abs(mono.full() - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))


def test_translation_mode(kdv_profile, kdv_basis):
    # u_x is T-periodic, so M(0,0) has eigenvalue 1 along W(0,0,0) e1
    mono = kp.monodromy(kdv_profile, 0.0, 0.0)
    v = kdv_basis.W[0][:, 0]
    assert np.max(np.abs(mono.full() @ v - v)) <= 1e-7 * np.max(np.abs(v))
    d0 = kp.evans(kdv_profile, 0.0, 0.0, 1.0)
    assert abs(d0.value) <= 1e-7


def test_evenness_in_mu(kdv_profile):
    for mu in (0.3, 0.9, 2.4):
        dp = kp.evans(kdv_profile, mu, 0.4, 1.0).value
        dm = kp.evans(kdv_profile, complex(-mu), 0.4, 1.0).value
        assert abs(dp - dm) <= 1e-8 * max(1.0, abs(dp))


def test_exact_k_evenness(kdv_profile):
    dp = kp.evans(kdv_profile, 0.9, 0.4, 1.0)
    dm = kp.evans(kdv_profile, 0.9, -0.4, 1.0)
    assert dp.mantissa == dm.mantissa
    assert dp.log_factor == dm.log_factor


def test_char_poly_identities(kdv_profile):
    """c(mu, k) = a(-mu, k) and b even, from M(mu,k) ~ M(-mu,k)^{-1}."""
    k = 0.4
    for mu in (0.6, 1.1):
        ap, bp, cp = char_poly_coeffs(kp.monodromy(kdv_profile, mu, k))
        am, bm, cm = char_poly_coeffs(kp.monodromy(kdv_profile, complex(-mu), k))
        scale = max(abs(ap), abs(bp), abs(cp), 1.0)
        assert abs(cp - am) <= 1e-8 * scale
        assert abs(bp - bm) <= 1e-8 * scale
        # D(mu,k,1) = 1 + a + b + c + det M
        d = kp.evans(kdv_profile, mu, k, 1.0).value
        assert d == pytest.approx((2.0 + ap + bp + cp).real, rel=1e-7)


def test_real_data_gives_real_values(kdv_profile):
    ev = kp.evans(kdv_profile, 1.3, 0.5, 1.0)
    assert isinstance(ev.mantissa, float)
    # complex path at a real point must collapse to the same real value
    evc = kp.evans(kdv_profile, complex(1.3), 0.5, 1.0)
    m = complex(evc.mantissa)
    assert abs(m.imag) <= 1e-9 * abs(m)
    assert m.real * ev.mantissa > 0


def test_det_complete_pivot_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        assert det_with_noise(A)[0] == pytest.approx(np.linalg.det(A), rel=1e-12)
        C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert det_with_noise(C)[0] == pytest.approx(np.linalg.det(C), rel=1e-12)


def test_evans_value_scale_bookkeeping(kdv_profile):
    ev = kp.evans(kdv_profile, 30.0, 0.5, 1.0)
    assert np.isfinite(ev.log_abs)
    assert abs(ev.value) == pytest.approx(np.exp(ev.log_abs), rel=1e-12)


def test_scan_empty_grid(kdv_profile):
    rep = kp.evans_scan(kdv_profile, [], 0.1)
    assert rep.samples == () and rep.roots == () and not rep.unstable


def test_scan_rejects_unsorted(kdv_profile):
    with pytest.raises(ValueError):
        kp.evans_scan(kdv_profile, [1.0, 0.5], 0.1)


def test_scan_rejects_k_zero_at_lambda_one(kdv_profile):
    """D(mu, 0, 1) vanishes for every mu, so a scan at k = 0 and lambda = 1
    is refused; k = 0 at another lambda still scans."""
    for k, lam in ((0.0, 1.0), (-0.0, 1.0 + 0.0j)):
        with pytest.raises(ValueError, match="vanishes identically"):
            kp.evans_scan(kdv_profile, [0.5, 1.0], k, lam)
    assert len(kp.evans_scan(kdv_profile, [0.5, 1.0], 0.0, 2.0).samples) == 2


def test_scan_finds_and_refines_root(kdv_profile):
    rep = kp.evans_scan(kdv_profile, list(np.geomspace(0.005, 2.0, 12)), 0.1)
    assert rep.unstable
    root = rep.roots[0]
    assert root.width <= 1e-6
    # the refined root is a genuine sign change
    lo = kp.evans(kdv_profile, root.mu_lo, 0.1, 1.0)
    hi = kp.evans(kdv_profile, root.mu_hi, 0.1, 1.0)
    assert lo.sign() * hi.sign() == -1


def test_scan_report_serialization(kdv_profile, tmp_path):
    rep = kp.evans_scan(kdv_profile, [0.5, 1.0, 2.0], 0.1)
    d = rep.to_json_dict()
    assert len(d["samples"]) == 3
    path = tmp_path / "scan.csv"
    cli._write_csv(path, "mu,k,re_D,im_D,log_scale,sign",
                   [(s.mu, rep.k, s.re, s.im, s.log_factor, s.sign) for s in rep.samples])
    lines = path.read_text().splitlines()
    assert lines[0] == "mu,k,re_D,im_D,log_scale,sign"
    assert len(lines) == 4


def test_scan_rejects_complex_floquet_multiplier(kdv_profile):
    from kpevans.errors import NonRealEvans
    with pytest.raises(NonRealEvans):
        kp.evans_scan(kdv_profile, [0.5, 1.0], 0.1, lam=1.0 + 1e-3j)


# ----------------------------------------------------------------------
# the grid-aligned RK4 engine against an independent DP5 oracle
# ----------------------------------------------------------------------

ENGINE_MUS = [0.0, 1.7, -30.0] + CENSUS_MUS
ENGINE_KS = (0.1, 0.3, 0.5)


@pytest.mark.parametrize("wave", ["kdv_profile", "dnoidal_profile",
                                  "cnoidal_mkdv_profile"])
@pytest.mark.parametrize("mu", ENGINE_MUS)
def test_engine_against_dp5_oracle(request, wave, mu):
    """The returned map's true error, against DP5 at 1e-13, is at most its
    err_est, and err_est meets the bound 1e3 ODE_TOL.  The k are one DP5
    solve of the stacked systems, whose H stack takes one interpolant call."""
    profile = request.getfixturevalue(wave)
    dtype = complex if isinstance(mu, complex) else float
    H = coefficient_matrix(profile)
    ks = np.array(ENGINE_KS)

    def rhs(x, Y):
        return H(mu, ks, x) @ Y

    Y0 = np.broadcast_to(np.eye(4, dtype=dtype), (len(ENGINE_KS), 4, 4))
    oracle, _ = integrate(rhs, 0.0, profile.period, Y0, rtol=1e-13, atol=1e-13)
    for k, want in zip(ENGINE_KS, oracle):
        mono = kp.monodromy(profile, mu, k)
        assert mono.steps > 0 and mono.matrix.dtype == dtype
        observed = np.max(np.abs(mono.full() - want)) / np.max(np.abs(want))
        assert observed <= mono.err_est <= 1e3 * ODE_TOL


@pytest.mark.parametrize("samples, q", [(1000, 8), (999, 1)])
def test_grids_not_divisible_by_8(kdv_params, kdv_profile, samples, q):
    """On n = 1000 (q = 8, n / q = 125) and n = 999 (q = 1) the levels keep
    whole steps on equal segments: the map certifies with a Liouville
    residual of at most 1e-8 and agrees with the default grid's map within
    the sum of the two bounds.  Its first call costs 7 n / q steps, three
    levels."""
    profile = kp.integrate_profile(kdv_params, samples_per_period=samples)
    first = kp.monodromy(profile, 1e-3, 0.1)
    assert first.steps == 7 * samples // q
    for mu in (1e-3, 3.0, 60.0, 200.0, 3.0 + 4.0j):
        mono = kp.monodromy(profile, mu, 0.1)
        assert mono.err_est <= 1e3 * ODE_TOL
        assert mono.det_residual() <= 1e-8
        ref = kp.monodromy(kdv_profile, mu, 0.1).full()
        gap = np.max(np.abs(mono.full() - ref)) / np.max(np.abs(ref))
        assert gap <= 2e3 * ODE_TOL


def test_engine_unreachable_tolerance_fails_fast(kdv_profile, monkeypatch):
    from kpevans.errors import IntegrationFailure
    monkeypatch.setattr(sys.modules["kpevans.evans"], "ODE_TOL", 1e-30)
    t0 = time.perf_counter()
    with pytest.raises(IntegrationFailure):
        kp.monodromy(kdv_profile, 1.7, 0.3)
    assert time.perf_counter() - t0 < 2.0


def fresh(profile):
    """A copy of profile with no H tables built yet."""
    return replace(profile)


def test_single_coefficient_source(kdv_profile, monkeypatch):
    """conftest.coefficient_matrix, the DP5 references' H, and monodromy both
    take row 4 of H from one place.

    Adding -sigma k^2 to b41 in _base_coefficients must reproduce k exactly
    as both consumers see it, so the k-shift test above guards the engine.
    The patched map runs on a copy with no tables yet, so monodromy builds
    its table through the patch.
    """
    ev = sys.modules["kpevans.evans"]
    assert not hasattr(ev, "integrate")
    assert not hasattr(ev, "_horner") and not hasattr(ev, "_poly_rows")
    mu, k, x = 0.7, 0.5, 1.3
    H_k = coefficient_matrix(kdv_profile)(mu, k, x)
    mono_k = kp.monodromy(kdv_profile, mu, k)
    shift = -kdv_profile.params.sigma * k * k
    base_of = ev._base_coefficients

    def shifted(params):
        base = base_of(params)

        def fields(u, ux):
            b41, b42, b43 = base(u, ux)
            return b41 + shift, b42, b43
        return fields

    monkeypatch.setattr(ev, "_base_coefficients", shifted)
    H_0 = coefficient_matrix(kdv_profile)(mu, 0.0, x)
    mono_0 = kp.monodromy(fresh(kdv_profile), mu, 0.0)
    assert np.array_equal(H_0, H_k)
    assert np.max(np.abs(mono_0.full() - mono_k.full())) \
        <= 1e-12 * np.max(np.abs(mono_k.full()))


@pytest.mark.parametrize("wave", ["kdv_profile", "dnoidal_profile",
                                  "cnoidal_mkdv_profile"])
@pytest.mark.parametrize("m", [1, 3])
def test_base_table_is_grid_exact(request, wave, m):
    """The engine's H table is _base_coefficients of the interpolant's u, u_x
    at x0 + (i + j / 2m) h, ending on the periodic image of x0, and of the
    stored samples at the grid nodes, bit for bit."""
    profile = request.getfixturevalue(wave)
    ev = sys.modules["kpevans.evans"]
    n = len(profile.grid) - 1
    t = (np.arange(n)[:, None] + np.arange(2 * m) / (2 * m)).ravel()
    x = profile.grid[0] + np.append(t, n) * profile.h
    base = ev._base_coefficients(profile.params)
    table = base(*profile.substep_samples(m))
    reference = base(*profile.at(x))
    nodes = base(profile.u_samples, profile.ux_samples)
    for got, want, at_nodes in zip(table, reference, nodes):
        assert got.shape == x.shape and got[-1] == got[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the levels below one step per interval read grid nodes alone:
        # the m = 1 table at strides 2, 4, 8 holds the stored samples' rows
        for stride in (2, 4, 8):
            assert np.array_equal(got[::m * stride], at_nodes[::stride // 2])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("h", [0.5, 0.05])
def test_companion_steps_match_general_kernel(dtype, h):
    """The closed-form companion propagators equal the general RK4 kernel
    to rounding.  Both evaluate one polynomial in h and the data in a
    different order, so each entry differs by at most a few rounding units
    of that polynomial with every term taken in absolute value, which is
    the closed form on |d| (all its coefficients are positive); 16 units
    is the bound, the measured worst is under 3.  As in the engine, a
    complex mu makes only the middle row complex."""
    rng = np.random.default_rng(11)
    rows = [20.0 * rng.standard_normal(2049) for _ in range(3)]
    if dtype is complex:
        rows[1] = rows[1] + 20j * rng.standard_normal(2049)
    A = np.zeros((2049, 4, 4), dtype=dtype)
    A[:] = np.eye(4, k=1)
    for j, d in enumerate(rows):
        A[:, 3, j] = d
    ev = sys.modules["kpevans.evans"]
    closed, general = ev._companion_steps(rows, h), _rk4_steps(A, h)
    assert closed.shape == (1024, 4, 4) and closed.dtype == np.dtype(dtype)
    magnitude = ev._companion_steps([np.abs(d) for d in rows], h)
    assert np.all(np.abs(closed - general) <= 16 * np.finfo(float).eps * magnitude)


def companion_entries(rows, h):
    """The companion propagators entry by entry, one numpy expression per
    entry, from the entry formulas the RK4 step map expands to: the float
    reference for _companion_steps."""
    (p0, q0, r0), (p1, q1, r1), (p2, q2, r2) = ((d[0:-1:2], d[1::2], d[2::2])
                                                for d in rows)
    c1, c2, c3, c4 = h / 6.0, h * h / 6.0, h ** 3 / 12.0, h ** 4 / 24.0
    w2, w3 = c2 + c4 * q2, c1 + c3 * q2 + c4 * r1
    u, v = 4.0 * c1 + c3 * r2, 2.0 * c2 + c4 * r2
    P = np.empty((len(p0), 4, 4), dtype=np.result_type(*rows))
    P[:, 0, 0] = 1.0 + c4 * p0
    P[:, 0, 1] = h + c4 * p1
    P[:, 0, 2] = h * h / 2.0 + c4 * p2
    P[:, 0, 3] = h ** 3 / 6.0
    P[:, 1, 0] = c3 * (p0 + q0)
    P[:, 1, 1] = 1.0 + c3 * (p1 + q1) + c4 * q0
    P[:, 1, 2] = h + c3 * (p2 + q2) + c4 * q1
    P[:, 1, 3] = h * h / 2.0 + c4 * q2
    P[:, 2, 0] = w2 * p0 + 2.0 * c2 * q0
    P[:, 2, 1] = w2 * p1 + 2.0 * c2 * q1 + 2.0 * c3 * q0
    P[:, 2, 2] = 1.0 + w2 * p2 + 2.0 * c2 * q2 + 2.0 * c3 * q1 + c4 * q0
    P[:, 2, 3] = h + 2.0 * c3 * q2 + c4 * q1
    P[:, 3, 0] = w3 * p0 + u * q0 + c1 * r0
    P[:, 3, 1] = w3 * p1 + u * q1 + c1 * r1 + v * q0 + c2 * r0
    P[:, 3, 2] = w3 * p2 + u * q2 + c1 * r2 + v * q1 + c2 * r1 + c3 * (q0 + r0)
    P[:, 3, 3] = 1.0 + v * q2 + c2 * r2 + c3 * (q1 + r1) + c4 * r0
    return P


def fraction_matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def test_rk4_weights_are_the_rk4_stages():
    """In exact arithmetic the feature weights K(h) = sum_k h^k B_k give
    I + h/6 (K1 + 2 K2 + 2 K3 + K4), RK4's four stages for the companion
    A at the step's start, midpoint and end, on random rational data."""
    ev = sys.modules["kpevans.evans"]
    B = ev._RK4_B
    assert B.shape == (5, 19, 16) and np.count_nonzero(B) == 68
    assert np.array_equal(B, np.round(B))
    rng = np.random.default_rng(17)

    def rational():
        return Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))

    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]

    def companion(d):
        return [[Fraction(int(j == i + 1)) for j in range(4)] for i in range(3)] \
            + [list(d) + [Fraction(0)]]

    def stage(A, K, c):   # A (I + c K)
        return fraction_matmul(A, [[eye[i][j] + c * K[i][j] for j in range(4)]
                                   for i in range(4)])

    for _ in range(25):
        h = rational()
        p, q, r = ([rational() for _ in range(3)] for _ in range(3))
        A0, Ah, A1 = companion(p), companion(q), companion(r)
        K1 = A0
        K2 = stage(Ah, K1, h / 2)
        K3 = stage(Ah, K2, h / 2)
        K4 = stage(A1, K3, h)
        want = [[eye[i][j] + h / 6 * (K1[i][j] + 2 * K2[i][j] + 2 * K3[i][j] + K4[i][j])
                 for j in range(4)] for i in range(4)]
        X = [Fraction(1)] + p + q + r + [q[2] * v for v in p] + [r[1] * v for v in p] \
            + [r[2] * v for v in q]
        K = [[sum(h ** k * Fraction(int(B[k, f, e]), 24) for k in range(5))
              for e in range(16)] for f in range(19)]
        got = [sum(X[f] * K[f][e] for f in range(19)) for e in range(16)]
        assert got == [want[e // 4][e % 4] for e in range(16)]


@pytest.mark.parametrize("n", [37, 512, 1024])
def test_complex_steps_equal_one_complex_product(n):
    """For complex rows the stack is taken as two real products; it equals
    the one complex product X^T K(h) of the features, built here as the
    docstring lists them, bit for bit."""
    rng = np.random.default_rng(n)
    rows = [20.0 * rng.standard_normal(2 * n + 1) + 0j for _ in range(3)]
    rows[1] += 20j * rng.standard_normal(2 * n + 1)
    ev = sys.modules["kpevans.evans"]
    (p0, q0, r0), (p1, q1, r1), (p2, q2, r2) = ((d[0:-1:2], d[1::2], d[2::2])
                                                for d in rows)
    p, q, r = np.array([p0, p1, p2]), np.array([q0, q1, q2]), np.array([r0, r1, r2])
    X = np.vstack([np.ones((1, n)), p, q, r, q2 * p, r1 * p, r2 * q])
    for h in (0.5, 0.013):
        K = (np.array([1.0, h, h * h, h ** 3, h ** 4]) / 24.0) @ ev._RK4_B.reshape(5, -1)
        want = (X.T @ K.reshape(19, 16)).reshape(-1, 4, 4)
        assert want.dtype == complex
        assert ev._companion_steps(rows, h).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 37, 1024])
def test_companion_steps_near_entry_formulas(dtype, n):
    """The one-product stack is C-contiguous and within 4 rounding units of
    the |d| magnitude stack of the entry-by-entry reference, for real data
    and a complex middle row (complex mu), at a coarse and a fine step; the
    measured worst is 2 units."""
    rng = np.random.default_rng(n)
    rows = [20.0 * rng.standard_normal(2 * n + 1) for _ in range(3)]
    if dtype is complex:
        rows[1] = rows[1] + 20j * rng.standard_normal(2 * n + 1)
    ev = sys.modules["kpevans.evans"]
    for h in (0.5, 0.013):
        got, want = ev._companion_steps(rows, h), companion_entries(rows, h)
        magnitude = ev._companion_steps([np.abs(d) for d in rows], h)
        assert got.shape == (n, 4, 4) and got.flags.c_contiguous
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * magnitude)


@pytest.mark.parametrize("wave", ["kdv_profile", "dnoidal_profile",
                                  "cnoidal_mkdv_profile"])
@pytest.mark.parametrize("m", [1, 3])
def test_coarse_table_is_fine_table_stride_2(request, wave, m):
    """The m table is every other point of the 2m table, bit for bit:
    j / 2m and 2j / 4m round to the same float.  So the 2m table replaces
    the m table in the profile's one slot, and a later call for m reads it."""
    profile = fresh(request.getfixturevalue(wave))
    ev = sys.modules["kpevans.evans"]
    m_c, coarse = ev._table(profile, m)
    m_f, fine = ev._table(profile, 2 * m)
    assert (m_c, m_f) == (m, 2 * m) and profile._evans_table[1] is fine
    assert ev._table(profile, m)[1] is fine
    for c, f in zip(coarse, fine):
        assert np.array_equal(c, f[::2])


def sequential_product(steps):
    """steps[-1] @ ... @ steps[0], one product at a time."""
    P = np.eye(4, dtype=steps.dtype)
    for S in steps:
        P = S @ P
    return P


@pytest.mark.parametrize("m, nseg, c", [(1, 1024, 1), (1, 200, 5), (1, 8, 128),
                                        (2, 1, 2048)])
def test_batched_reduction_is_per_segment(kdv_profile, m, nseg, c):
    """_reduce on a stack of segments gives each segment's map bit for bit
    as that segment reduced alone, so a map does not depend on how its
    segments are batched; _segment_maps, whose stacks hold several
    segments or a part of one (c = 2048), matches the sequential product
    of each segment's steps to 1e-14 relative."""
    ev = sys.modules["kpevans.evans"]
    m_t, table = ev._table(kdv_profile, m)
    b41, b42, b43 = (d[::m_t // m][:2 * nseg * c + 1] for d in table)
    rows = [b41 - 0.01, b42 - 3.0, b43]
    h = kdv_profile.h / m
    steps = ev._companion_steps(rows, h).reshape(nseg, c, 4, 4)
    if nseg * c <= ev._CHUNK:
        batched = ev._reduce(steps)
        for i in range(nseg):
            assert np.array_equal(batched[i], ev._reduce(steps[i:i + 1])[0])
    for got, seg in zip(ev._segment_maps(rows, h, nseg, c), steps):
        want = sequential_product(seg)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_one_table_per_fine_map(kdv_profile, dnoidal_profile, cnoidal_mkdv_profile,
                                monkeypatch):
    """A profile keeps one H table, the finest built, and builds one only
    when a level needs a finer one.  The first monodromy call on a fresh
    profile builds the m = 1 table, which the levels s = 1/8, 1/4, 1/2 and
    1 read with strides 8, 4, 2 and 1: the KdV wave certifies at s = 1/2
    from that table alone, and the cnoidal wave's s = 2 level replaces it
    with the m = 2 table.  A later call at another mu and k builds none,
    and neither does one whose levels need a coarser table than the one
    kept.  The three documented scans build 6 tables in all (m = 1 on each
    wave, 2 on the KdV and cnoidal waves, 4 on the cnoidal wave), not one
    per Evans evaluation (137) or per level (512), and keep one per wave,
    at m = 2, 1 and 4."""
    built = []
    sample = kp.WaveProfile.substep_samples

    def counted(self, m):
        built.append(m)
        return sample(self, m)

    monkeypatch.setattr(kp.WaveProfile, "substep_samples", counted)
    kdv, cnoidal = fresh(kdv_profile), fresh(cnoidal_mkdv_profile)
    kp.monodromy(kdv, 1e-3, 0.1)
    assert built == [1]
    built.clear()
    kp.monodromy(cnoidal, 1e-3, 0.1)
    assert built == [1, 2] and cnoidal._evans_table[0] == 2
    built.clear()
    kp.monodromy(kdv, 0.5, 0.3)
    kp.monodromy(cnoidal, 0.2, 0.0)
    assert built == []
    scanned = [fresh(p) for p in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile)]
    for profile in scanned:
        kp.evans_scan(profile, DOC_GRID, DOC_K)
    assert sorted(built) == [1, 1, 1, 2, 2, 4]
    n = len(kdv_profile.grid) - 1
    for profile, m in zip(scanned, (2, 1, 4)):
        m_t, rows = profile._evans_table
        assert m_t == m and all(len(d) == 2 * m * n + 1 for d in rows)
    built.clear()
    table = scanned[2]._evans_table
    kp.monodromy(scanned[2], 1e-3, 0.1)   # levels up to m = 2 of the m = 4 table
    assert built == [] and scanned[2]._evans_table is table


@pytest.mark.parametrize("wave", ["kdv_profile", "dnoidal_profile",
                                  "cnoidal_mkdv_profile"])
def test_warm_tables_give_cold_maps(request, wave):
    """A map read from the table another mu and k built equals, bit for bit,
    the map from the table built for it.  The mu cover the cnoidal wave's
    retry (1e-3), one and several segments, and complex mu; the warm-up
    points (0.02, 7, 150 at k = 0.3) build a table at least as fine as
    these use, so no compared call builds one."""
    profile = request.getfixturevalue(wave)
    warm = fresh(profile)
    for mu in (0.02, 7.0, 150.0):
        kp.monodromy(warm, mu, 0.3)
    table = warm._evans_table
    for mu in (1e-3, 0.5, 60.0, 200.0, 3 + 4j):
        for k in (0.0, 0.1):
            cold = fresh(profile)
            want = kp.monodromy(cold, mu, k)
            assert cold._evans_table[0] <= table[0]
            got = kp.monodromy(warm, mu, k)
            assert got.matrix.dtype == want.matrix.dtype
            assert np.array_equal(got.matrix, want.matrix)
            assert got.log_scale == want.log_scale
            assert len(got.segments) == len(want.segments)
            assert all(np.array_equal(g, w) for g, w in zip(got.segments, want.segments))
            assert (got.err_est, got.steps) == (want.err_est, want.steps)
    assert warm._evans_table is table


# ----------------------------------------------------------------------
# root refinement and work counters
# ----------------------------------------------------------------------

DOC_GRID = list(np.geomspace(1e-3, 60.0, 40))   # the scan README documents
DOC_K = 0.1
REFINE_TOL = 1e-6
SYNTH_ROOT = 0.3141592653589793


def refine_bound(lo, hi, tol=REFINE_TOL):
    """The refinement's stated bound: a halving of the bracket every four
    evaluations at worst."""
    return 4 * math.ceil(math.log2((hi - lo) / tol))


def scan_synthetic(monkeypatch, d_of_mu, grid):
    """evans_scan with D replaced by d_of_mu: (report, refinement evaluations)."""
    calls = []

    def fake_evans(profile, mu, k, lam=1.0):
        calls.append(mu)
        return d_of_mu(mu)

    monkeypatch.setattr(sys.modules["kpevans.evans"], "evans", fake_evans)
    rep = kp.evans_scan(None, grid, DOC_K, refine_tol=REFINE_TOL)
    return rep, len(calls) - len(grid)


def skewed(mu):
    """D = expm1(6 (mu - r)) e^{4 mu}: convex across the root, with a
    log_factor that varies over the bracket."""
    return EvansValue(mantissa=math.expm1(6.0 * (mu - SYNTH_ROOT)),
                      log_factor=4.0 * mu, noise=1e-20)


# (bracket, refinement evaluations measured; plain bisection takes 20, 22, 19)
SKEWED_CASES = [([0.05, 1.0], 15), ([0.3141, 3.0], 24), ([0.01, 0.31416], 2)]


@pytest.mark.parametrize("grid, measured", SKEWED_CASES)
def test_illinois_on_skewed_function(monkeypatch, grid, measured):
    rep, evals = scan_synthetic(monkeypatch, skewed, grid)
    (root,) = rep.roots
    assert root.width <= REFINE_TOL and root.mu_lo <= SYNTH_ROOT <= root.mu_hi
    assert evals <= min(measured, refine_bound(*grid))


def test_illinois_read_on_root_closes_bracket(monkeypatch):
    """Linear D: the first secant point is the root and reads in the noise;
    the probe tol/2 above it closes the bracket."""
    def linear(mu):
        return EvansValue(mantissa=mu - SYNTH_ROOT, log_factor=0.0, noise=1e-20)

    rep, evals = scan_synthetic(monkeypatch, linear, [0.05, 1.0])
    (root,) = rep.roots
    assert root.width <= REFINE_TOL and root.mu_lo <= SYNTH_ROOT <= root.mu_hi
    assert evals == 2


def test_illinois_flat_noise_segment(monkeypatch):
    """D reads 0 (in the noise) on [r - w, r + w].  Each sign-0 read moves
    lo, so the bracket closes on the stretch's upper edge."""
    w = 1e-3

    def flat(mu):
        d = mu - SYNTH_ROOT
        return EvansValue(mantissa=0.0 if abs(d) < w else d, log_factor=0.0,
                          noise=1e-12)

    for grid in ([0.05, 1.0], [0.29, 0.3152]):
        rep, evals = scan_synthetic(monkeypatch, flat, grid)
        (root,) = rep.roots
        assert root.width <= REFINE_TOL
        assert root.mu_lo < SYNTH_ROOT + w <= root.mu_hi
        assert flat(root.mu_lo).sign() == 0 and flat(root.mu_hi).sign() == 1
        # measured: 28 and 19, against bounds of 80 and 60
        assert evals <= refine_bound(*grid)


@pytest.fixture(scope="module")
def documented_scans(kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
    """(profile, report, refinement evaluations) of the documented scan on
    each canonical wave."""
    ev = sys.modules["kpevans.evans"]
    out = []
    for profile in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return kp.evans(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ev, "evans", counted)
            rep = kp.evans_scan(profile, DOC_GRID, DOC_K)
        out.append((profile, rep, len(calls) - len(DOC_GRID)))
    return out


def bisect(profile, s0, s1, tol=REFINE_TOL):
    """Plain bisection of a grid bracket: the reference refinement."""
    lo, hi = s0.mu, s1.mu
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = kp.evans(profile, mid, DOC_K).sign()
        if s_mid == 0 or s_mid == s0.sign:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scan_roots_match_bisection(documented_scans):
    for profile, rep, _ in documented_scans:
        brackets = [(s0, s1) for s0, s1 in zip(rep.samples, rep.samples[1:])
                    if s0.sign * s1.sign < 0]
        assert len(brackets) == len(rep.roots) == 1
        for (s0, s1), root in zip(brackets, rep.roots):
            assert root.width <= REFINE_TOL
            assert abs(root.mu_star - bisect(profile, s0, s1)) <= REFINE_TOL


def test_work_counters(kdv_profile, cnoidal_mkdv_profile, documented_scans):
    """Work, not time.  The KdV wave certifies with the first comparison,
    levels s = 1/8, 1/4 and 1/2: 7n/8 steps.  The cnoidal wave misses it
    at small mu and adds levels s = 1 and 2: 31n/8."""
    n = len(cnoidal_mkdv_profile.grid) - 1
    assert kp.monodromy(cnoidal_mkdv_profile, 1e-3, DOC_K).steps == 31 * n // 8
    n_kdv = len(kdv_profile.grid) - 1
    assert kp.monodromy(kdv_profile, 1e-3, DOC_K).steps == 7 * n_kdv // 8
    # measured: 5 + 5 + 7; plain bisection took 14 + 15 + 18
    assert sum(evals for _, _, evals in documented_scans) <= 24


def det_with_noise_arrays(A):
    """The complete-pivot LU on longdouble arrays: the reference the
    list-based det_with_noise must equal byte for byte."""
    complex_in = np.iscomplexobj(A)
    A = np.array(A, dtype=np.clongdouble if complex_in else np.longdouble)
    n = A.shape[0]
    det = A.dtype.type(1.0)
    sign = 1.0
    eps = float(np.finfo(np.longdouble).eps)
    scale0 = float(np.max(np.abs(A))) or 1.0
    pivots = []
    for p in range(n - 1):
        sub = np.abs(A[p:, p:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if i != 0:
            A[[p, p + i]] = A[[p + i, p]]
            sign = -sign
        if j != 0:
            A[:, [p, p + j]] = A[:, [p + j, p]]
            sign = -sign
        piv = A[p, p]
        if piv == 0.0:
            noise = eps * scale0 * float(np.prod(pivots)) if pivots else eps
            return (complex(det) * 0.0 if complex_in else 0.0), noise
        det *= piv
        pivots.append(float(abs(piv)))
        A[p + 1:, p:] -= np.outer(A[p + 1:, p] / piv, A[p, p:])
    det *= A[n - 1, n - 1]
    pivots.append(float(abs(A[n - 1, n - 1])))
    pivots.sort()
    noise = eps * scale0 * float(np.prod(pivots[1:]))
    det = det * sign
    return (complex(det) if complex_in else float(det)), noise


def test_det_with_noise_equals_array_lu(kdv_profile, dnoidal_profile,
                                        cnoidal_mkdv_profile, monkeypatch):
    """(det, noise) equal the array LU's byte for byte on the 137 matrices of
    the documented scans, the Evans matrices at mu = 3+4i and 200 on each
    wave, 250 random real and complex matrices over 16 decades, 40 of small
    integers, where the first of tied pivots (row-major) must win, and
    singular ones, which stop at an exact zero pivot."""
    ev = sys.modules["kpevans.evans"]
    real_det, seen = ev.det_with_noise, []

    def recorded(A):
        seen.append(np.array(A))
        return real_det(A)

    monkeypatch.setattr(ev, "det_with_noise", recorded)
    for profile in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
        kp.evans_scan(profile, DOC_GRID, DOC_K)
    assert len(seen) == 137
    for profile in (kdv_profile, dnoidal_profile, cnoidal_mkdv_profile):
        for mu in (3 + 4j, 200.0):
            kp.evans(profile, mu, DOC_K)
    assert len(seen) == 143 and np.iscomplexobj(seen[-2])
    rng = np.random.default_rng(23)
    for _ in range(125):
        scale = 10.0 ** rng.uniform(-8.0, 8.0, size=(4, 4))
        A = scale * rng.standard_normal((4, 4))
        seen += [A, A + 1j * scale * rng.standard_normal((4, 4))]
    for _ in range(20):   # small integers tie in magnitude at most pivots
        A = rng.integers(-3, 4, size=(4, 4)).astype(float)
        seen += [A, A + 1j * rng.integers(-3, 4, size=(4, 4))]
    u = np.array([1.0, -2.0, 0.5, 4.0])
    seen += [np.outer(u, u[::-1]), np.zeros((4, 4))]

    def as_bytes(result):
        return [(type(v), np.asarray(v).tobytes()) for v in result]

    for A in seen:
        assert as_bytes(real_det(A)) == as_bytes(det_with_noise_arrays(A)), A
    # the rank-one matrix stops at its second pivot: noise is eps times 16 * 16
    assert real_det(seen[-2]) == (0.0, float(np.finfo(np.longdouble).eps) * 256.0)
