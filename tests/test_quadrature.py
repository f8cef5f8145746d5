"""The half-period trapezoid rule on scalar, array-valued and complex
integrands: exactness, per-component convergence and its evaluation count."""

import numpy as np
import pytest
from scipy.special import i0

from kpevans.errors import QuadratureNotConverged
import kpevans as kp
from kpevans import quadrature
from kpevans.quadrature import MAX_N, periodic_trapezoid
from kpevans.wave import _well_nodes, complex_step_rows


def counted(fn):
    """fn, and the list of the point arrays it has been called on."""
    calls = []

    def wrapped(theta):
        calls.append(theta)
        return fn(theta)

    return wrapped, calls


def cauchy(theta):
    """1 / (1.01 + cos 2 theta): poles 0.07 off the real axis, so the rule
    needs hundreds of intervals; its integral is pi / (2 sqrt(1.01^2 - 1))."""
    return 1.0 / (1.01 + np.cos(2.0 * theta))


CAUCHY = np.pi / (2.0 * np.sqrt(1.01 ** 2 - 1.0))


def test_exact_on_cosines_below_twice_the_intervals():
    # the n-interval rule is the 2n-point periodic rule on [0, pi): it sums
    # cos(2k theta) to its integral 0 for 0 < k < 2n.  The 16-interval rule
    # misses only k = 32, so every other k converges on the first call.
    # Rounding theta_j moves cos(2k theta_j) by up to 2k (pi/2) eps, and the
    # weights sum to pi/2: hence the bound 6 k eps.
    eps = np.finfo(float).eps
    for k in range(1, 64):
        fn, calls = counted(lambda t: np.cos(2 * k * t))
        assert abs(periodic_trapezoid(fn)) <= 6 * k * eps
        assert sum(map(len, calls)) == (65 if k == 32 else 33)
    ks = np.arange(1, 64)[:, None]
    vals = periodic_trapezoid(lambda t: np.cos(2 * ks * t))
    assert vals.shape == (63,) and np.all(np.abs(vals) <= 6 * ks[:, 0] * eps)


def test_adaptive_array_valued_per_component():
    # last axis = points; the odd-about-pi/4 component vanishes and
    # converges on int |f|, the Cauchy component sets the point count
    def fn(t):
        c = np.cos(2.0 * t)
        return np.stack((np.exp(c), c / (1.5 - c * c), cauchy(t)))

    val = periodic_trapezoid(fn)
    assert val.shape == (3,)
    assert val[0] == pytest.approx(0.5 * np.pi * i0(1.0), rel=1e-14)
    assert abs(val[1]) <= 1e-15
    assert val[2] == pytest.approx(CAUCHY, rel=1e-13)
    for i in range(3):
        alone = periodic_trapezoid(lambda t: fn(t)[i])
        assert val[i] == pytest.approx(alone, rel=1e-14, abs=1e-15)
    wrapped, calls_alone = counted(cauchy)
    periodic_trapezoid(wrapped)
    stacked, calls = counted(fn)
    periodic_trapezoid(stacked)
    assert [len(t) for t in calls] == [len(t) for t in calls_alone]
    assert isinstance(periodic_trapezoid(lambda t: np.exp(np.cos(2.0 * t))), float)


def test_adaptive_complex_parts_converge_separately():
    # a complex-step integrand: the real part is done at 33 points, but the
    # imaginary part, 1e-30 of it, must converge against its own scale
    h = 1e-30
    fn, calls = counted(lambda t: 1.0 + 1j * h * cauchy(t))
    val = periodic_trapezoid(fn)
    assert val.real == pytest.approx(np.pi / 2.0, rel=1e-15)
    assert val.imag / h == pytest.approx(CAUCHY, rel=1e-13)
    assert sum(map(len, calls)) > 33


def test_first_two_rules_share_one_call():
    fn, calls = counted(lambda t: np.exp(np.cos(2.0 * t)))
    periodic_trapezoid(fn)                      # converged at 32 intervals
    assert [len(t) for t in calls] == [33]
    assert np.array_equal(calls[0], np.linspace(0.0, np.pi / 2.0, 33))
    fn, calls = counted(cauchy)
    periodic_trapezoid(fn)
    n = [len(t) for t in calls]
    assert n[0] == 33 and len(n) > 3
    assert n[1:] == [32 * 2 ** i for i in range(len(n) - 1)]
    # each doubling evaluates the midpoints of the last grid, never a point twice
    grid = calls[0]
    for new in calls[1:]:
        assert np.allclose(new, 0.5 * (grid[:-1] + grid[1:]), rtol=0, atol=1e-15)
        grid = np.sort(np.concatenate((grid, new)))
    assert np.allclose(grid, np.linspace(0.0, np.pi / 2.0, len(grid)), rtol=0, atol=1e-15)


def test_adaptive_not_converged_raises():
    # a kink at pi/4: the rule converges like 1 / n^2, far too slowly for the cap
    fn, calls = counted(lambda t: np.abs(np.cos(2.0 * t)))
    with pytest.raises(QuadratureNotConverged, match="16384 intervals"):
        periodic_trapezoid(fn)
    assert sum(map(len, calls)) == MAX_N + 1


def well_integrands():
    """Real and complex-step integrands of the mKdV dnoidal well, (3, points)."""
    params = kp.WaveParams(0.0, -0.5, 1.0, kp.NonlinearitySpec.mkdv())
    p, tps = params.energy_poly(), kp.find_turning_points(params, (0.5, 3.0))
    rows, roots = complex_step_rows(params, tps, kp.eval_V(params, np.array(tps), 1))
    real, cplx = _well_nodes(p, *tps), _well_nodes(rows, roots[:, 0], roots[:, 1])

    def moments(at):
        def fn(theta):
            u, sqrt_g = at(theta)
            return np.stack(np.broadcast_arrays(1.0, u, u * u)) * (2.0 / sqrt_g)
        return fn

    return moments(real), moments(cplx)


def two_call_rule(fn, n):
    """The n-interval rule from one call of fn on its whole grid, and the
    values: the reference the nested sums must equal up to summation order."""
    vals = fn(np.linspace(0.0, np.pi / 2.0, n + 1))
    return (np.sum(vals, axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1])) * (np.pi / (2 * n)), vals


def test_adaptive_equals_two_call_rule(monkeypatch):
    h = 1e-30
    for fn in (*well_integrands(), cauchy, lambda t: 1.0 + 1j * h * cauchy(t)):
        for tol in (1e-13, 1e-6):
            monkeypatch.setattr(quadrature, "QUAD_TOL", tol)
            wrapped, calls = counted(fn)
            got = periodic_trapezoid(wrapped)
            n = sum(map(len, calls)) - 1
            want, vals = two_call_rule(fn, n)
            assert type(got) is type(want)
            for part in (np.real, np.imag):
                abs_sum = np.sum(np.abs(part(vals)), axis=-1) * (np.pi / (2 * n))
                assert np.all(np.abs(part(got) - part(want)) <= 8 * np.finfo(float).eps * abs_sum)
