"""Gauss-Legendre rule built by Newton's method on the Legendre recurrence,
and the adaptive rule on scalar, array-valued and complex integrands."""

import numpy as np
import pytest

from kpevans.errors import QuadratureNotConverged
import kpevans as kp
from kpevans.quadrature import _MAX_NODES, _nodes, _parts, adaptive_gauss_legendre
from kpevans.wave import _well_nodes, complex_step_rows

from conftest import gauss_legendre


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 64])
def test_nodes_match_numpy_leggauss(n):
    x, w = _nodes(n)
    X, W = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - X)) <= 2.3e-16
    # leggauss's own weights carry ~1e-12 relative error at n = 64
    assert np.max(np.abs(w - W) / W) <= 1e-11


@pytest.mark.parametrize("n", [512, 2048, 4096])
def test_edge_weights_integrate_high_powers(n):
    # x^{2p} with 2p <= 2n - 1 is integrated exactly by the rule, and its
    # integral 2 / (2p + 1) comes almost entirely from the nodes next to +-1,
    # where 1 - x^2 cancels; numpy's leggauss misses it by 5e-10 at n = 2048
    x, w = _nodes(n)
    assert np.sum(w) == pytest.approx(2.0, rel=0, abs=4e-15)
    for p in (n // 2, n - 1):
        exact = 2.0 / (2 * p + 1)
        assert abs(np.dot(w, x ** (2 * p)) - exact) <= 1e-11 * exact


def test_gauss_legendre_smooth_integrand():
    val = gauss_legendre(np.exp, -1.0, 2.0, 2048)
    assert val == pytest.approx(np.exp(2.0) - np.exp(-1.0), rel=1e-14)


def test_adaptive_array_valued_per_component():
    # last axis = nodes; the odd component vanishes and converges on int |f|
    def fn(x):
        return np.stack((np.exp(x), np.cos(3.0 * x), x ** 3))

    val = adaptive_gauss_legendre(fn, -1.0, 1.0)
    assert val.shape == (3,)
    assert val[0] == pytest.approx(np.exp(1.0) - np.exp(-1.0), rel=1e-14)
    assert val[1] == pytest.approx(2.0 * np.sin(3.0) / 3.0, rel=1e-14)
    assert abs(val[2]) <= 1e-15
    for i in range(3):
        assert val[i] == pytest.approx(
            adaptive_gauss_legendre(lambda x: fn(x)[i], -1.0, 1.0), rel=1e-14, abs=1e-15)
    assert isinstance(adaptive_gauss_legendre(np.exp, -1.0, 1.0), float)


def test_adaptive_complex_parts_converge_separately():
    # a complex-step integrand: the real part is done at 32 nodes, but the
    # imaginary part, 1e-30 of it, must converge against its own scale
    h = 1e-30
    nodes = []

    def fn(x):
        nodes.append(len(x))
        return 1.0 + 1j * h * np.sin(40.0 * x)

    val = adaptive_gauss_legendre(fn, 0.0, 1.0)
    assert val.real == pytest.approx(1.0, rel=1e-15)
    assert val.imag / h == pytest.approx((1.0 - np.cos(40.0)) / 40.0, rel=1e-13)
    assert max(nodes) > 32


def test_adaptive_not_converged_raises():
    # a jump at x = 1/3: the rule converges like 1 / n, far too slowly for the cap
    with pytest.raises(QuadratureNotConverged):
        adaptive_gauss_legendre(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


def two_call_rule(fn, a, b, rel_tol=1e-13):
    """The adaptive rule with one call of fn per rule: the reference the
    shared first call must equal bit for bit."""
    x, w = _nodes(16)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = fn(mid + half * x)
    prev = half * np.dot(vals, w)
    scale_ref = half * np.dot(np.abs(_parts(vals)), w)
    n = 32
    while n <= _MAX_NODES:
        x, w = _nodes(n)
        cur = half * np.dot(fn(mid + half * x), w)
        diff = np.abs(_parts(cur - prev))
        scale = np.maximum(np.maximum(np.abs(_parts(cur)), scale_ref), 1e-300)
        if np.all(diff <= rel_tol * scale):
            return cur
        prev = cur
        n *= 2
    raise QuadratureNotConverged("no convergence")


def well_integrands():
    """Real and complex-step integrands of the mKdV dnoidal well, (3, nodes)."""
    params = kp.WaveParams(0.0, -0.5, 1.0, kp.NonlinearitySpec.mkdv())
    p, tps = params.energy_poly(), kp.find_turning_points(params, (0.5, 3.0))
    rows, roots = complex_step_rows(params, tps)
    real, cplx = _well_nodes(p, *tps), _well_nodes(rows, roots[:, 0], roots[:, 1])

    def moments(at):
        def fn(theta):
            u, sqrt_g = at(theta)
            return np.stack(np.broadcast_arrays(1.0, u, u * u)) * (2.0 / sqrt_g)
        return fn

    return moments(real), moments(cplx)


def test_adaptive_equals_two_call_rule():
    h = 1e-30
    fns = [np.exp, lambda x: np.stack((np.exp(x), np.cos(3.0 * x), x ** 3)),
           lambda x: 1.0 + 1j * h * np.sin(40.0 * x), lambda x: 1.0 / (1.01 + x),
           *well_integrands()]
    for fn in fns:
        for a, b, tol in [(-1.0, 1.0, 1e-13), (0.0, np.pi / 2.0, 1e-13), (-1.0, 0.5, 1e-6)]:
            got, want = adaptive_gauss_legendre(fn, a, b, tol), two_call_rule(fn, a, b, tol)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_first_two_rules_share_one_call():
    calls = []

    def fn(x):
        calls.append(x.shape)
        return np.exp(x)

    adaptive_gauss_legendre(fn, -1.0, 1.0)     # converged at 32 nodes
    assert calls == [(48,)]
    del calls[:]
    adaptive_gauss_legendre(lambda x: fn(x) / (1.01 + x), -1.0, 1.0)
    assert calls[0] == (48,) and len(calls) > 1
    assert [n for n, in calls[1:]] == [64 * 2 ** i for i in range(len(calls) - 1)]
