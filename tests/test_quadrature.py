"""Gauss-Legendre rule built by Newton's method on the Legendre recurrence,
and the adaptive rule on scalar, array-valued and complex integrands."""

import numpy as np
import pytest

from kpevans.errors import QuadratureNotConverged
from kpevans.quadrature import _nodes, adaptive_gauss_legendre

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
