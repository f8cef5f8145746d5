"""Gauss-Legendre rule built by Newton's method on the Legendre recurrence."""

import numpy as np
import pytest

from kpevans.quadrature import _nodes, gauss_legendre


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
