"""Panel quadrature engines against analytically known integrals."""

import math

import numpy as np

from rbeta.quadrature import gauss20, gauss_panels, panel_nodes, tanh_sinh


def test_gauss_panels_gaussian_cosine():
    # int exp(-x^2) cos(w x) = sqrt(pi) exp(-w^2/4)
    w = 3.0
    val, err, n = gauss_panels(lambda x: np.exp(-x * x) * np.cos(w * x),
                               -9.0, 9.0, 0.4)
    want = math.sqrt(math.pi) * math.exp(-w * w / 4)
    assert abs(val - want) < 1e-13
    assert err < 1e-10
    assert n == math.ceil(18.0 / 0.4)


def test_gauss_panels_complex():
    val, _, _ = gauss_panels(lambda x: np.exp(1j * x - x * x), -8.0, 8.0, 0.5)
    want = math.sqrt(math.pi) * math.exp(-0.25)
    assert abs(val - want) < 1e-13


def test_gauss20_graded_matches_uniform():
    f = lambda x: 1.0 / (1.0 + x * x)
    v1, _, _ = gauss_panels(f, -1.0, 1.0, 0.25)
    xs20, _, half = panel_nodes(np.array([-1.0, -0.5, -0.1, 0.3, 1.0]))
    v2 = complex(gauss20(f(xs20).reshape(len(half), 20), half).sum())
    assert abs(v1 - math.pi / 2) < 1e-14
    assert abs(v2 - math.pi / 2) < 1e-12


def test_tanh_sinh_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2 despite the endpoint blowup
    val, err = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert abs(val - 2.0) < 1e-11


def test_tanh_sinh_beta_integral():
    # int_0^1 x^(0.3) (1-x)^(-0.4) dx = B(1.3, 0.6); the integrand recomputes
    # 1-x from the node, which caps accuracy near that endpoint
    from rbeta.gammafns import gamma
    val, _ = tanh_sinh(lambda x: x ** 0.3 * (1 - x) ** (-0.4), 0.0, 1.0)
    want = (gamma(1.3) * gamma(0.6) / gamma(1.9)).real
    assert abs(val - want) < 2e-9
