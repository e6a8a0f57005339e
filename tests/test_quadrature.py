"""Panel quadrature engines against analytically known integrals."""

import math

import numpy as np

from rbeta.quadrature import panel_nodes, panel_sums, tanh_sinh


def uniform_panels(f, lo, hi, n):
    """The 20-point Gauss sum of f on n equal panels of [lo, hi]."""
    xs20, half = panel_nodes(np.linspace(lo, hi, n + 1), 20)
    return complex(panel_sums(f(xs20).reshape(n, 20), half).sum())


def test_gauss_panels_gaussian_cosine():
    # int exp(-x^2) cos(w x) = sqrt(pi) exp(-w^2/4)
    w = 3.0
    val = uniform_panels(lambda x: np.exp(-x * x) * np.cos(w * x),
                         -9.0, 9.0, math.ceil(18.0 / 0.4))
    want = math.sqrt(math.pi) * math.exp(-w * w / 4)
    assert abs(val - want) < 1e-13


def test_gauss_panels_complex():
    val = uniform_panels(lambda x: np.exp(1j * x - x * x), -8.0, 8.0, 32)
    want = math.sqrt(math.pi) * math.exp(-0.25)
    assert abs(val - want) < 1e-13


def test_gauss20_graded_matches_uniform():
    f = lambda x: 1.0 / (1.0 + x * x)
    v1 = uniform_panels(f, -1.0, 1.0, 8)
    xs20, half = panel_nodes(np.array([-1.0, -0.5, -0.1, 0.3, 1.0]), 20)
    v2 = complex(panel_sums(f(xs20).reshape(len(half), 20), half).sum())
    assert abs(v1 - math.pi / 2) < 1e-14
    assert abs(v2 - math.pi / 2) < 1e-12


def test_panel_sums_take_the_rule_of_the_row_length():
    # the same panels on the 16- and the 20-point rule
    edges = np.linspace(-9.0, 9.0, 46)
    want = math.sqrt(math.pi) * math.exp(-2.25)
    for n in (16, 20):
        xs, half = panel_nodes(edges, n)
        assert xs.shape == (45 * n,)
        f = np.exp(-xs * xs) * np.cos(3.0 * xs)
        assert abs(panel_sums(f.reshape(45, n), half).sum() - want) < 1e-13


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


def test_tanh_sinh_integrates_rows_on_shared_nodes():
    # rows x^alpha on (0, 1), one singular at 0, with one stop for all:
    # each row as accurate as a call on it alone
    alpha = np.array([-0.5, 0.3, 2.0, 10.0])
    want = 1.0 / (alpha + 1.0)
    values, errs = tanh_sinh(lambda x: x ** alpha[:, None], 0.0, 1.0)
    assert values.shape == errs.shape == alpha.shape
    assert (np.abs(values - want) <= 2e-15 * want).all()
    for i, a in enumerate(alpha):
        v, e = tanh_sinh(lambda x: x ** a, 0.0, 1.0)
        assert isinstance(v, complex) and isinstance(e, float)
        assert abs(values[i] - v) <= 1e-15 * abs(v), a
