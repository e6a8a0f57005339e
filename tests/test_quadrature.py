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


def tanh_sinh_one_interval(f, lo, hi, max_level=10):
    """The tanh-sinh rule as it was before it took batches: one interval,
    f called on its inside nodes once per level."""
    r = 0.5 * (hi - lo)

    def strip_sum(ks):
        u = 0.5 * math.pi * np.sinh(ks)
        w = 0.5 * math.pi * np.cosh(ks) / np.cosh(u) ** 2
        with np.errstate(over="ignore"):
            dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        pts = np.where(u < 0, lo + r * dist, hi - r * dist)
        inside = (pts > lo) & (pts < hi) & (w > 1e-300)
        if not inside.any():
            return 0j
        vals = np.asarray(f(pts[inside]), dtype=complex)
        return complex((vals * w[inside]).sum() * r)

    h = 1.0
    value = h * strip_sum(np.arange(-3.8, 3.8 + 1e-12, h))
    err = abs(value)
    for _ in range(max_level):
        mids = np.arange(-3.8 + h / 2, 3.8, h)
        value_new = 0.5 * value + (h / 2) * strip_sum(mids)
        err = abs(value_new - value)
        value = value_new
        h /= 2
        if err < 1e-15 * max(1.0, abs(value)):
            break
    return value, err


def test_tanh_sinh_batch_rows_match_scalar_calls():
    # rows that stop at different levels; on lo = 0 the nodes next to lo
    # stay tiny positive numbers, on lo = 1 and lo = 2.9 they round onto lo
    # and drop out, as they do next to hi on every row
    lo = np.array([0.0, 1.0, -2.5, 0.0, 2.9, 1.0, -3.0])
    alpha = np.array([2.0, 2.0, -0.5, -0.5, 0.3, 1.7, 10.0])
    hi = 3.0

    def f(x, rows):
        return np.abs(x - lo[rows]) ** alpha[rows] * np.exp(1j * x)

    values, errs = tanh_sinh(f, lo, hi, max_level=9)
    assert values.shape == errs.shape == lo.shape
    levels, first = [], []
    for i in range(len(lo)):
        sizes = []

        def f_row(x, i=i):
            sizes.append(len(x))
            return f(x, np.full(len(x), i))

        v, e = tanh_sinh(f_row, lo[i], hi, max_level=9)
        assert isinstance(v, complex) and isinstance(e, float)
        v0, e0 = tanh_sinh_one_interval(f_row, lo[i], hi, max_level=9)
        assert (v.real, v.imag, e) == (v0.real, v0.imag, e0), i
        assert np.array_equal(np.array([v]).view(float),
                              values[i:i + 1].view(float)), i
        assert e == errs[i], i
        levels.append(len(sizes))
        first.append(sizes[0])
    assert len(set(levels)) >= 3
    assert first[0] > first[1] and first[3] > first[5]
