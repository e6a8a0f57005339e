"""Gamma-family primitives against an independent high-precision oracle."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbeta.errors import BranchCutError, DomainError, PoleError
from rbeta.gammafns import (_BERNOULLI, _log_abs_gamma, dilog, gamma,
                            gaussian_q_integral, log_gamma,
                            log_gamma_shift_ratio, pochhammer, recip_gamma)

from conftest import mp_gamma, mp_dilog

# minted with mpmath at 40 digits before the main build
GAMMA_42_13 = complex(-0.9850063781769435215859639, 6.129555052047169138016098)
LI2_03_04 = complex(0.2665968667427404341611758, 0.461362891819108973189117)
LI2_M15_02 = complex(-1.150187069029795899620746, 0.1220646789408168849368313)
GAUSS_Q_09_W1 = 7.82475371115517472673
GAUSS_Q_05_W2 = 6.566530242626247637513


def test_gamma_trivials():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_frozen_oracle_value():
    got = gamma(4.2 + 1.3j)
    assert abs(got - GAMMA_42_13) / abs(GAMMA_42_13) < 1e-13


def test_gamma_accuracy_box(rng):
    """>= 12 significant digits on |Re z|, |Im z| <= 50."""
    worst = 0.0
    for _ in range(150):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-2:
            continue
        want = mp_gamma(z)
        if want == 0:
            continue
        worst = max(worst, abs(gamma(z) - want) / abs(want))
    assert worst < 1e-12


def test_gamma_reflection_grid(rng):
    for _ in range(100):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        lhs = recip_gamma(z) * recip_gamma(1.0 - z)
        rhs = cmath.sin(math.pi * z) / math.pi
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_gamma_recurrence(rng):
    for _ in range(60):
        z = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-2:
            continue
        assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))


def test_gamma_pole_error():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-7.0 + 1e-15j)


def test_recip_gamma_exact_zeros():
    assert recip_gamma(0.0) == 0
    assert recip_gamma(-3.0) == 0
    assert abs(recip_gamma(2.0) - 1.0) < 1e-14


def _branch_points(rng, branch, n):
    """n points where recip_gamma takes the Lanczos sum (Re z >= 1/2,
    |z| < 8), the Stirling series (Re z >= 1/2, |z| >= 8) or the
    reflection (Re z < 1/2, on either side of |1 - z| = 8)."""
    r = {"lanczos": (0.6, 7.9), "stirling": (8.0, 60.0),
         "reflection": (0.6, 40.0)}[branch]
    th = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, n)
    z = rng.uniform(*r, n) * np.exp(1j * th)
    return 1.0 - z if branch == "reflection" else z


def test_recip_gamma_vectorized_matches_scalar(rng):
    # an element comes out the same alone as in an array of any length;
    # bilateral._gamma_ratio batches its denominator factors on this
    zs = rng.uniform(-30, 30, 16) + 1j * rng.uniform(-30, 30, 16)
    out = recip_gamma(zs)
    for z, v in zip(zs, out):
        assert v == recip_gamma(complex(z))
    branches = ("lanczos", "stirling", "reflection")
    for n in (1, 3, 17, 1000):
        for shift in range(3):
            zs = np.empty(n, dtype=complex)
            for i, branch in enumerate(branches):
                pick = (np.arange(n) + shift) % 3 == i
                zs[pick] = _branch_points(rng, branch, int(pick.sum()))
            out = recip_gamma(zs)
            for z, v in zip(zs, out):
                assert v == recip_gamma(complex(z)), (n, z)


@pytest.mark.parametrize("z", [complex(-5, 1e-12), complex(-80, 1e-9),
                               complex(-5, 1e-6), -5 + 1e-12, -80 + 1e-9,
                               -5 + 1e-6])
def test_recip_gamma_next_to_poles(z):
    """The reflection's sin(pi z), reduced by round(Re z), keeps its relative
    accuracy next to a pole (the unreduced sine lost up to 3.6e-4)."""
    want = complex(mp.rgamma(mp.mpc(z.real, z.imag)))
    assert abs(recip_gamma(z) - want) <= 1e-13 * abs(want)


def _mp_loggamma(z) -> complex:
    return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


def test_log_gamma_across_stirling_switch(rng):
    """Both sides of |z| = 8, where the kernel goes from Lanczos to the
    Stirling series, on the sector |arg z| <= pi/2 - 0.05."""
    r = rng.uniform(7.0, 9.0, 300)
    th = rng.uniform(-(math.pi / 2 - 0.05), math.pi / 2 - 0.05, 300)
    zs = r * np.exp(1j * th)
    got = log_gamma(zs)
    worst = max(abs(g - _mp_loggamma(z)) for z, g in zip(zs, got))
    assert worst <= 5e-14


def test_log_gamma_tail_range(rng):
    """Re z in [14, 150], the arguments of the reflected integral tails.
    |log Gamma| reaches about 600 there, where one ulp is 1.1e-13, so the
    5e-14 bound is absolute up to |log Gamma| = 1 and relative above."""
    zs = rng.uniform(14.0, 150.0, 300) + 1j * rng.uniform(-20.0, 20.0, 300)
    for z, g in zip(zs, log_gamma(zs)):
        want = _mp_loggamma(z)
        assert abs(g - want) <= 5e-14 * max(1.0, abs(want))


def test_log_gamma_exponentiates_to_gamma(rng):
    for _ in range(40):
        z = complex(rng.uniform(-12, 12), rng.uniform(-12, 12))
        if abs(z.imag) < 1e-3 and z.real <= 0.5 and abs(z.real - round(z.real)) < 5e-2:
            continue
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-11 * abs(gamma(z))


def test_pochhammer_basics():
    assert pochhammer(0.3 + 0.7j, 0) == 1
    assert abs(pochhammer(1.0, 5) - 120.0) < 1e-12


def test_pochhammer_gamma_ratio_large_n():
    c = 0.4 + 0.2j
    want = mp_gamma(c + 150) / mp_gamma(c)
    have = pochhammer(c, 150)
    assert abs(have - complex(want)) / abs(complex(want)) < 1e-11


@given(st.integers(min_value=-30, max_value=30))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pochhammer_bilateral_identity_hypothesis(n):
    rng = np.random.default_rng(abs(n) + 7)
    for _ in range(3):
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(c.real - round(c.real)) < 0.05 and abs(c.imag) < 0.05:
            continue
        prod = pochhammer(c, n) * pochhammer(1.0 - c, -n)
        assert abs(prod - (-1.0) ** n) < 1e-11


def test_pochhammer_bilateral_identity_grid(rng):
    for _ in range(50):
        c = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(c.imag) < 0.05:
            continue
        for n in range(-30, 31, 6):
            assert abs(pochhammer(c, n) * pochhammer(1 - c, -n) - (-1.0) ** n) < 1e-10


def test_dilog_trivials():
    assert dilog(0.0) == 0
    # brute-force series oracle for z = 1: sum 1/n^2
    brute = sum(1.0 / n ** 2 for n in range(1, 200000))
    assert abs(dilog(1.0) - brute) < 1e-5
    assert abs(dilog(1.0) - math.pi ** 2 / 6) < 1e-15


def test_dilog_frozen_values():
    assert abs(dilog(0.3 + 0.4j) - LI2_03_04) < 1e-13
    assert abs(dilog(-1.5 + 0.2j) - LI2_M15_02) < 1e-13


def test_dilog_oracle_grid(rng):
    for _ in range(60):
        z = rng.uniform(0, 2.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if abs(z.imag) < 1e-6 and z.real > 0.99:
            continue
        want = mp_dilog(z)
        assert abs(dilog(z) - want) <= 1e-12 * max(1.0, abs(want))


def test_dilog_pair_identity():
    for t in np.linspace(-math.pi, math.pi, 20):
        lhs = dilog(-cmath.exp(-1j * t)) + dilog(-cmath.exp(1j * t))
        assert abs(lhs - (t * t / 2 - math.pi ** 2 / 6)) < 1e-11


def test_dilog_branch_cut():
    with pytest.raises(BranchCutError):
        dilog(1.5)


def test_gaussian_q_integral_half_base_unit_weight():
    want = math.sqrt(2 * math.pi) / (0.5 ** 0.125 * math.sqrt(math.log(2.0)))
    assert abs(gaussian_q_integral(0.5, 1.0) - want) < 1e-14


def test_gaussian_q_integral_vs_quadrature_oracle():
    assert abs(gaussian_q_integral(0.9, 1.0) - GAUSS_Q_09_W1) < 1e-12 * GAUSS_Q_09_W1
    assert abs(gaussian_q_integral(0.5, 2.0) - GAUSS_Q_05_W2) < 1e-12 * GAUSS_Q_05_W2


def test_gaussian_q_integral_domain():
    with pytest.raises(DomainError):
        gaussian_q_integral(1.2, 1.0)
    with pytest.raises(DomainError):
        gaussian_q_integral(0.5, 0.0)


def test_duplication_instance(rng):
    for _ in range(25):
        y = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        lhs = 4 * cmath.cos(math.pi * y) * recip_gamma(y) * recip_gamma(-y)
        rhs = recip_gamma(2 * y) * recip_gamma(-2 * y)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_log_gamma_shift_ratio_against_mpmath():
    # the large parts cancel before rounding: a few ulps of |a| + |b| and of
    # the result, where the difference of two log-gammas at x ~ 100 was
    # 2.6e-13 off
    x = np.linspace(16.0, 143.0, 40)
    for a, b in [(-0.93, 2.015), (-1.2 + 0.3j, 1.7 - 0.2j), (-5.5, 0.0),
                 (-3.0 + 0.5j, 4.0 + 2.0j)]:
        got = log_gamma_shift_ratio(x, a, b)
        for xi, g in zip(x, got):
            want = complex(mp.loggamma(mp.mpf(xi) + mp.mpc(a))
                           - mp.loggamma(mp.mpf(xi) + mp.mpc(b)))
            assert abs(g - want) <= 4e-16 * (abs(want) + abs(a) + abs(b))


def test_log_gamma_shift_ratio_stacked_bit_identical_to_scalar_calls():
    # arrays of a and b broadcast against x, each element as its own
    # scalar call gives it, 2-D nodes as well as 1-D
    x = np.linspace(16.0, 143.0, 24).reshape(4, 6)
    a = np.array([-0.93, -1.2 + 0.3j, -5.5, -3.0 + 0.5j])
    b = np.array([2.015, 1.7 - 0.2j, 0.0, 4.0 + 2.0j])
    got = log_gamma_shift_ratio(x[None], a[:, None, None], b[:, None, None])
    for j in range(len(a)):
        want = log_gamma_shift_ratio(x, a[j], b[j])
        assert np.array_equal(got[j].view(float), want.view(float))
        flat = log_gamma_shift_ratio(x.ravel(), a[j], b[j])
        assert np.array_equal(flat.view(float), want.ravel().view(float))


def _bernoulli_fraction(n):
    """B_0..B_n by the rational recurrence sum_k C(m+1, k) B_k = 0."""
    from fractions import Fraction
    b = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        b[m] = -sum(Fraction(math.comb(m + 1, k)) * b[k]
                    for k in range(m)) / (m + 1)
    return [float(x) for x in b]


def test_bernoulli_table_matches_the_fraction_recurrence():
    # the tangent-number table against exact rationals rounded once
    want = _bernoulli_fraction(62)
    assert [x.hex() for x in _BERNOULLI] == [x.hex() for x in want]


def test_log_abs_gamma_against_mpmath(rng):
    # the float64 kernels: log|Gamma| and the sign on both sides of 1/2 and
    # of |x| = 8, next to the poles, and 0 sign at them
    x = np.concatenate([rng.uniform(-40.0, 60.0, 400),
                        -np.arange(1.0, 30.0) + 1e-9, -np.arange(1.0, 30.0) - 0.5,
                        [0.5, 1.0, 2.0, 7.999, 8.0, 170.5]])
    lg, sign = _log_abs_gamma(x)
    assert lg.dtype == sign.dtype == np.float64
    for xi, l, s in zip(x, lg, sign):
        want = mp.loggamma(mp.mpf(xi))
        assert s == (1.0 if mp.gamma(mp.mpf(xi)) > 0 else -1.0), xi
        # ulps of |log Gamma| plus the sensitivity x psi(x) to rounding of x
        assert abs(l - float(mp.re(want))) <= 4e-16 * (
            abs(float(mp.re(want))) + abs(xi) * (abs(math.log(abs(xi) + 1)) + 1)
            + (1.0 / abs(math.sin(math.pi * xi)) if xi < 0.5 else 0.0)), xi
    lg, sign = _log_abs_gamma(np.array([0.0, -1.0, -7.0]))
    assert (sign == 0).all() and (lg == np.inf).all()


def test_log_gamma_shift_ratio_real_shifts_stay_real():
    # real shifts run in float64, the imaginary part of the complex call
    # being exactly 0, and agree with the complex call to a few ulps
    x = np.linspace(16.0, 143.0, 40)
    for a, b in [(-0.93, 2.015), (-5.5, 0.0), (3.25, -7.5)]:
        got = log_gamma_shift_ratio(x, a, b)
        want = log_gamma_shift_ratio(x, complex(a), complex(b))
        assert got.dtype == np.float64
        assert (want.imag == 0).all()
        assert np.all(np.abs(got - want.real)
                      <= 4e-16 * (np.abs(want.real) + abs(a) + abs(b)))
