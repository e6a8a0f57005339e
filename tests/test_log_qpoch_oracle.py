"""The array path of log_qpoch_inf against the factor loop it replaced.

``log_qpoch_oracle`` is the former array path of
``rbeta.qseries.log_qpoch_inf``, kept here verbatim as the reference: one
pass of five numpy calls per factor over the whole array, stopping after the
first factor count at which every |c q^k| is below 1e-17.  The library now
takes many factors per pass.  It must reproduce the loop's bits exactly for
real and complex q at every size, signed zeros and nan positions included.
For complex q it builds its power rows with the loop's binary multiply,
since numpy's ``multiply.accumulate`` rounds complex products differently.

Large arrays of real chains (real q, every imaginary part of c a signed
zero) skip the loop's stop test: each chain retires at its first factor with
|Re cur| <= 2^-54, where numpy's complex ``log1p(-cur)`` is exactly
(+0, +-0), a premise checked here on its own.  Spies check which arrays
take that kernel.

The loop reduces ``np.abs(cur).max()``, which raises on an empty array, so
size 0 is checked on its own.
"""

import cmath
import math
import time

import numpy as np
import pytest

import rbeta.qseries as qs
from rbeta.qseries import log_qpoch_inf


def log_qpoch_oracle(c, q):
    q = complex(q)
    c_arr = np.asarray(c, dtype=complex)
    out = np.zeros(c_arr.shape, dtype=complex)
    cur = c_arr.copy()
    with np.errstate(divide="ignore"):
        for _ in range(qs._QPROD_MAX_FACTORS):
            np.add(out, np.log1p(-cur), out=out)
            cur = cur * q
            if np.abs(cur).max() < qs._QPROD_EPS:
                break
    return out


def _draw(rng, shape, top):
    """c of the given shape: |c| log-uniform in [1e-20, 10^top] and both
    signs; complex, real with +0.0 and real with -0.0 imaginary parts mixed;
    some exact zeros and, for top >= 0, ones."""
    n = int(np.prod(shape))
    mag = 10.0 ** rng.uniform(-20.0, top, n)
    c = mag * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    kind = rng.integers(0, 3, n)
    real = kind > 0
    c[real] = mag[real] * rng.choice([-1.0, 1.0], int(real.sum()))
    parts = c.view(float).reshape(n, 2)
    parts[kind == 2, 1] = -0.0
    c[::11] = 0.0
    if top >= 0:
        c[5::13] = 1.0
    return c.reshape(shape)


def _same_bits(got, want):
    assert got.shape == want.shape
    g, w = got.view(float), want.view(float)
    nan = np.isnan(w)
    assert np.array_equal(nan, np.isnan(g))
    # equal as floats and with equal sign bits, so +0.0 and -0.0 differ
    assert np.array_equal(g[~nan], w[~nan])
    assert np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan]))


_REAL_Q = (0.31, 0.4, 0.7, 0.95, 0.99)
# (shape, largest log10 |c|): the oracle's cost is factors times size, and
# the factor count grows with log|c| / log(1/q).  With every |c| below
# 1e-15 the last terms before the stop still move the largest sums, so the
# stopping factor count shows in the bits.
_CASES = [((1,), 300), ((2,), 300), ((7,), 300), ((300,), 100),
          ((5000,), 5), ((3, 4), 300), ((40, 30), 60), ((7,), -15),
          ((900,), -15)]


@pytest.mark.parametrize("q", _REAL_Q)
@pytest.mark.parametrize("shape,top", _CASES)
def test_real_q_bit_identical(q, shape, top):
    rng = np.random.default_rng([round(q * 100), *shape])
    c = _draw(rng, shape, top)
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))


@pytest.mark.parametrize("q", [0.31, 0.4])
def test_real_q_bit_identical_60000(q):
    c = _draw(np.random.default_rng(60000), (60000,), 20)
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))


@pytest.mark.parametrize("q", _REAL_Q)
def test_real_c_bit_identical(q):
    # real c and real q keep every imaginary part a signed zero: 5 elements
    # take the block kernel, 900 the real-chain kernel
    rng = np.random.default_rng(7)
    for n in (5, 900):
        c = 10.0 ** rng.uniform(-20.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
        _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))
        _same_bits(log_qpoch_inf(c.astype(complex).conj(), q),
                   log_qpoch_oracle(c.astype(complex).conj(), q))


# finite c near the top of the float range: eps / |c| underflows, and the
# modulus of the last one overflows although both parts are finite
_HUGE_C = (1e307, -1e307, 1.7e308, 1e308 + 1e308j, 1.5e308 + 1.5e308j)


@pytest.mark.parametrize("q", _REAL_Q)
@pytest.mark.parametrize("c0", _HUGE_C)
@pytest.mark.parametrize("n", [1, 7])
def test_huge_finite_c_bit_identical(q, c0, n):
    c = np.full(n, c0, dtype=complex)
    c[1::2] *= 1e-5
    with np.errstate(over="ignore"):
        want = log_qpoch_oracle(c, q)
    _same_bits(log_qpoch_inf(c, q), want)


@pytest.mark.parametrize("c0", _HUGE_C)
def test_huge_finite_c_large_array_and_scalar(c0):
    c = np.full(600, c0, dtype=complex)
    c[1::2] *= 1e-5
    with np.errstate(over="ignore"):
        want = log_qpoch_oracle(c, 0.31)
    _same_bits(log_qpoch_inf(c, 0.31), want)
    got = log_qpoch_inf(c0, 0.31)
    assert got.real == want[0].real or abs(got - want[0]) <= 1e-12 * abs(want[0])


@pytest.mark.parametrize("n", [3, 600])
@pytest.mark.parametrize("cap", [1, 37, 100])
def test_factor_cap_bit_identical(monkeypatch, n, cap):
    monkeypatch.setattr(qs, "_QPROD_MAX_FACTORS", cap)
    c = _draw(np.random.default_rng(cap), (n,), 5)
    _same_bits(log_qpoch_inf(c, 0.99), log_qpoch_oracle(c, 0.99))


@pytest.mark.parametrize("q", [0.5 + 0.3j, 0.9 * np.exp(0.4j), -0.2 - 0.9j,
                               0.99j])
@pytest.mark.parametrize("shape", [(1,), (7,), (300,), (900,)])
def test_complex_q_close(q, shape):
    # every power row is one binary multiply, as in the loop
    c = _draw(np.random.default_rng(len(shape) + shape[0]), shape, 30)
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))


def test_the_largest_chain_keeps_the_loop_going():
    # The small c is turned until the imaginary part of its sum cancels to
    # about 1e-19: its terms still move that part while only c = 1e6 keeps
    # its chain above 1e-17, so the sums are right only if every chain runs
    # to the global stop.
    q = 0.9 * cmath.exp(0.4j)
    im_sum = lambda t: log_qpoch_oracle([1e-3 * cmath.exp(1j * t)], q)[0].imag
    lo = cmath.phase(1 - q) - 0.3
    hi = lo + 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (im_sum(mid) < 0) == (im_sum(lo) < 0):
            lo = mid
        else:
            hi = mid
    c = np.full(600, 1e-3 * cmath.exp(1j * hi))
    c[0] = 1e6
    assert abs(im_sum(hi)) < 1e-17
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))


_ZERO_TERM = 2.0 ** -54


@pytest.mark.parametrize("im", [0.0, -0.0])
def test_complex_log1p_of_a_tiny_real_is_a_signed_zero(im):
    # the premise of the real-chain path, on an array as large as the
    # kernel's and on a scalar
    x = np.repeat([_ZERO_TERM, -_ZERO_TERM, _ZERO_TERM / 3, 1e-17, 5e-324,
                   0.0, -0.0], 100)
    z = np.empty(x.size, dtype=complex)
    z.real, z.imag = -x, im
    for got in (np.log1p(z), np.log1p(z[:1])):
        assert np.all(got.real == 0.0) and not np.signbit(got.real).any()
        assert np.all(got.imag == 0.0)
        assert np.all(np.signbit(got.imag) == np.signbit(im))
    big = np.full(600, complex(-1.5 * _ZERO_TERM, im))
    assert np.all(np.log1p(big).real != 0.0)
    assert np.log1p(big[0]).real != 0.0


def _real_chains(rng, n, top):
    """n real c: |c| log-uniform in [1e-20, 10^top] and both signs, with
    +0.0 and -0.0 imaginary parts mixed; among them +-2^-54 and
    +-1.5 2^-54, zeros, c = 1 (a -inf term) and c > 1 (+-pi terms)."""
    re = 10.0 ** rng.uniform(-20.0, top, n) * rng.choice([-1.0, 1.0], n)
    edges = [_ZERO_TERM, -_ZERO_TERM, 1.5 * _ZERO_TERM, -1.5 * _ZERO_TERM,
             0.0, 1.0, 1.7, 3.0]
    for k, v in enumerate(edges):
        re[k::37] = v
    c = np.empty(n, dtype=complex)
    c.real, c.imag = re, np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return c


@pytest.fixture
def real_path_sizes(monkeypatch):
    """The sizes of the arrays that took the real-chain path."""
    sizes = []
    real_steps = qs._log_qpoch_real_steps

    def spy(cur, q):
        sizes.append(cur.size)
        return real_steps(cur, q)
    monkeypatch.setattr(qs, "_log_qpoch_real_steps", spy)
    return sizes


@pytest.mark.parametrize("q,top", [(0.31, 20), (0.73, 5), (0.999, 0),
                                   (-0.6, 5)])
@pytest.mark.parametrize("n", [512, 1500])
def test_real_chains_bit_identical(real_path_sizes, q, top, n):
    c = _real_chains(np.random.default_rng([n, round(100 * abs(q))]), n, top)
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))
    assert real_path_sizes == [n]


@pytest.mark.parametrize("q", [0.31, -0.6])
def test_real_chains_all_at_their_zero_terms(real_path_sizes, q):
    # every chain retires before its first term: the sums are all +0
    rng = np.random.default_rng(54)
    c = _ZERO_TERM * rng.uniform(-1.0, 1.0, 600).astype(complex)
    c[::5] = _ZERO_TERM
    c[1::5] = -_ZERO_TERM
    c.imag[::2] = -0.0
    got = log_qpoch_inf(c, q)
    _same_bits(got, log_qpoch_oracle(c, q))
    _same_bits(got, np.zeros(600, dtype=complex))
    assert real_path_sizes == [600]


def test_one_complex_element_takes_the_block_kernel(real_path_sizes):
    c = _real_chains(np.random.default_rng(3), 600, 5)
    c[17] = 0.3 + 1e-300j
    _same_bits(log_qpoch_inf(c, 0.73), log_qpoch_oracle(c, 0.73))
    assert real_path_sizes == []


@pytest.mark.parametrize("q", [0.73, -0.6, 0.5 + 0.3j, 0.9 * np.exp(0.4j)])
@pytest.mark.parametrize("n", [600, 5000])
def test_large_complex_chains_bit_identical(real_path_sizes, q, n):
    # complex c or complex q take the block kernel at every size
    c = _draw(np.random.default_rng([n, 17]), (n,), 5)
    _same_bits(log_qpoch_inf(c, q), log_qpoch_oracle(c, q))
    assert real_path_sizes == []


@pytest.mark.parametrize("cap", [1, 37, 100])
def test_real_chains_factor_cap_bit_identical(monkeypatch, real_path_sizes,
                                              cap):
    monkeypatch.setattr(qs, "_QPROD_MAX_FACTORS", cap)
    c = _real_chains(np.random.default_rng(cap), 600, 5)
    _same_bits(log_qpoch_inf(c, 0.99), log_qpoch_oracle(c, 0.99))
    assert real_path_sizes == [600]


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_empty(shape):
    out = log_qpoch_inf(np.zeros(shape), 0.7)
    assert out.shape == shape and out.dtype == complex


def test_non_finite_c_is_nan_at_once():
    t0 = time.perf_counter()
    assert np.isnan(log_qpoch_inf(np.array([np.inf]), 0.99)).all()
    got = log_qpoch_inf(np.array([np.nan, 0.3, complex(1.0, np.inf)]), 0.99)
    assert time.perf_counter() - t0 < 1.0
    assert np.isnan(got[0]) and np.isnan(got[2])
    _same_bits(got[1:2], log_qpoch_oracle([0.3], 0.99))
    for c in (math.inf, -math.inf, math.nan, complex(0.2, math.inf)):
        v = log_qpoch_inf(c, 0.99)
        assert math.isnan(v.real) and math.isnan(v.imag)
