"""Levin transform quality on known slowly convergent series."""

import math

import numpy as np

import pytest

from rbeta import acceleration
from rbeta.acceleration import _BLOCK, levin_u, sum_one_sided

ZETA_15 = 2.612375348685488343348568  # sum n^-1.5, minted at high precision
ZETA_12 = 5.591582441177751883613671  # sum n^-1.2


def test_levin_alternating_log2():
    terms = [(-1.0) ** n / (n + 1.0) for n in range(25)]
    v, e = levin_u(terms)
    assert abs(v - math.log(2.0)) < 1e-13
    assert e < 1e-10


def test_levin_monotone_zeta():
    terms = [1.0 / (n + 1.0) ** 1.5 for n in range(40)]
    v, e = levin_u(terms)
    assert abs(v - ZETA_15) < 5e-9
    assert abs(v - ZETA_15) <= 4 * e + 1e-12


def test_levin_slow_monotone():
    terms = [1.0 / (n + 1.0) ** 1.2 for n in range(60)]
    v, e = levin_u(terms)
    assert abs(v - ZETA_12) < 5e-8


def test_levin_unit_circle_signal():
    th = math.pi / 3
    terms = [np.exp(1j * (n + 1) * th) / (n + 1) ** 0.3 for n in range(30)]
    v, e = levin_u(terms)
    # Li_{0.3}(e^{i pi/3}), minted with mpmath
    want = complex(-0.3269846093137911930478, 0.9649032590798193683637)
    assert abs(v - want) < 1e-11


def test_sum_one_sided_geometric():
    res = sum_one_sided(lambda n: np.full(n.shape, 0.5), 1.0, 1e-14)
    assert abs(res.value - 2.0) < 1e-13
    assert not res.accelerated


def test_sum_one_sided_accelerated():
    # sum (0.3)_n/(2.6)_n at z=1 has the exact value 1.230769...
    def ratio(n):
        return (0.3 + n) / (2.6 + n)
    res = sum_one_sided(ratio, 1.0, 1e-12)
    assert res.accelerated
    assert abs(res.value - 16.0 / 13.0) < 1e-11


@pytest.mark.parametrize("stop", [_BLOCK, _BLOCK + 1])
def test_sum_one_sided_stops_by_decay_at_a_block_edge(stop):
    # halving terms with term `stop` exactly 0: the sum stops there, at the
    # last index of the first block or the first index of the second
    def ratio(n):
        return np.where(n < stop - 1, 0.5, 0.0)
    res = sum_one_sided(ratio, 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (stop + 1, False)
    assert res.value == 2.0 - 2.0 ** (1 - stop)
    assert res.est_error == 1e-16 * res.value


@pytest.mark.parametrize("slow", [_BLOCK, _BLOCK + 1])
def test_sum_one_sided_turns_slow_at_a_block_edge(slow):
    # halving terms up to term slow - 1, then a ratio of 0.9: the first
    # ratio past 0.75 builds the full budget for the Levin transform
    def ratio(n):
        return np.where(n < slow - 1, 0.5, 0.9)
    res = sum_one_sided(ratio, 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (400, True)
    want = 2.0 - 2.0 ** (1 - slow) + 2.0 ** (1 - slow) * 9.0
    assert abs(res.value - want) < 1e-14 * want


@pytest.mark.parametrize("ratio", [
    lambda n: 0.6 * (0.3 + n) / (2.6 + n),
    lambda n: (0.3 + n) / (2.6 + n),
    lambda n: np.exp(1j * math.pi / 3) * (0.2 + n) / (1.9 + n),
])
def test_sum_one_sided_does_not_depend_on_the_block(monkeypatch, ratio):
    # each block continues the running product and sum from where the
    # last one stopped, so every block size rounds alike
    want = sum_one_sided(ratio, 1.0, 1e-12)
    for block in (1, 5, 400):
        monkeypatch.setattr(acceleration, "_BLOCK", block)
        assert sum_one_sided(ratio, 1.0, 1e-12) == want, block


def test_sum_one_sided_rounds_as_a_term_by_term_loop():
    # real ratios, whose products round alike in numpy and in Python
    def ratio(n):
        return -0.7 * (0.3 + n) / (2.6 + n)
    res = sum_one_sided(ratio, 1.0, 1e-12)
    assert not res.accelerated
    t = total = 1.0
    for r in ratio(np.arange(res.terms_used - 1)).tolist():
        t *= r
        total += t
    assert res.value == total


def test_sum_one_sided_first_rule_indices():
    # zero terms stop the sum at term 6, the first one it may stop at
    res = sum_one_sided(np.zeros_like, 1.0, 1e-14)
    assert (res.value, res.terms_used, res.accelerated) == (1.0, 7, False)

    # a ratio past 0.75 from term 8 on switches to the Levin transform,
    # one before it does not
    def bump(at):
        return lambda n: np.where(n == at, 0.9, 0.1)
    assert not sum_one_sided(bump(6), 1.0, 1e-14).accelerated
    assert sum_one_sided(bump(7), 1.0, 1e-14).accelerated

    # terms 1-7 at 1.05e-17, then a ratio of 0.9: at term 8 the decay rule
    # and the slow rule both fire, and decay comes first
    def edge(n):
        return np.select([n == 0, n < 7], [1.05e-17, 1.0], 0.9)
    res = sum_one_sided(edge, 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (9, False)
