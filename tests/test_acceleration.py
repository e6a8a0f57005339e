"""Levin transform quality on known slowly convergent series."""

import math

import numpy as np

import pytest

from rbeta import acceleration
from rbeta.acceleration import levin_u, sum_one_sided

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


def test_levin_row_of_subnormal_terms():
    # 1 / w overflows on subnormal terms; the test run makes numpy warnings
    # errors, and a row with no finite estimate keeps its plain partial sum
    terms = 1e-310 * 0.9 ** np.arange(48) + 0j
    partial = complex(np.cumsum(terms)[-1])
    v, e = levin_u(terms)
    assert v == partial
    other = np.array([(-1.0) ** n / (n + 1.0) for n in range(48)], dtype=complex)
    values, errs = levin_u(np.stack((other, terms)))
    assert values[1] == partial and errs[1] == e
    assert (values[0], errs[0]) == levin_u(other)


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


@pytest.mark.parametrize("stop", [32, 33])
def test_sum_one_sided_stops_by_decay_at_a_block_edge(stop):
    # halving terms with term `stop` exactly 0: the sum stops there
    def ratio(n):
        return np.where(n < stop - 1, 0.5, 0.0)
    res = sum_one_sided(ratio, 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (stop + 1, False)
    assert res.value == 2.0 - 2.0 ** (1 - stop)
    assert res.est_error == pytest.approx(
        acceleration._ROUNDING * res.value, rel=1e-15)


@pytest.mark.parametrize("slow", [32, 33])
def test_sum_one_sided_turns_slow_at_a_block_edge(slow):
    # halving terms up to term slow - 1, then a ratio of 0.9: the first
    # ratio past 0.75 builds the full budget for the Levin transform
    def ratio(n):
        return np.where(n < slow - 1, 0.5, 0.9)
    res = sum_one_sided(ratio, 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (400, True)
    want = 2.0 - 2.0 ** (1 - slow) + 2.0 ** (1 - slow) * 9.0
    assert abs(res.value - want) < 1e-14 * want


def test_sum_one_sided_builds_past_its_stop_without_warning():
    # the sum stops by decay at term 17, and the terms built past it
    # overflow from term 62 on; the test run makes numpy warnings errors
    res = sum_one_sided(lambda n: np.where(n < 60, 0.1, 1e300), 1.0, 1e-14)
    assert (res.terms_used, res.accelerated) == (18, False)
    assert res.value == pytest.approx(1.0 / 0.9, rel=1e-15)


def _loop_terms(ratio, count):
    """The first ``count`` terms, from 1, of a term-by-term Python loop."""
    t = 1.0 + 0j
    terms = [t]
    for r in ratio(np.arange(count - 1)).tolist():
        t *= r
        terms.append(t)
    return terms


def test_sum_one_sided_rounds_as_a_term_by_term_loop():
    # numpy's running product rounds real and complex steps as Python's *
    # does (its binary complex multiply may not), so a decayed sum is the
    # loop's partial sum bit for bit
    for ratio in (lambda n: -0.7 * (0.3 + n) / (2.6 + n),
                  lambda n: 0.6 * (0.3 + n) / (2.6 + n),
                  lambda n: 0.6 * np.exp(1j * math.pi / 3) * (0.2 + n) / (1.9 + n)):
        res = sum_one_sided(ratio, 1.0, 1e-12)
        assert not res.accelerated
        total = 0j
        for t in _loop_terms(ratio, res.terms_used):
            total += t
        assert res.value == total


@pytest.mark.parametrize("ratio", [
    lambda n: (0.3 + n) / (2.6 + n),
    lambda n: np.exp(1j * math.pi / 3) * (0.2 + n) / (1.9 + n),
], ids=["real", "complex"])
def test_sum_one_sided_hands_levin_the_loop_terms(monkeypatch, ratio):
    # an accelerated side's first Levin window is the whole budget, term
    # for term as the loop builds it
    windows = []

    def record(terms):
        windows.append(np.array(terms))
        return levin_u(terms)
    monkeypatch.setattr(acceleration, "levin_u", record)
    res = sum_one_sided(ratio, 1.0, 1e-12)
    assert (res.terms_used, res.accelerated) == (400, True)
    assert windows[0].tolist() == _loop_terms(ratio, 400)


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
