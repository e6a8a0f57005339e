"""Closed forms raise ConstraintViolation exactly where the convergence
conditions printed with their theorems fail.

The library decides validity from the object each theorem sums: the
bilateral series' classification (H), the integrand's integrability margin
(beta) and the basic series' annulus (q).  The printed conditions below are
the oracle those checks must agree with, on random real and complex draws.
"""

import cmath
import math

import pytest

import rbeta.bilateral as bilateral
import rbeta.integrals as integrals
import rbeta.qseries as qseries
from rbeta.bilateral import HKind, SeriesValue, closed_form_H
from rbeta.errors import ConstraintViolation
from rbeta.integrals import BetaKind, beta_integral_closed
from rbeta.qseries import QKind, closed_form_q

N_DRAWS = 2000


@pytest.fixture(autouse=True)
def _values_stubbed(monkeypatch):
    """Only the validity checks are under test: the gamma ratios, products
    and series values behind the closed forms are all replaced by 1."""
    def one(*args, **kwargs):
        return 1.0 + 0j
    monkeypatch.setattr(bilateral, "_gamma_ratio", one)
    monkeypatch.setattr(integrals, "gamma", one)
    monkeypatch.setattr(integrals, "_gamma_ratio", one)
    monkeypatch.setattr(integrals, "eval_H",
                        lambda *args: SeriesValue(1.0 + 0j, 0.0, 1, False))
    monkeypatch.setattr(integrals, "poisson_terms",
                        lambda spec, p, tol=None: [1.0 + 0j] * p)
    monkeypatch.setattr(qseries, "log_qpoch_ratio", lambda *args: 0j)


def _param(rng, is_complex, lo=-1.5, hi=1.5):
    re = rng.uniform(lo, hi)
    return complex(re, rng.uniform(-1.0, 1.0)) if is_complex else re


def _agrees(evaluate, params, printed_holds):
    try:
        evaluate(params)
    except ConstraintViolation:
        return not printed_holds
    return printed_holds


def _check_kind(rng, draw, evaluate, printed, n=N_DRAWS):
    holds = 0
    for i in range(n):
        params = draw(rng, i % 2 == 1)
        ok = printed(params)
        holds += ok
        assert _agrees(evaluate, params, ok), params
    # both sides of the condition are exercised
    assert 0.05 * n < holds < 0.95 * n


def _one_h1_draw(t_lo, t_hi, ends, a=None):
    def draw(rng, is_complex):
        p = {"a": _param(rng, is_complex) if a is None else a}
        p["b"] = p["a"] + _param(rng, is_complex)
        # one draw in five sits at an end of the t interval, where z = 1
        p["t"] = (ends[int(rng.integers(0, 2))] if rng.uniform() < 0.2
                  else rng.uniform(t_lo, t_hi))
        return p
    return draw


def _one_h1_printed(ends):
    def printed(p):
        need = 1.0 if p["t"] in ends else 0.0
        return (p["b"] - p["a"]).real > need
    return printed


def _h_draw(names, fixed=None, lo=-1.5, hi=1.5):
    def draw(rng, is_complex):
        p = {k: _param(rng, is_complex, lo, hi) for k in names}
        p.update(fixed or {})
        return p
    return draw


def _balanced_draw(lo=-1.5, hi=1.5):
    # a1 - b1 = a2 - b2, as TWO_H2_MINUS1 and RAMANUJAN_M2_COS require
    def draw(rng, is_complex):
        p = _h_draw(("a1", "b1", "b2"), lo=lo, hi=hi)(rng, is_complex)
        p["a2"] = p["a1"] - p["b1"] + p["b2"]
        return p
    return draw


def _gauss(p):
    return (p["c"] + p["d"] - p["a"] - p["b"] - 1).real > 0


def _well_poised(p):
    return (1 + 1.5 * p["a"] - p["b"] - p["c"] - p["d"]).real > 0


MINUS_ENDS = (-math.pi, math.pi)
PLUS_ENDS = (0.0, 2 * math.pi)

H_CASES = {
    "1h1-minus-exp": (HKind.ONE_H1_MINUS_EXP,
                      _one_h1_draw(-math.pi, math.pi, MINUS_ENDS),
                      _one_h1_printed(MINUS_ENDS)),
    "1h1-plus-exp": (HKind.ONE_H1_PLUS_EXP,
                     _one_h1_draw(0.0, 2 * math.pi, PLUS_ENDS),
                     _one_h1_printed(PLUS_ENDS)),
    "2h2-gauss": (HKind.GAUSS_2H2, _h_draw("abcd"), _gauss),
    "2h2-minus1": (HKind.TWO_H2_MINUS1, _balanced_draw(),
                   lambda p: (p["a1"] + p["a2"] + p["b1"] + p["b2"] + 2).real > 0),
    "3h3": (HKind.WELL_POISED_3H3, _h_draw("abcd"), _well_poised),
    "4h4": (HKind.VWP_4H4_MINUS1, _h_draw("abcd"), _well_poised),
    "5h5": (HKind.VWP_5H5, _h_draw("abcde"),
            lambda p: (1 + 2 * p["a"] - p["b"] - p["c"] - p["d"] - p["e"]).real > 0),
    # one side terminates: a = -1 ends the right side, d = 2 the left one
    "2h2-gauss-a-minus1": (HKind.GAUSS_2H2, _h_draw("bcd", {"a": -1.0}), _gauss),
    "2h2-gauss-d-2": (HKind.GAUSS_2H2, _h_draw("abc", {"d": 2.0}), _gauss),
    "1h1-minus-exp-a-minus2": (HKind.ONE_H1_MINUS_EXP,
                               _one_h1_draw(-math.pi, math.pi, MINUS_ENDS, a=-2.0),
                               _one_h1_printed(MINUS_ENDS)),
}


@pytest.mark.parametrize("case", list(H_CASES))
def test_h_closed_form_validity_matches_printed_condition(case, rng):
    kind, draw, printed = H_CASES[case]
    _check_kind(rng, draw, lambda p: closed_form_H(kind, p), printed)


def _names(prefix, n):
    return [f"{prefix}{j}" for j in range(1, n + 1)]


def _sum(p, prefix):
    return sum(v for k, v in p.items() if k.startswith(prefix))


BETA_CASES = {
    BetaKind.RAMANUJAN_M2: (["a1", "a2", "b1", "b2"],
                            lambda p: (_sum(p, "a") + _sum(p, "b") + 1).real > 0),
    BetaKind.RAMANUJAN_M2_COS: (("a1", "a2", "b1", "b2"),
                                lambda p: (_sum(p, "a") + _sum(p, "b") + 1).real > 0),
    BetaKind.M3_COS: (["a"] + _names("b", 3),
                      lambda p: (1 + 1.5 * p["a"] + _sum(p, "b")).real > 0),
    BetaKind.M3_PLAIN: (_names("c", 3), lambda p: (1 + _sum(p, "c")).real > 0),
    BetaKind.M4_PLAIN: (_names("c", 4), lambda p: (_sum(p, "c") + 1.5).real > 0),
    BetaKind.M4_VWP: (["a"] + _names("b", 3),
                      lambda p: (3 * p["a"] + 2 * _sum(p, "b") + 1).real > 0),
    BetaKind.M4_VWP_SHIFTED: (["a"] + _names("c", 3),
                              lambda p: (_sum(p, "c") + 0.5).real > 0),
    BetaKind.M5_VWP: (["a"] + _names("b", 4),
                      lambda p: (1 + 2 * p["a"] + _sum(p, "b")).real > 0),
    BetaKind.M5_VWP_SHIFTED: (["a"] + _names("c", 4),
                              lambda p: (1 + _sum(p, "c")).real > 0),
    BetaKind.M5_VWP_THIRD: (_names("c", 4), lambda p: (1 + _sum(p, "c")).real > 0),
    BetaKind.M6_RIEMANN: (_names("a", 6), lambda p: (_sum(p, "a") + 2.5).real > 0),
}


@pytest.mark.parametrize("kind", list(BETA_CASES))
def test_beta_closed_form_validity_matches_margin(kind, rng):
    names, printed = BETA_CASES[kind]
    draw = (_balanced_draw(-1.0, 0.5) if kind is BetaKind.RAMANUJAN_M2_COS
            else _h_draw(names, lo=-1.0, hi=0.5))
    _check_kind(rng, draw, lambda p: beta_integral_closed(kind, p), printed)


def _modulus_draw(rng, is_complex, lo, hi):
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    if is_complex:
        return r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return r if rng.uniform() < 0.5 else -r


def _q_1psi1(rng, is_complex):
    return {"q": rng.uniform(0.1, 0.8), "a": _param(rng, is_complex),
            "b": _param(rng, is_complex),
            "z": _modulus_draw(rng, True, 0.01, 2.0)}


def _q_6psi6(rng, is_complex):
    p = {k: _modulus_draw(rng, is_complex, 0.2, 2.0) for k in "abcde"}
    p["q"] = rng.uniform(0.1, 0.8)
    return p


def _q_binomial(rng, is_complex):
    return {"q": rng.uniform(0.1, 0.8), "alpha": _param(rng, is_complex),
            "beta": _param(rng, is_complex),
            "z": _modulus_draw(rng, is_complex, 0.05, 2.0)}


Q_CASES = {
    QKind.RAMANUJAN_1PSI1: (
        _q_1psi1,
        lambda p: abs(p["q"] ** (p["b"] - p["a"])) < abs(p["z"]) < 1.0),
    QKind.BAILEY_6PSI6: (
        _q_6psi6,
        lambda p: abs(p["q"] * p["a"] ** 2) < abs(p["b"] * p["c"] * p["d"] * p["e"])),
    QKind.Q_BINOMIAL_RATIO_LIMIT: (_q_binomial, lambda p: 0 < abs(p["z"]) <= 1),
}


@pytest.mark.parametrize("kind", list(Q_CASES))
def test_q_closed_form_validity_matches_printed_annulus(kind, rng):
    draw, printed = Q_CASES[kind]

    def evaluate(p):
        params = {k: v for k, v in p.items() if k != "q"}
        return closed_form_q(kind, params, p["q"])

    _check_kind(rng, draw, evaluate, printed)
