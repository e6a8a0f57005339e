"""Bilateral series: classification, evaluation, transforms, summation
theorems."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from rbeta.bilateral import (BilateralSeriesSpec, ConvergenceKind, HKind,
                             UnilateralSeriesSpec, cancel_matching_parameters,
                             classify, closed_form_H, eval_F, eval_H,
                             reduce_to_unilateral, series_spec_for,
                             symmetry_transform)
from rbeta.acceleration import _ROUNDING, SeriesValue, levin_u
from rbeta.bilateral import _gamma_ratio, _side_kind
from rbeta.core import Tolerance, VerificationRecord
from rbeta.errors import (ConstraintViolation, DivergentError, IllFormedSpec,
                          NotReducible, PoleError)
from rbeta.gammafns import gamma, recip_gamma

# minted with an mpmath brute-force sum before the main build
H_1H1_M2_07_3 = 7.592248305592305555941
BINOM_057_M037 = 1.23119346994708801384


def test_classify_absolute():
    cls = classify(BilateralSeriesSpec([0.1, 0.2], [1.5, 1.3], 1.0))
    assert cls.kind is ConvergenceKind.ABSOLUTELY_CONVERGENT
    assert abs(cls.sigma - (-2.5)) < 1e-14


def test_classify_unequal_lengths_divergent(rng):
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        if p == q:
            q += 1
        c = [complex(rng.uniform(0.05, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(p)]
        d = [complex(rng.uniform(1.1, 2.0), rng.uniform(-0.3, 0.3)) for _ in range(q)]
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        assert classify(BilateralSeriesSpec(c, d, z)).kind is ConvergenceKind.DIVERGENT


def test_classify_terminating():
    cls = classify(BilateralSeriesSpec([-3.0], [1.5], 2.0))
    assert cls.kind is ConvergenceKind.TERMINATES_RIGHT
    assert cls.right_cut == 3


def test_classify_conditional_and_z1_exclusion():
    spec = BilateralSeriesSpec([0.3], [0.9], cmath.exp(0.5j))
    assert classify(spec).kind is ConvergenceKind.CONDITIONALLY_CONVERGENT
    spec1 = BilateralSeriesSpec([0.3], [0.9], 1.0)
    assert classify(spec1).kind is ConvergenceKind.NOT_ON_DOMAIN
    with pytest.raises(DivergentError, match="z = 1"):
        eval_H(spec1)


def test_classify_one_side_terminating_checks_the_other_side():
    # c = 0 ends the right side at n = 0; the infinite left side has
    # argument eps/z and must converge on its own
    for c, d in (([0.0, 0.5], [0.6, 0.7]),   # left terms decay like k^-0.8
                 ([0.0], [0.5])):             # left terms decay like k^-0.5
        spec = BilateralSeriesSpec(c, d, 1.0)
        assert classify(spec).kind is ConvergenceKind.NOT_ON_DOMAIN
        with pytest.raises(DivergentError):
            eval_H(spec)
    # left argument 1/2: sum_k (0.7)_k/k! 2^-k = 2^0.7, the n = 0 term included
    spec = BilateralSeriesSpec([0.0], [0.3], 2.0)
    assert classify(spec).kind is ConvergenceKind.TERMINATES_RIGHT
    assert abs(eval_H(spec).value - 2.0 ** 0.7) < 1e-12


def test_ill_formed_specs():
    with pytest.raises(IllFormedSpec):
        classify(BilateralSeriesSpec([0.3], [-2.0], 1.0))
    with pytest.raises(IllFormedSpec):
        classify(BilateralSeriesSpec([2.0], [1.5], 1.0))


def test_termination_carve_out():
    # right termination at M=3 protects d_j = -4 (pole would hit at n=5);
    # z = 2 puts the infinite left side at argument 1/2, where it converges
    spec = BilateralSeriesSpec([-3.0, 0.2], [-4.0, 1.5], 2.0)
    assert classify(spec).kind is ConvergenceKind.TERMINATES_RIGHT
    # ... but not d_j = -1 (pole at n=2 <= M)
    with pytest.raises(IllFormedSpec):
        classify(BilateralSeriesSpec([-3.0, 0.2], [-1.0, 1.5], 1.0))


def test_eval_trivial_single_survivor():
    for z in (0.5, 2.0, -3.0, 1.0):
        sv = eval_H(BilateralSeriesSpec([0.0], [1.0], z))
        assert abs(sv.value - 1.0) < 1e-14


def test_eval_terminating_right_brute():
    sv = eval_H(BilateralSeriesSpec([-2.0], [0.7], 3.0))
    assert abs(sv.value - H_1H1_M2_07_3) < 1e-12 * H_1H1_M2_07_3


def test_termination_no_acceleration_matches_direct(rng):
    for _ in range(10):
        M = int(rng.integers(1, 6))
        d = rng.uniform(1.2, 2.4)
        z = rng.uniform(1.5, 4.0)
        spec = BilateralSeriesSpec([-float(M)], [d], z)
        sv = eval_H(spec)
        direct = 0j
        for n in range(-60, M + 1):
            t = 1.0 + 0j
            if n >= 0:
                for k in range(n):
                    t *= (-M + k) / (d + k) * z
            else:
                for k in range(1, -n + 1):
                    t *= (d - k) / (-M - k) / z
            direct += t
        assert abs(sv.value - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("kind,params", [
    (HKind.GAUSS_2H2, dict(a=0.1, b=0.2, c=1.4, d=1.6)),
    (HKind.GAUSS_2H2, dict(a=-0.3, b=0.25, c=1.1, d=1.8)),
    (HKind.ONE_H1_MINUS_EXP, dict(a=0.3, b=1.7, t=0.0)),
    (HKind.WELL_POISED_3H3, dict(a=0.4, b=-0.2, c=0.1, d=-0.3)),
    (HKind.VWP_4H4_MINUS1, dict(a=0.5, b=-0.3, c=-0.2, d=-0.4)),
    (HKind.VWP_5H5, dict(a=0.4, b=0.1, c=0.15, d=0.2, e=0.25)),
])
def test_closed_forms_match_series(kind, params):
    want = closed_form_H(kind, params)
    got = eval_H(series_spec_for(kind, params))
    assert abs(got.value - want) <= max(1e-8, 1e-8 * abs(want))


def test_closed_form_exp_arguments():
    params = dict(a=0.2, b=1.9, t=1.1)
    want = closed_form_H(HKind.ONE_H1_MINUS_EXP, params)
    got = eval_H(series_spec_for(HKind.ONE_H1_MINUS_EXP, params))
    assert abs(got.value - want) < 1e-9 * abs(want)
    params = dict(a=0.2, b=1.9, t=2.0)
    want = closed_form_H(HKind.ONE_H1_PLUS_EXP, params)
    got = eval_H(series_spec_for(HKind.ONE_H1_PLUS_EXP, params))
    assert abs(got.value - want) < 1e-9 * abs(want)


def test_one_h1_at_plus_one_is_zero():
    assert closed_form_H(HKind.ONE_H1_PLUS_EXP, dict(a=0.3, b=1.7, t=0.0)) == 0
    sv = eval_H(BilateralSeriesSpec([0.3], [2.1], 1.0))
    assert abs(sv.value) < 1e-9


@pytest.mark.parametrize("kind,t", [
    (HKind.ONE_H1_PLUS_EXP, 0.0),
    (HKind.ONE_H1_PLUS_EXP, 2 * math.pi),
    (HKind.ONE_H1_MINUS_EXP, math.pi),
])
def test_exp_closed_forms_at_z_one(kind, t):
    # the interval ends put the argument at z = 1, where the series needs
    # Re(b - a) > 1 and then sums to 0
    with pytest.raises(ConstraintViolation):
        closed_form_H(kind, dict(a=0.1, b=0.6, t=t))
    with pytest.raises(DivergentError):
        eval_H(series_spec_for(kind, dict(a=0.1, b=0.6, t=t)))
    params = dict(a=0.1, b=1.8, t=t)
    assert closed_form_H(kind, params) == 0
    assert abs(eval_H(series_spec_for(kind, params)).value) < 1e-9


def test_gauss_reduces_to_classical_gauss():
    # a fourth parameter equal to 1 reduces to the one-sided Gauss value
    a, b, c = 0.2, -0.3, 1.7
    lhs = closed_form_H(HKind.GAUSS_2H2, dict(a=a, b=b, c=c, d=1.0))
    rhs = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_constraint_violation():
    with pytest.raises(ConstraintViolation):
        closed_form_H(HKind.GAUSS_2H2, dict(a=0.8, b=0.9, c=1.0, d=1.1))


def test_summation_consistency_draws(rng):
    kinds = [HKind.GAUSS_2H2, HKind.WELL_POISED_3H3, HKind.VWP_5H5]
    for _ in range(15):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind is HKind.GAUSS_2H2:
            a, b = rng.uniform(-0.5, 0.4, 2)
            c, d = rng.uniform(0.8, 1.9, 2)
            if (c + d - a - b - 1) < 0.5:
                continue
            params = dict(a=a, b=b, c=c, d=d)
        elif kind is HKind.WELL_POISED_3H3:
            a = rng.uniform(0.1, 0.8)
            b, c, d = rng.uniform(-0.6, 0.1, 3)
            if (1 + 1.5 * a - b - c - d) < 0.5:
                continue
            params = dict(a=a, b=b, c=c, d=d)
        else:
            a = rng.uniform(0.1, 0.8)
            b, c, d, e = rng.uniform(-0.5, 0.15, 4)
            if (1 + 2 * a - b - c - d - e) < 0.5:
                continue
            params = dict(a=a, b=b, c=c, d=d, e=e)
        want = closed_form_H(kind, params)
        got = eval_H(series_spec_for(kind, params)).value
        assert abs(got - want) <= max(1e-8, 1e-8 * abs(want))


def test_symmetry_transform_shape():
    spec = BilateralSeriesSpec([0.3, 0.4], [1.5, 1.6], 0.5)
    out = symmetry_transform(spec)
    assert out.c == (1 - 1.5, 1 - 1.6)
    assert out.d == (1 - 0.3, 1 - 0.4)
    assert abs(out.z - 2.0) < 1e-15


def test_symmetry_involution(rng):
    for _ in range(10):
        spec = BilateralSeriesSpec(
            rng.uniform(-0.5, 0.5, 2), rng.uniform(1.0, 2.0, 3),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        back = symmetry_transform(symmetry_transform(spec))
        assert np.allclose(back.c, spec.c) and np.allclose(back.d, spec.d)
        assert abs(back.z - spec.z) < 1e-14


def test_symmetry_value_invariance():
    spec = BilateralSeriesSpec([-1.0], [2.0], 2.0)
    v1 = eval_H(spec)
    v2 = eval_H(symmetry_transform(spec))
    assert abs(v1.value - v2.value) <= 1e-12 + v1.est_error + v2.est_error
    spec = BilateralSeriesSpec([0.1, 0.2], [1.6, 1.8], cmath.exp(2.0j))
    v1 = eval_H(spec)
    v2 = eval_H(symmetry_transform(spec))
    assert abs(v1.value - v2.value) <= 1e-8 + v1.est_error + v2.est_error


def test_reduce_to_unilateral_binomial():
    u = reduce_to_unilateral(BilateralSeriesSpec([0.37], [1.0], 0.43))
    fv = eval_F(u)
    assert abs(fv.value - BINOM_057_M037) < 1e-12 * BINOM_057_M037


def test_unilateral_spec_is_hashable_and_sums_from_lists():
    u = UnilateralSeriesSpec([0.3], [1.5], 0.5)
    assert u == UnilateralSeriesSpec((0.3 + 0j,), (1.5 + 0j,), 0.5 + 0j)
    assert hash(u) == hash(UnilateralSeriesSpec((0.3,), (1.5,), 0.5))
    for a, b, z in ((0.3, 1.5, 0.5), (-0.7 + 0.2j, 2.25, -3.0 + 1.0j)):
        want = complex(mp.hyp1f1(mp.mpc(a), mp.mpc(b), mp.mpc(z)))
        got = eval_F(UnilateralSeriesSpec([a], [b], z))
        assert abs(got.value - want) <= 1e-14 * abs(want), (a, b, z)


def test_eval_f_follows_the_side_rule():
    # a = -3 ends the series at n = 3: (1 - 3x + 3x^2 - x^3 at x = 0.4)
    got = eval_F(UnilateralSeriesSpec([-3.0], [], 0.4))
    assert (got.terms_used, got.accelerated) == (4, False)
    assert abs(got.value - 0.6 ** 3) < 1e-15
    # b = -2 zeroes the denominator of term 3 unless the series stops first
    with pytest.raises(IllFormedSpec):
        eval_F(UnilateralSeriesSpec([0.5], [-2.0], 0.3))
    assert eval_F(UnilateralSeriesSpec([-2.0], [-2.0], 0.3)).terms_used == 3
    # 2F1 at z = 1 needs Re(c - a - b) > 0, and 2F0 diverges everywhere
    with pytest.raises(DivergentError):
        eval_F(UnilateralSeriesSpec([0.5, 0.6], [1.05], 1.0))
    with pytest.raises(DivergentError):
        eval_F(UnilateralSeriesSpec([0.5, 0.6], [], 0.1))


def test_reduce_not_reducible():
    with pytest.raises(NotReducible):
        reduce_to_unilateral(BilateralSeriesSpec([0.3], [1.5], 0.5))


def test_cancel_matching_parameters():
    spec = BilateralSeriesSpec([0.25, 5.0 / 6.0], [1.75, 5.0 / 6.0], 1.0)
    out = cancel_matching_parameters(spec)
    assert out.c == (0.25,)
    assert out.d == (1.75,)
    v1 = eval_H(spec)
    v2 = eval_H(out)
    assert abs(v1.value - v2.value) <= 1e-10 + v1.est_error + v2.est_error


def test_tolerance_invariant():
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0, rel=1e-9)
    assert VerificationRecord.compare("t", {}, 1e-13, 0j,
                                      Tolerance(abs=1e-12)).passed


def test_reduce_two_pair_matches_one_sided_sum():
    # a denominator parameter equal to 1 drops to the one-sided series
    spec = BilateralSeriesSpec([0.3, -0.2], [1.4, 1.0], 0.6)
    u = reduce_to_unilateral(spec)
    assert u.a == (0.3, -0.2) and u.b == (1.4,)
    v_bilateral = eval_H(spec)
    v_onesided = eval_F(u)
    assert abs(v_bilateral.value - v_onesided.value) <= (
        1e-11 + v_bilateral.est_error + v_onesided.est_error)


def test_eval_at_zero_argument():
    # no surviving negative terms: fine; otherwise undefined
    sv = eval_H(BilateralSeriesSpec([-2.0], [1.0], 0.0))
    assert sv.value == 1.0
    with pytest.raises(DivergentError):
        eval_H(BilateralSeriesSpec([-2.0], [1.5], 0.0))


def test_eval_h_reports_acceleration():
    # a unit-circle series goes through Levin on both sides, a geometric one
    # on neither; a terminating right side leaves the flag to the left side
    unit = series_spec_for(HKind.ONE_H1_MINUS_EXP, dict(a=0.1, b=0.8, t=1.0))
    assert eval_H(unit).accelerated
    # d = 1 cuts the left side; the right side has ratio about z = 0.5
    assert not eval_H(BilateralSeriesSpec([0.3, 0.4], [1.0, 1.5], 0.5)).accelerated
    left_only = BilateralSeriesSpec([-3.0], [0.4], cmath.exp(0.5j))
    assert classify(left_only).kind is ConvergenceKind.TERMINATES_RIGHT
    assert eval_H(left_only).accelerated


def test_eval_h_est_error_covers_cancelling_terms():
    # c_1 ~ 0 cuts the right side to its first term; the left side's terms
    # reach 1.1e8 and cancel to -36.4, so the sum keeps about 9 digits (the
    # estimate was 3.7e-14 with the error 2.1e-8)
    c = (-4.458460298587766e-15, 2.0789005553818343 + 0.053010765505170365j,
         0.16030995244008217)
    d = (-2.999999999999996, -3.9999999999999325,
         0.030238038716215332 + 0.3628644150690603j)
    z = -1.0983951383747612 - 0.9455850431453033j
    got = eval_H(BilateralSeriesSpec(c, d, z))
    with mp.workdps(50):
        # 1 + sum over k >= 1 of the left side's terms (1 - d)_k/(1 - c)_k z^-k
        t = s = mp.mpc(1)
        for k in range(400):
            t /= mp.mpc(z)
            for dj, cj in zip(d, c):
                t *= (1 - mp.mpc(dj) + k) / (1 - mp.mpc(cj) + k)
            s += t
        gap = abs(got.value - complex(s))
    assert gap <= got.est_error <= 200.0 * gap


def test_conditionally_convergent_accuracy(rng):
    # slowly decaying unit-circle series: est_error stays honest and the
    # accelerated value matches the closed form
    for _ in range(12):
        a = rng.uniform(-0.4, 0.4)
        b = a + rng.uniform(0.15, 0.95)
        t = rng.uniform(-0.85 * math.pi, 0.85 * math.pi)
        params = dict(a=a, b=b, t=t)
        spec = series_spec_for(HKind.ONE_H1_MINUS_EXP, params)
        assert classify(spec).kind is ConvergenceKind.CONDITIONALLY_CONVERGENT
        sv = eval_H(spec)
        want = closed_form_H(HKind.ONE_H1_MINUS_EXP, params)
        assert abs(sv.value - want) <= max(1e-13 * abs(want),
                                           4.0 * sv.est_error)
        assert abs(sv.value - want) <= 1e-9 * abs(want)


def gamma_ratio_scalar(num, den):
    """_gamma_ratio with one scalar gamma or recip_gamma call per factor."""
    out = 1.0 + 0j
    for x in num:
        out *= gamma(complex(x))
    for x in den:
        r = recip_gamma(complex(x))
        if r == 0:
            return 0j
        out *= r
    return out


def test_gamma_ratio_bit_identical_to_scalar_calls(rng):
    for _ in range(200):
        n, d = rng.integers(1, 8, 2)
        num = rng.uniform(-4, 6, n) + 1j * rng.uniform(-2, 2, n) * (rng.random() < 0.5)
        den = rng.uniform(-4, 6, d) + 1j * rng.uniform(-2, 2, d) * (rng.random() < 0.5)
        got, want = _gamma_ratio(num, den), gamma_ratio_scalar(num, den)
        assert (got.real, got.imag) == (want.real, want.imag) or (
            cmath.isnan(got) and cmath.isnan(want)), (num, den)


def test_gamma_ratio_poles():
    # a numerator pole raises, also when a denominator factor is a pole
    with pytest.raises(PoleError):
        _gamma_ratio([1.5, -2.0], [0.5])
    with pytest.raises(PoleError):
        _gamma_ratio([0.5, -1.0 + 1e-13j], [-3.0])
    # a denominator pole gives 0j, also where Gamma(200.5) overflows
    for num in ([200.5, 1.5], [1.5, 200.5 + 1j]):
        got = _gamma_ratio(num, [2.5, -3.0])
        assert got == 0j and not math.copysign(1.0, got.real) < 0


# -- the side rule against the former per-side scalar code -------------------
#
# classify_oracle and eval_h_oracle are the former classification and
# evaluation: cuts and validity per parameter list, and one Python loop per
# side and per term.  The library now describes each side once, as
# (num, den, w, cut), and builds a side's terms with numpy, whose complex
# arithmetic rounds differently from Python's in the last bit.

_INT_EPS = 1e-12


def _int_le0(x):
    k = round(x.real)
    return int(k) if k <= 0 and abs(x - k) <= _INT_EPS else None


def _int_ge1(x):
    k = round(x.real)
    return int(k) if k >= 1 and abs(x - k) <= _INT_EPS else None


def classify_oracle(spec):
    """(kind, right_cut, left_cut) of the former classify."""
    right = min((-k for k in map(_int_le0, spec.c) if k is not None), default=None)
    left = min((k - 1 for k in map(_int_ge1, spec.d) if k is not None), default=None)
    for dj in spec.d:
        k = _int_le0(dj)
        if k is not None and (right is None or 1 - k <= right):
            raise IllFormedSpec(dj)
    for cj in spec.c:
        k = _int_ge1(cj)
        if k is not None and (left is None or k <= left):
            raise IllFormedSpec(cj)
    sides = []
    if right is None:
        sides.append(_side_kind(spec.p, spec.q, spec.z, spec.sigma))
    if left is None:
        w = (-1.0) ** (spec.p - spec.q) / spec.z if spec.z != 0 else math.inf
        sides.append(_side_kind(spec.q, spec.p, w, spec.sigma))
    kind = next((k for k in (ConvergenceKind.DIVERGENT,
                             ConvergenceKind.NOT_ON_DOMAIN,
                             ConvergenceKind.CONDITIONALLY_CONVERGENT)
                 if k in sides), ConvergenceKind.ABSOLUTELY_CONVERGENT)
    if kind not in (ConvergenceKind.DIVERGENT, ConvergenceKind.NOT_ON_DOMAIN):
        if right is not None:
            kind = (ConvergenceKind.TERMINATES_BOTH if left is not None
                    else ConvergenceKind.TERMINATES_RIGHT)
        elif left is not None:
            kind = ConvergenceKind.TERMINATES_LEFT
    return kind, right, left


def sum_one_sided_oracle(ratio, first, tol_abs, max_terms):
    """The former sum_one_sided: one scalar ratio call per term.  Also
    returns the terms it built."""
    terms = [complex(first)]
    if first == 0:
        return SeriesValue(0j, 0.0, 1, False), terms
    total = complex(first)
    n = 0
    while n + 1 < max_terms:
        r = ratio(n)
        t = terms[-1] * r
        terms.append(t)
        total += t
        n += 1
        if abs(t) < max(1e-30, 1e-17 * max(1.0, abs(total))) and n >= 6:
            rr = abs(r)
            tail = abs(t) * rr / (1.0 - rr) if rr < 1 else abs(t)
            return SeriesValue(total, tail + _ROUNDING * sum(map(abs, terms)),
                               n + 1, False), terms
        if n >= 8 and abs(r) > 0.75:
            break
    else:
        r = abs(ratio(n))
        tail = abs(terms[-1]) * (r / (1.0 - r) if r < 1 else 1.0)
        return SeriesValue(total, tail + _ROUNDING * sum(map(abs, terms)),
                           n + 1, False), terms
    while len(terms) < max_terms:
        terms.append(terms[-1] * ratio(len(terms) - 1))
    best_val, best_err = complex(np.sum(terms)), math.inf
    for off in (0, 24, 96, max_terms - 60):
        if off < 0 or len(terms) - off < 16:
            continue
        val, err = levin_u(terms[off:])
        val += complex(np.sum(terms[:off])) if off else 0.0
        if err < best_err:
            best_val, best_err = val, err
        if best_err <= tol_abs:
            break
    return SeriesValue(best_val, best_err + _ROUNDING * sum(map(abs, terms)),
                       len(terms), True), terms


def eval_h_oracle(spec, tol=Tolerance(abs=1e-12, rel=1e-10)):
    """The former eval_H: right terms by ratios up from n = 0, left terms
    by ratios down from n = -1, each side its own scalar loop.  Also returns
    the sum of the moduli of the terms it built, the scale of its rounding."""
    kind, right, left = classify_oracle(spec)
    c, d, z = spec.c, spec.d, spec.z
    if kind in (ConvergenceKind.DIVERGENT, ConvergenceKind.NOT_ON_DOMAIN):
        raise DivergentError(kind.value)
    if z == 0 and left != 0:
        raise DivergentError("negative-index terms undefined at z = 0")

    def up(n):
        num, den = z, 1.0 + 0j
        for cj in c:
            num *= cj + n
        for dj in d:
            den *= dj + n
        return num / den

    def down(k):
        # from index -k to -(k + 1)
        num, den = 1.0 + 0j, z
        for dj in d:
            num *= dj - k - 1
        for cj in c:
            den *= cj - k - 1
        return num / den

    def first_left():
        t = 1.0 + 0j
        for dj in d:
            t *= dj - 1
        for cj in c:
            t /= cj - 1
        return t / z

    tol_abs = max(tol.abs, tol.rel, 1e-15)
    parts, terms = [], []
    if right is not None:
        total = t = 1.0 + 0j
        terms.append(t)
        for n in range(right):
            t *= up(n)
            total += t
            terms.append(t)
        parts.append(SeriesValue(total, _ROUNDING * sum(map(abs, terms)),
                                 right + 1, False))
    else:
        sv, built = sum_one_sided_oracle(up, 1.0 + 0j, tol_abs, 400)
        parts.append(sv)
        terms += built
    if left is not None:
        total = 0j
        built = []
        if left >= 1:
            total = t = first_left()
            built.append(t)
            for k in range(1, left):
                t *= down(k)
                total += t
                built.append(t)
        parts.append(SeriesValue(total, _ROUNDING * sum(map(abs, built)), left,
                                 False))
        terms += built
    else:
        sv, built = sum_one_sided_oracle(lambda k: down(k + 1), first_left(),
                                         tol_abs, 400)
        parts.append(sv)
        terms += built
    value = SeriesValue(sum(s.value for s in parts), sum(s.est_error for s in parts),
                        sum(s.terms_used for s in parts),
                        any(s.accelerated for s in parts))
    return value, sum(map(abs, terms))


def _draw_param(rng):
    """A parameter: near an integer in [-4, 4] (within 1e-13) a fifth of
    the time, else a real or complex number in the unit-ish box."""
    if rng.random() < 0.2:
        return complex(int(rng.integers(-4, 5)) + rng.uniform(-1e-13, 1e-13),
                       rng.uniform(-1e-13, 1e-13) * (rng.random() < 0.5))
    return complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.5, 0.5) * (rng.random() < 0.5))


def _draw_spec(rng):
    p = int(rng.integers(1, 4))
    q = p if rng.random() < 0.8 else int(rng.integers(1, 4))
    u = rng.random()
    if u < 0.4:
        z = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    elif u < 0.5:
        z = complex(rng.choice([1.0, -1.0]))
    elif u < 0.75:
        z = cmath.rect(rng.uniform(0.1, 0.8), rng.uniform(-math.pi, math.pi))
    else:
        z = cmath.rect(rng.uniform(1.25, 5.0), rng.uniform(-math.pi, math.pi))
    return BilateralSeriesSpec([_draw_param(rng) for _ in range(p)],
                               [_draw_param(rng) for _ in range(q)], z)


def test_classify_matches_oracle(rng):
    kinds = set()
    for _ in range(3000):
        spec = _draw_spec(rng)
        try:
            want = classify_oracle(spec)
        except IllFormedSpec:
            with pytest.raises(IllFormedSpec):
                classify(spec)
            kinds.add("ill-formed")
            continue
        cls = classify(spec)
        assert (cls.kind, cls.right_cut, cls.left_cut) == want, spec
        kinds.add(cls.kind)
    assert kinds == set(ConvergenceKind) | {"ill-formed"}


def test_eval_h_matches_oracle(rng):
    # values are compared relative to the sum of the terms' moduli, the
    # scale of their rounding: terminating and geometric sides to 1e-14.
    # Near z = 1 the Levin transform is ill-conditioned: last-bit changes in
    # its terms move its value by about its own estimate, which there is
    # itself too small (ROADMAP item 6); so a Levin value is held to 1e-9
    # where the oracle's estimate is below 1e-10 of that scale.
    counts = {"exact": 0, "levin": 0, "levin-unresolved": 0}
    for _ in range(1500):
        spec = _draw_spec(rng)
        try:
            want, scale = eval_h_oracle(spec)
        except (IllFormedSpec, DivergentError) as exc:
            with pytest.raises(type(exc)):
                eval_H(spec)
            continue
        got = eval_H(spec)
        assert (got.terms_used, got.accelerated) == (
            want.terms_used, want.accelerated), spec
        if not want.accelerated:
            counts["exact"] += 1
            assert abs(got.value - want.value) <= 1e-14 * scale, spec
            assert got.est_error == pytest.approx(want.est_error, rel=1e-6, abs=1e-300)
        elif want.est_error <= 1e-10 * scale:
            counts["levin"] += 1
            assert abs(got.value - want.value) <= 1e-9 * scale, spec
        else:
            counts["levin-unresolved"] += 1
    assert counts["exact"] >= 100 and counts["levin"] >= 100, counts
