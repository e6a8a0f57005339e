"""Bilateral series: classification, evaluation, transforms, summation
theorems."""

import cmath
import math

import numpy as np
import pytest

from rbeta.bilateral import (BilateralSeriesSpec, ConvergenceKind, HKind,
                             cancel_matching_parameters, classify,
                             closed_form_H, eval_F, eval_H,
                             reduce_to_unilateral, series_spec_for,
                             symmetry_transform)
from rbeta.bilateral import _gamma_ratio
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
