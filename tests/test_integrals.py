"""Classical Ramanujan-type integrals: quadrature, grid sums, closed forms."""

import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import compare
from rbeta import integrals
from rbeta.acceleration import levin_u
from rbeta.bilateral import HKind, _gamma_ratio, closed_form_H, eval_H
from rbeta.core import Tolerance
from rbeta.errors import ConstraintViolation, MarginViolation, PoleError
from rbeta.gammafns import gamma, log_gamma, recip_gamma
from rbeta.integrals import (BetaKind, IntegrandSpec, barnes_closed,
                             barnes_quadrature, beta_integral_closed,
                             cauchy_cosine_integral,
                             double_integral_open_question,
                             fourier_single_factor,
                             integral_repr_H, integrand_spec_for, integrate,
                             m6_reduced_5h5, poisson_sum_rhs, poisson_terms,
                             weight_gm)
from rbeta.integrals import (_choose_X, _core, _core_lattice,
                             _interval_integrals, _lattice_params,
                             _pair_product,
                             _panels_per_unit, _recip_gamma_error,
                             _sin_product_harmonics,
                             _tail_one_side, _tail_R, _tail_signals,
                             _unit_cell, _unit_lattice)
from rbeta.quadrature import _RULES, tanh_sinh
from rbeta.verify import draw_beta_params

TWO12_OVER_G22 = 2.085125718094681715563  # (2 cos 0)^1.2 / Gamma(2.2), minted


def test_weight_gm_expansions():
    # sin(m pi x)/sin(pi x) as cosine sums, checked pointwise
    for m in range(1, 7):
        terms = weight_gm(m)
        for x in (0.13, 0.77, 1.49, -0.36):
            direct = math.sin(m * math.pi * x) / math.sin(math.pi * x)
            via = sum(c * cmath.exp(1j * f * x) for c, f in terms)
            assert abs(via - direct) < 1e-12


def test_integrate_single_factor_value():
    res = integrate(IntegrandSpec([0.6], [0.6], 0.0))
    assert abs(res.value - TWO12_OVER_G22) < 1e-10
    assert res.est_error < 1e-8
    assert res.panels > 0 and res.truncation_X > 0


def test_integrate_single_factor_fourier(rng):
    for _ in range(6):
        a = rng.uniform(0.15, 1.1)
        b = rng.uniform(0.15, 1.1)
        t = rng.uniform(-0.9 * math.pi, 0.9 * math.pi)
        got = integrate(IntegrandSpec([a], [b], t)).value
        want = fourier_single_factor(a, b, t)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_integrate_beyond_support():
    res = integrate(IntegrandSpec([0.6], [0.6], 3.5))
    assert abs(res.value) < 1e-9


def test_integrate_margin_violation():
    with pytest.raises(MarginViolation):
        integrate(IntegrandSpec([-0.6], [-0.6], 0.0))


def test_ramanujan_all_zero_parameters():
    res = integrate(IntegrandSpec([0.0, 0.0], [0.0, 0.0], 0.0))
    assert abs(res.value - 1.0) < 1e-9


CAUCHY_TOL = Tolerance(rel=1e-9, abs=1e-12)
REPR_TOL = Tolerance(rel=1e-8, abs=1e-10)


def test_cauchy_trivial_and_quadratic():
    lhs, _ = cauchy_cosine_integral(0.0, 0.0)
    assert abs(lhs - math.pi) < 1e-12
    pair = cauchy_cosine_integral(2.0, 0.0)
    assert abs(pair[0] - math.pi / 2) < 1e-10
    assert compare(pair, CAUCHY_TOL).passed


def test_cauchy_complex_delta():
    rec = compare(cauchy_cosine_integral(1.3, 0.4 + 0.1j), CAUCHY_TOL)
    assert rec.passed and rec.rel_gap < 1e-9


def test_cauchy_margin():
    with pytest.raises(MarginViolation):
        cauchy_cosine_integral(-0.95, 0.0)


def test_poisson_sum_equals_integral(rng):
    for m in (1, 2, 3):
        a = [rng.uniform(0.2, 0.8) for _ in range(m)]
        b = [rng.uniform(0.2, 0.8) for _ in range(m)]
        t = rng.uniform(-0.7, 0.7) * m * math.pi
        spec = IntegrandSpec(a, b, t)
        res = integrate(spec)
        for p in (m, m + 1):
            rhs = poisson_sum_rhs(spec, p)
            assert abs(res.value - rhs) <= 1e-8 + 10 * res.est_error


def test_poisson_p_independence(rng):
    a = [rng.uniform(0.2, 0.8) for _ in range(2)]
    b = [rng.uniform(0.2, 0.8) for _ in range(2)]
    spec = IntegrandSpec(a, b, 1.1)
    vals = [poisson_sum_rhs(spec, p) for p in (2, 3, 5, 8)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10


def test_poisson_riemann_large_p(rng):
    # step-refined grid sums stay exactly equal to the integral (p = 4m)
    a = [rng.uniform(0.2, 0.8) for _ in range(2)]
    b = [rng.uniform(0.2, 0.8) for _ in range(2)]
    spec = IntegrandSpec(a, b, 0.9)
    assert abs(poisson_sum_rhs(spec, 8) - integrate(spec).value) < 1e-9


def test_grid_sum_symmetry_lemma(rng):
    # symmetric parameters: S_k(t) = S_{p-k}(-t); also S_k periodicity in k
    a = [rng.uniform(0.2, 0.8) for _ in range(2)]
    spec_p = IntegrandSpec(a, a, 0.9)
    spec_m = IntegrandSpec(a, a, -0.9)
    sp = poisson_terms(spec_p, 3)
    sm = poisson_terms(spec_m, 3)
    assert abs(sp[1] - sm[2]) < 1e-10
    assert abs(sp[2] - sm[1]) < 1e-10


def _grid_sum_direct(spec, k, p):
    """(1/p) sum over l of f(l + k/p) e^(-i(l + k/p) t), 80 terms on each
    end, Levin-accelerated: the grid sum itself, against which its series
    form is checked."""
    def f(x):
        return _pair_product(spec, x) * np.exp(-1j * spec.t * x)

    vp, _ = levin_u(f(np.arange(0, 80) + k / p))
    vn, _ = levin_u(f(np.arange(-1, -81, -1) + k / p))
    return (vp + vn) / p


def test_grid_sum_direct_cross_check(rng):
    a = [rng.uniform(0.3, 0.8) for _ in range(2)]
    b = [rng.uniform(0.3, 0.8) for _ in range(2)]
    spec = IntegrandSpec(a, b, 0.7)
    s = poisson_terms(spec, 3)
    for k in (0, 1, 2):
        direct = _grid_sum_direct(spec, k, 3)
        assert abs(direct - s[k]) < 1e-7


def test_poisson_preconditions():
    spec = IntegrandSpec([0.3, 0.4], [0.3, 0.4], 0.0)
    with pytest.raises(ConstraintViolation):
        poisson_sum_rhs(spec, 1)  # p < m
    with pytest.raises(ConstraintViolation):
        poisson_sum_rhs(IntegrandSpec([0.3], [0.4], 9.0), 2)  # |t| > p pi


def test_transform_vanishes_beyond_support():
    # |t| > m pi: the transform of m factor pairs is zero
    for a, b, ts in (([0.5], [0.6], (math.pi + 0.2, 4.0, 7.0)),
                     ([0.4, 0.5, 0.6], [0.3, 0.4, 0.5], (3 * math.pi + 0.5,))):
        for t in ts:
            assert abs(integrate(IntegrandSpec(a, b, t)).value) <= 1e-8


def test_integral_repr_m1_reduces_to_1h1():
    # unit weight: the plain transform against the single-pair series at -1
    pair = integral_repr_H([0.6], [0.6], 0.0)
    assert compare(pair, REPR_TOL).passed
    want = closed_form_H(HKind.ONE_H1_MINUS_EXP, {"a": -0.6, "b": 1.6, "t": 0.0})
    c0 = 1.0 / (gamma(1.6) * gamma(1.6))
    assert abs(pair[1] - c0 * want) < 1e-12 * abs(want)


def test_integral_repr_t_pi_and_reduced_weight():
    pair = integral_repr_H([0.3, 0.45], [0.2, 0.55], math.pi)
    assert compare(pair, REPR_TOL).passed
    pair = integral_repr_H([0.3, 0.45], [0.2, 0.55], 0.0, weight_order=1)
    assert compare(pair, REPR_TOL).passed


def test_odd_part_cancellation(rng):
    # equal-parameter integrand is even; an odd weight integrates to zero
    c = [rng.uniform(0.2, 0.7) for _ in range(3)]
    spec = IntegrandSpec(c, c, 0.0,
                         ((-0.5j, math.pi), (0.5j, -math.pi)))  # sin(pi x)
    res = integrate(spec)
    assert abs(res.value) < 1e-10


@pytest.mark.parametrize("kind,params", [
    (BetaKind.RAMANUJAN_M2, dict(a1=0.05, a2=0.1, b1=0.02, b2=0.07)),
    (BetaKind.RAMANUJAN_M2, dict(a1=0.7, a2=1.1, b1=0.4, b2=0.9)),
    (BetaKind.RAMANUJAN_M2_COS, dict(a1=0.5, b1=0.3, a2=0.7, b2=0.5)),
    (BetaKind.M3_COS, dict(a=0.2, b1=0.3, b2=0.45, b3=0.6)),
    (BetaKind.M3_PLAIN, dict(c1=0.2, c2=0.35, c3=0.5)),
    (BetaKind.M4_PLAIN, dict(c1=0.2, c2=0.35, c3=0.5, c4=0.15)),
    (BetaKind.M4_VWP, dict(a=0.3, b1=0.2, b2=0.35, b3=0.5)),
    (BetaKind.M4_VWP_SHIFTED, dict(a=0.3, c1=0.2, c2=0.35, c3=0.5)),
    (BetaKind.M5_VWP, dict(a=0.3, b1=0.2, b2=0.35, b3=0.5, b4=0.1)),
    (BetaKind.M5_VWP_SHIFTED, dict(a=0.4, c1=0.2, c2=0.35, c3=0.5, c4=0.1)),
    (BetaKind.M5_VWP_THIRD, dict(c1=0.2, c2=0.35, c3=0.5, c4=0.1)),
    (BetaKind.M6_RIEMANN, dict(a1=0.2, a2=0.3, a3=0.15, a4=0.4, a5=0.25, a6=0.1)),
])
def test_beta_closed_forms_match_quadrature(kind, params):
    want = beta_integral_closed(kind, params)
    got = integrate(integrand_spec_for(kind, params)).value
    # at most 2.4e-15 off but for the small-parameter RamanujanM2 case,
    # whose integrand decays like |x|^-1.24 (1.2e-10 off)
    tol = 2e-9 if params.get("a1") == 0.05 else 1e-12
    assert abs(got - want) <= tol * abs(want)


def test_beta_m3cos_zero_order_parameter():
    # vanishing well-poising shift: plain cosine-weighted value
    params = dict(a=0.0, b1=0.25, b2=0.4, b3=0.55)
    want = beta_integral_closed(BetaKind.M3_COS, params)
    got = integrate(integrand_spec_for(BetaKind.M3_COS, params)).value
    assert abs(got - want) <= 1e-8 * abs(want)


def test_beta_constraint_margin():
    with pytest.raises(ConstraintViolation):
        beta_integral_closed(BetaKind.M3_COS,
                             dict(a=-1.0, b1=0.1, b2=0.1, b3=0.1))


def test_m2cos_requires_constraint():
    with pytest.raises(ConstraintViolation):
        beta_integral_closed(BetaKind.RAMANUJAN_M2_COS,
                             dict(a1=0.5, b1=0.3, a2=0.7, b2=0.6))


def test_m6_alternating_identity(rng):
    params = {f"a{j}": rng.uniform(0.0, 0.6) for j in range(1, 7)}
    s = poisson_terms(integrand_spec_for(BetaKind.M6_RIEMANN, params), 6)
    lhs = 2 * s[0] + 4 * s[2]
    rhs = 2 * s[3] + 4 * s[1]
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_m6_degenerate_reduction(rng):
    params = {f"a{j}": rng.uniform(0.0, 0.6) for j in range(1, 5)}
    spec6, spec5 = m6_reduced_5h5(params)
    assert spec6.p == 6 and spec5.p == 5
    v6 = eval_H(spec6)
    v5 = eval_H(spec5)
    assert abs(v6.value - v5.value) <= 1e-9 + 4 * (v6.est_error + v5.est_error)
    # the reduced series is the very-well-poised kind with leading 2/3
    want = closed_form_H(HKind.VWP_5H5, dict(
        a=2.0 / 3.0, b=1.0 / 3.0 - params["a1"], c=1.0 / 3.0 - params["a2"],
        d=1.0 / 3.0 - params["a3"], e=1.0 / 3.0 - params["a4"]))
    assert abs(v5.value - want) <= max(1e-8, 1e-7 * abs(want))


def test_m6_sixteen_pi_identity(rng):
    # doubled-argument form: integral with the 1/(G(2x)G(-2x)) pair equals
    # 16 pi S_2(0) under the degenerate parameter choice
    a4 = [rng.uniform(0.1, 0.5) for _ in range(4)]
    params = {f"a{j}": a4[j - 1] for j in range(1, 5)}
    params["a5"] = -1.0
    params["a6"] = -0.5
    spec = integrand_spec_for(BetaKind.M6_RIEMANN, params)
    s = poisson_terms(spec, 6)
    assert abs(s[0]) < 1e-15 and abs(s[3]) < 1e-15
    lhs = integrate(IntegrandSpec(
        [-1.0] + a4, [-1.0] + a4, 0.0,
        ((2.0 + 0j, math.pi), (2.0 + 0j, -math.pi)))).value / (4 * math.pi)
    assert abs(lhs - 4 * s[2]) <= 1e-7 * abs(lhs)


def test_barnes_record():
    lhs = barnes_quadrature(0.5, 0.7, 0.6, 0.9)
    rhs = barnes_closed(0.5, 0.7, 0.6, 0.9)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_barnes_quadrature_against_mpmath():
    # Barnes' first lemma evaluated to 30 digits: real draws in the suite's
    # range and complex ones with positive real parts (40 draws of each
    # were at most 1.6e-15 off)
    rng = np.random.default_rng(23)
    draws = ([rng.uniform(0.3, 1.0, 4) for _ in range(4)]
             + [rng.uniform(0.2, 2.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
                for _ in range(4)])
    with mp.workdps(30):
        for vals in draws:
            a, b, c, d = (mp.mpc(complex(v)) for v in vals)
            want = complex(mp.gamma(a + c) * mp.gamma(a + d) * mp.gamma(b + c)
                           * mp.gamma(b + d) / mp.gamma(a + b + c + d))
            got = barnes_quadrature(*vals)
            assert abs(got - want) <= 4e-15 * abs(want), vals


def test_double_integral_open_question():
    lhs, rhs = double_integral_open_question(0.4, 0.55, 0.7)
    assert abs(lhs - rhs) <= 1e-7 * abs(rhs)


def test_grid_sum_periodicity_in_k(rng):
    a = [rng.uniform(0.3, 0.8) for _ in range(2)]
    b = [rng.uniform(0.3, 0.8) for _ in range(2)]
    spec = IntegrandSpec(a, b, 0.6)
    assert abs(_grid_sum_direct(spec, 1, 3) - _grid_sum_direct(spec, 4, 3)) < 1e-8


def test_support_at_exact_edge():
    # the transform vanishes at |t| = m pi itself
    res = integrate(IntegrandSpec([0.5, 0.6], [0.4, 0.7], 2 * math.pi))
    assert abs(res.value) < 1e-8
    params = {f"a{j}": 0.3 for j in range(1, 7)}
    spec6 = integrand_spec_for(BetaKind.M6_RIEMANN, params)
    res = integrate(IntegrandSpec(spec6.a, spec6.b, 6 * math.pi))
    assert abs(res.value) < 1e-7


# -- unit lattice: carried values against direct evaluation -------------------

def _lattice_specs():
    """Integrands over m = 1-6 with real and complex parameters, weights and
    the shifted kinds' a_j = b_j = -1 factor."""
    rng = np.random.default_rng(11)
    specs = []
    for m in range(1, 7):
        a = rng.uniform(-0.4, 1.2, m)
        b = rng.uniform(-0.4, 1.2, m)
        specs.append(IntegrandSpec(a, b, rng.uniform(-1.0, 1.0)))
        specs.append(IntegrandSpec(a + 1j * rng.uniform(-0.6, 0.6, m),
                                   b + 1j * rng.uniform(-1.5, 1.5, m), 0.4,
                                   weight_gm(m)))
    for kind, params in [
            (BetaKind.M4_VWP, dict(a=0.3, b1=0.2, b2=0.35, b3=0.5)),
            (BetaKind.M4_VWP_SHIFTED, dict(a=0.3, c1=0.2, c2=0.35, c3=0.5)),
            (BetaKind.M5_VWP_SHIFTED,
             dict(a=0.4, c1=0.2, c2=0.35, c3=0.5, c4=0.1)),
            (BetaKind.M5_VWP_THIRD, dict(c1=0.2, c2=0.35, c3=0.5, c4=0.1))]:
        specs.append(integrand_spec_for(kind, params))
    # no zero of 1/Gamma near the lattice: carried from the peak rows only
    specs.append(IntegrandSpec([12.0 + 1.5j] * 6, [0.3] * 6, 0.2))
    return specs


def test_core_lattice_matches_direct_pair_product():
    # every node of the core lattice, weight and phase included, against
    # the integrand evaluated directly at that node, at the X that
    # _choose_X picks and at X = 96, which large parameters reach
    for spec in _lattice_specs():
        for X, sub in itertools.product({_choose_X(spec), 96}, (2, 5)):
            x, G, _ = _core_lattice(spec, X, sub)
            assert x.shape == (2 * X, 16 * sub)
            phase = sum(cc * np.exp(1j * (nu - spec.t) * x)
                        for cc, nu in spec.weight_terms())
            got = G * phase
            want = _pair_product(spec, x) * phase
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 5e-14 * scale, (spec, X, sub)


def test_unit_lattice_reanchors_after_a_small_denominator():
    # v(x) = 1/Gamma(x + alpha), carried from 30 rows below its zero: the
    # anchor's argument near -30 is rounded to ulps of 30, the divisor near
    # the zero much more finely, so a value carried past the zero was 3e-14
    # to 6e-14 off; re-anchored after it, within 7e-15
    cells = np.random.default_rng(3).uniform(0.0, 1.0, 60)
    x = np.arange(40.0)[:, None] + cells[None, :]
    for alpha in (-30.3, -30.123456789, -29.87654321):

        def direct(y):
            return recip_gamma(y + alpha)

        def step(y):
            yield np.ones(y.shape, dtype=complex), y + alpha

        v, _ = _unit_lattice(x, direct, step)
        want = direct(x)
        assert (np.abs(v - want)[32:] <= 1.5e-14 * np.abs(want)[32:]).all()


def test_beta_draws_on_the_lattice():
    # draws whose lattice crosses the zeros of 1/Gamma(a_j+1+x) next to the
    # peak; carried from the lattice's first row without re-anchoring, they
    # were 4.6e-15 to 7.7e-14 off the closed forms
    for kind in (BetaKind.M4_VWP_SHIFTED, BetaKind.M6_RIEMANN):
        rng = np.random.default_rng(5)
        for _ in range(4):
            params = draw_beta_params(rng, kind)
            got = integrate(integrand_spec_for(kind, params)).value
            want = beta_integral_closed(kind, params)
            assert abs(got - want) <= 3e-15 * abs(want), (kind, params)


def test_unit_lattice_recomputes_from_underflowed_anchor():
    # v(x) = 10^(11(x - 30)) underflows to 0 on the first row; carried from
    # there, every row would be 0
    x = np.arange(40.0)[:, None] + np.array([[0.25, 0.5]])

    def direct(y):
        return (10.0 ** (11.0 * (y - 30.0))).astype(complex)

    def step(y):
        yield np.full(y.shape, 1e11 + 0j), np.ones(y.shape, dtype=complex)

    v, _ = _unit_lattice(x, direct, step)
    want = direct(x)
    assert np.all(np.abs(v - want) <= 1e-13 * np.abs(want))
    assert v[-1, 0] != 0


def _mp_tail_R(num, den, x) -> complex:
    v = mp.mpf(1)
    for nj, dj in zip(num, den):
        v *= (mp.gamma(mp.mpf(x) - mp.mpc(nj.real, nj.imag))
              / mp.gamma(mp.mpc(dj.real, dj.imag) + 1 + mp.mpf(x)))
    return complex(v)


def test_tail_R_carried_over_all_intervals():
    # R carried across the 48 tail intervals from its first row, at the X
    # that _choose_X picks and at X = 96, against mpmath on two nodes of
    # every interval: each factor of each step adds its rounding, and exp
    # that of log R (largest error 7.3e-14 at m = 6, |a_j| = 12; the
    # log-gamma difference that R used to be evaluated with was up to 3e-13
    # off at X = 96)
    cell, _ = _unit_cell(3)
    for spec in _lattice_specs():
        a, b = _lattice_params(spec)
        for X, (num, den) in itertools.product(
                {_choose_X(spec), 96}, ((b, a), (a, b))):
            x, R, _ = _tail_R(num, den, X, cell)
            assert x.shape == (48, 48)
            for k in range(48):
                for c in (0, 47):
                    want = _mp_tail_R(num, den, x[k, c])
                    tol = 5e-15 * spec.m + 4e-16 * abs(cmath.log(want))
                    assert abs(R[k, c] - want) <= tol * abs(want), (spec, X, k)


def _mp_pair_product(spec, x) -> complex:
    v = mp.mpf(1)
    for aj, bj in zip(spec.a, spec.b):
        v *= (mp.rgamma(mp.mpc(aj.real, aj.imag) + 1 + mp.mpf(x))
              * mp.rgamma(mp.mpc(bj.real, bj.imag) + 1 - mp.mpf(x)))
    return complex(v)


def test_lattice_error_bounds_cover_the_carried_values():
    # each carried value is within its anchor's error bound plus
    # (4m + 2) ulps a step of 40-digit mpmath: the core's pair product on
    # the rows within 6 of its anchors, and the tails' R on every fifth row.
    # Real parameters run in float64, R within the same bound of the
    # complex path on every row
    eps = np.finfo(float).eps
    cell, _ = _unit_cell(2)
    for spec in _lattice_specs():
        X = _choose_X(spec)
        x, G, (order, hops, anchor_rel) = _core_lattice(spec, X, 2)
        run = np.cumsum(hops == 0) - 1
        for r in np.flatnonzero(hops <= 6):
            for c in (0, 17, 31):
                want = _mp_pair_product(spec, x[order[r], c])
                bound = anchor_rel[run[r], c] + (4 * spec.m + 2) * eps * hops[r]
                assert abs(G[order[r], c] - want) <= bound * abs(want), (spec, r)
        a, b = _lattice_params(spec)
        for num, den in ((b, a), (a, b)):
            x, R, (hops, anchor_rel) = _tail_R(num, den, X, cell)
            bound = anchor_rel[0] + (4 * spec.m + 2) * eps * hops[:, None]
            for k in range(0, 48, 5):
                for c in (0, 31):
                    want = _mp_tail_R(num, den, x[k, c])
                    assert abs(R[k, c] - want) <= bound[k, c] * abs(want), (spec, k)
            _, R_complex, _ = _tail_R(np.array(num, dtype=complex),
                                      np.array(den, dtype=complex), X, cell)
            assert R.dtype == np.result_type(*num, *den, float)
            assert (np.abs(R - R_complex) <= bound * np.abs(R_complex)).all()


def test_choose_X_clears_large_parameters():
    # the tails need X >= max|Re param| + 8; capping X at 96 put their
    # log-gammas outside Re z >= 1/2 and left the value 2.1e-10 off
    spec = IntegrandSpec([120.0], [0.3], 0.5)
    res = integrate(spec)
    want = fourier_single_factor(120.0, 0.3, 0.5)
    assert res.truncation_X >= 128
    assert abs(res.value - want) <= 1e-13 * abs(want)
    assert abs(res.value - want) <= res.est_error


def test_integrate_is_finite_for_large_parameters():
    # 1/Gamma(a + 1 + x) and 1/Gamma(b + 1 - x) leave the double range in
    # opposite directions; their product as separate factors was 0 x inf = nan
    for a, b, t in ((170.0, 0.3, 0.0), (0.3, 190.0, 0.0), (160.0, 0.5, 1.0)):
        res = integrate(IntegrandSpec([a], [b], t))
        want = _mp_fourier_single_factor(complex(a), complex(b), t)
        assert abs(res.value - want) <= res.est_error, (a, b, t)
    # a value below the normal range
    res = integrate(IntegrandSpec([200.0], [0.3], 0.0))
    assert res.value.real > 0 and math.isfinite(res.value.real)
    assert math.isfinite(res.est_error)


def test_est_error_covers_values_near_and_below_the_normal_range():
    # at a = 200 the value is subnormal and 8 ulps of sum |f| underflowed:
    # est_error was 0, the value 6.4e-323 off; at a = 190 the gap of
    # 4.9e-309 was covered by 5.0e-309
    for a in (190.0, 200.0):
        res = integrate(IntegrandSpec([a], [0.3], 0.0))
        with mp.workdps(30):
            s = mp.mpf(a) + mp.mpf(0.3)
            gap = abs(mp.mpf(res.value.real) - 2 ** s / mp.gamma(s + 1))
        assert res.value.imag == 0
        assert gap <= res.est_error, (a, float(gap), res.est_error)


def test_core_node_budget_names_the_truncation_point():
    # the core's nodes grow with X = max|Re a_j| + 8 as well as with omega
    with pytest.raises(ConstraintViolation, match=r"X = 40008, needs"):
        integrate(IntegrandSpec([40000.0], [0.3], 0.0))


def test_tails_of_a_tiny_integral_are_kept():
    # the integral is 2.3e-36 and its left tail 2.1e-40: an absolute cutoff
    # of 1e-18 on the tail signals dropped both tails (9.2e-5 off)
    spec = IntegrandSpec([40 + 30j], [0.3], 0.5)
    res = integrate(spec)
    want = fourier_single_factor(40 + 30j, 0.3, 0.5)
    assert abs(res.value - want) <= 1e-8 * abs(want)
    assert abs(res.value - want) <= res.est_error


# -- Gauss panels a unit interval ----------------------------------------------

def _gauss_gap(n, omega, width):
    """|n-point Gauss sum - exact| of e^(i omega x) over [0, width]."""
    x, w = _RULES[n]
    half = 0.5 * width
    got = half * np.sum(w * np.exp(1j * omega * half * (1.0 + x)))
    return abs(got - (cmath.exp(1j * omega * width) - 1.0) / (1j * omega))


def test_panel_rule_resolves_the_fastest_signal():
    # over the suites' frequencies w = m pi + |t| + max|nu|, the one
    # 16-point rule, on the core's panels of w h <= 6 and on the tails' of
    # w h <= 14.85, integrates e^(i w x) over one panel to 1e-15 of its
    # width h (numpy's 20-point nodes and weights were 1.5e-15 h off at
    # w h = pi)
    assert integrals._GAUSS_N == 16
    for omega in np.linspace(math.pi, 12 * math.pi, 45):
        for angle in (integrals._CORE_ANGLE, integrals._TAIL_ANGLE):
            h = 1.0 / _panels_per_unit(omega, angle)
            assert _gauss_gap(16, omega, h) <= 1e-15 * h, (omega, angle)


@pytest.mark.parametrize("kind,params,quarter_wave_gap", [
    (BetaKind.M4_VWP, dict(a=0.3, b1=0.2, b2=0.35, b3=0.5), 3.6e-15),
    (BetaKind.M5_VWP, dict(a=0.4, b1=0.2, b2=0.35, b3=0.5, b4=0.1), 3.3e-15),
    (BetaKind.M5_VWP_THIRD, dict(c1=0.2, c2=0.35, c3=0.5, c4=0.1), 9.7e-16),
])
def test_integrate_beta_kinds_with_the_fastest_signals(kind, params,
                                                       quarter_wave_gap):
    # w = 7 pi, 8 pi and 6 pi, the highest of the beta kinds, within five
    # times the relative gap of quarter-wave panels (2 w / pi a unit interval)
    got = integrate(integrand_spec_for(kind, params)).value
    want = beta_integral_closed(kind, params)
    assert abs(got - want) <= 5.0 * quarter_wave_gap * abs(want)


# -- batched gamma factors and separable tail phases ---------------------------

def test_pair_product_within_its_error_bound_of_mpmath():
    # nodes on both sides of |z| = 8 and on Re z < 1/2, each within the
    # summed _recip_gamma_error bound that _core_lattice charges an anchor,
    # and the shifted kinds' a_j = b_j = -1, whose factors vanish at the
    # integers; for complex parameters and for their real parts, whose
    # product runs in float64 and lies within the same bound of the complex
    # path exp(-sum log_gamma)
    rng = np.random.default_rng(17)
    x = np.arange(-30.0, 31.0)[:, None] + np.array([0.0, 0.13, 0.5, 0.91])
    for m in range(1, 7):
        for shifted in (False, True):
            a = rng.uniform(-0.4, 1.2, m) + 1j * rng.uniform(-1.5, 1.5, m)
            b = rng.uniform(-0.4, 1.2, m) + 1j * rng.uniform(-1.5, 1.5, m)
            if shifted:
                a[0] = b[0] = -1.0
            for spec in (IntegrandSpec(a, b, 0.3),
                         IntegrandSpec(a.real, b.real, 0.3)):
                got = _pair_product(spec, x)
                real = not any(v.imag for v in spec.a + spec.b)
                assert got.dtype == (np.float64 if real else complex), spec
                p = np.array(spec.a + spec.b)[:, None, None] + 1.0
                z = np.concatenate((p[:m] + x, p[m:] - x))
                bound = _recip_gamma_error(p, z).sum(axis=0)
                with mp.workdps(40):
                    want = np.array([[_mp_pair_product(spec, v) for v in row]
                                     for row in x])
                assert (np.abs(got - want) <= bound * np.abs(want)).all(), spec
                with np.errstate(divide="ignore", invalid="ignore"):
                    complex_path = np.exp(-log_gamma(z).sum(axis=0))
                assert (np.abs(got - complex_path)
                        <= bound * np.abs(complex_path)).all(), spec
                assert (got[:, 0] == 0).all() == shifted
    # a_1 = -1 makes the k = 0 grid-sum prefactor exactly 0
    assert poisson_terms(IntegrandSpec([-1.0, 0.4 + 0.3j], [0.7, 0.2 - 0.1j],
                                       0.4), 2)[0] == 0


def _tail_sides(spec):
    """(num, den, frequencies) of the right and the left tail's signals, as
    integrate builds them."""
    for num, den, sign in ((spec.b, spec.a, 1.0), (spec.a, spec.b, -1.0)):
        freqs = [math.pi * h - sign * (spec.t - nu)
                 for _, nu in spec.weight_terms()
                 for h in _sin_product_harmonics(num)]
        yield num, den, np.array(freqs)


def test_sin_product_harmonics_expand_the_product():
    # prod_j sin(pi(x - p_j)) against its harmonics at real and complex x,
    # for m = 1-6 with real and complex p_j: h runs m, m - 2, ..., -m
    rng = np.random.default_rng(19)
    for m in range(1, 7):
        for p in (rng.uniform(-1.2, 1.5, m),
                  rng.uniform(-1.2, 1.5, m) + 1j * rng.uniform(-1, 1, m)):
            harmonics = _sin_product_harmonics(p)
            assert list(harmonics) == list(range(m, -m - 1, -2))
            for x in (0.37, -2.81, 1.3 + 0.2j):
                want = np.prod([cmath.sin(math.pi * (x - pj)) for pj in p])
                got = sum(g * cmath.exp(1j * math.pi * h * x)
                          for h, g in harmonics.items())
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (m, x)


# -- real parameters in float64 -----------------------------------------------

def test_tail_rows_one_per_distinct_frequency():
    # M5VWP: 4 weight terms times 6 harmonics, frequencies pi (h - k) with
    # k = +-1, +-3, so 24 signals on 9 frequencies -8 pi .. 8 pi a side, each
    # row's coefficient the sum of its signals'
    spec = integrand_spec_for(BetaKind.M5_VWP,
                              dict(a=0.4, b1=0.2, b2=0.35, b3=0.5, b4=0.1))
    a, b = _lattice_params(spec)
    for num, den, sign in ((b, a, 1.0), (a, b, -1.0)):
        tau_terms = [(cc, sign * (spec.t - nu)) for cc, nu in spec.weight_terms()]
        harmonics = _sin_product_harmonics(num)
        signals = _tail_signals(harmonics, tau_terms)
        freqs = [w for w, _ in signals]
        assert len(signals) == 9
        assert np.allclose(sorted(freqs), np.arange(-8, 9, 2) * math.pi,
                           rtol=0, atol=1e-14)
        for w, coef in signals:
            parts = [cc * gh for cc, tau in tau_terms
                     for h, gh in harmonics.items()
                     if abs(math.pi * h - tau - w) < 1e-9]
            assert abs(coef - sum(parts)) <= 1e-15 * sum(map(abs, parts))
        seqs, coefs, rounding = _tail_one_side(num, den, tau_terms,
                                               _choose_X(spec), 2)
        assert seqs.shape == (9, 48) and coefs.shape == rounding.shape == (9,)


def test_tail_signals_merge_only_exactly_equal_frequencies():
    # -pi - (-2 pi) is pi exactly in doubles, so that pair joins h = 1 of
    # tau = 0; pi - 1e-300 rounds to pi but is another frequency
    harmonics = {1: 1.0 + 0j, -1: 2.0 + 0j}
    signals = _tail_signals(harmonics, [(1.0 + 0j, 0.0),
                                        (1.0 + 0j, -2.0 * math.pi)])
    assert [w for w, _ in signals] == [math.pi, -math.pi, 3 * math.pi]
    assert [c for _, c in signals] == [3.0, 2.0, 1.0]
    signals = _tail_signals(harmonics, [(1.0 + 0j, 0.0), (1.0 + 0j, 1e-300)])
    assert [w for w, _ in signals] == [math.pi, -math.pi, math.pi, -math.pi]


def integrate_per_signal(spec):
    """integrate with one Levin-summed tail row per (weight term, harmonic)
    signal, as before the rows were merged by frequency."""
    wmax = max((abs(nu) for _, nu in spec.weight_terms()), default=0.0)
    omega = spec.m * math.pi + abs(spec.t) + wmax
    X = _choose_X(spec)
    core, _, _ = _core(spec, X, _panels_per_unit(omega, integrals._CORE_ANGLE))
    cell, weights = _unit_cell(_panels_per_unit(omega, integrals._TAIL_ANGLE))
    tail = 0j
    for num, den, sign in ((spec.b, spec.a, 1.0), (spec.a, spec.b, -1.0)):
        signals = [(math.pi * h - sign * (spec.t - nu), cc * gh)
                   for cc, nu in spec.weight_terms()
                   for h, gh in _sin_product_harmonics(num).items()]
        freqs, coefs = (np.array(v) for v in zip(*signals))
        _, R, _ = _tail_R(num, den, X, cell)
        values, _ = levin_u(_interval_integrals(R, cell, weights, X, freqs).T)
        tail += complex(coefs @ values)
    return core + tail / math.pi ** spec.m


def test_merged_tail_rows_within_est_error_of_per_signal_rows():
    # the weighted beta kinds, weight_gm integrands at t != 0 and
    # doubled-argument-beta's integrand
    rng = np.random.default_rng(29)
    specs = [integrand_spec_for(kind, draw_beta_params(rng, kind))
             for kind in (BetaKind.RAMANUJAN_M2_COS, BetaKind.M3_COS,
                          BetaKind.M4_VWP, BetaKind.M4_VWP_SHIFTED,
                          BetaKind.M5_VWP, BetaKind.M5_VWP_SHIFTED,
                          BetaKind.M5_VWP_THIRD)
             for _ in range(2)]
    specs += [IntegrandSpec(rng.uniform(0.2, 0.9, m), rng.uniform(0.2, 0.9, m),
                            rng.uniform(-0.9, 0.9) * math.pi, weight_gm(m))
              for m in (1, 2, 3)]
    specs.append(IntegrandSpec([-1.0, 0.3, 0.1, 0.45], [-1.0, 0.3, 0.1, 0.45],
                               0.0, ((2.0 + 0j, math.pi), (2.0 + 0j, -math.pi))))
    assert len(specs) == 18
    for spec in specs:
        res = integrate(spec)
        assert abs(res.value - integrate_per_signal(spec)) <= res.est_error, spec


def test_tail_intervals_match_per_node_phases():
    # the factored interval integrals against e^(iwx) taken at every node:
    # both round the phase argument w x to ulps of |w| (X + n + 1), the
    # sums to ulps of sum |R W|
    specs = [integrand_spec_for(BetaKind.M4_VWP,
                                dict(a=0.3, b1=0.2, b2=0.35, b3=0.5)),
             IntegrandSpec([0.7 + 0.2j], [0.45 - 0.1j], 1.3),
             IntegrandSpec([150.0], [0.3], 0.5),
             IntegrandSpec([150.0], [-140.0 + 2j], 2.5)]
    assert {nu for _, nu in specs[0].weight_terms()} == {
        math.pi, -math.pi, 3 * math.pi, -3 * math.pi}
    for spec in specs:
        # the far truncation points stress the phase arguments w x
        X = 158 if spec.a[0] == 150 else 96
        for num, den, freqs in _tail_sides(spec):
            cell, weights = _unit_cell(4)
            x, R, _ = _tail_R(num, den, X, cell)
            got = _interval_integrals(R, cell, weights, X, freqs)
            want = np.stack([(R * np.exp(1j * w * x) * weights).sum(axis=1)
                             for w in freqs], axis=1)
            scale = (np.abs(R) * weights).sum(axis=1)[:, None]
            bound = (1e-15 + 3 * 2.0 ** -53 * np.abs(freqs)[None, :]
                     * (X + 1.0 + np.arange(48))[:, None]) * scale
            # rows whose R is subnormal or 0 keep no relative accuracy;
            # with b = 0.3 and a = 150, R underflows after a few rows
            normal = np.abs(R).min(axis=1) >= 1e-290
            assert normal.all() or spec.b[0] == 0.3
            assert (np.abs(got - want) <= bound)[normal].all(), spec


# -- array calls against the scalar forms they replaced ------------------------

def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(float).tolist()


@pytest.mark.parametrize("spec,X", [
    (IntegrandSpec([2.0, 2.0], [2.0, 2.0], 0.0), 16),
    (IntegrandSpec([1.2, 0.8], [0.9, 1.1], 0.0), 16),
    (IntegrandSpec([0.05, 0.1], [0.02, 0.07], 0.0), 16),
    (IntegrandSpec([0.3 + 0.5j], [0.4 - 2j], 0.5), 16),
    (IntegrandSpec([40.0], [0.3], 0.5), 88),                   # 8 + 2 |a|
    (IntegrandSpec([120.0], [0.3], 0.5), 128),                 # past 96
])
def test_choose_X_follows_the_parameters(spec, X):
    assert _choose_X(spec) == X
    assert integrate(spec).truncation_X == X


def _mp_ramanujan_m2(a1, a2, b1, b2):
    """RamanujanM2's closed form to 40 digits."""
    with mp.workdps(40):
        a1, a2, b1, b2 = (mp.mpf(v) for v in (a1, a2, b1, b2))
        return complex(mp.gamma(a1 + b1 + a2 + b2 + 1)
                       / (mp.gamma(a1 + b1 + 1) * mp.gamma(a1 + b2 + 1)
                          * mp.gamma(a2 + b1 + 1) * mp.gamma(a2 + b2 + 1)))


def _mp_fourier_single_factor(a, b, t):
    """fourier_single_factor to 40 digits."""
    with mp.workdps(40):
        a = mp.mpc(a.real, a.imag)
        b = mp.mpc(b.real, b.imag)
        t = mp.mpf(t)
        return complex((2 * mp.cos(t / 2)) ** (a + b) / mp.gamma(a + b + 1)
                       * mp.exp(-0.5j * t * (b - a)))


@pytest.mark.parametrize("spec,want", [
    # the integrands whose X a search on probes of |f| moved to 46, 96
    # and 96; the Levin-summed tails reach their closed forms from X = 16
    (IntegrandSpec([1.2, 0.8], [0.9, 1.1], 0.0),
     _mp_ramanujan_m2(1.2, 0.8, 0.9, 1.1)),
    (IntegrandSpec([0.05, 0.1], [0.02, 0.07], 0.0),
     _mp_ramanujan_m2(0.05, 0.1, 0.02, 0.07)),
    (IntegrandSpec([0.3 + 0.5j], [0.4 - 2j], 0.5),
     _mp_fourier_single_factor(0.3 + 0.5j, 0.4 - 2j, 0.5)),
], ids=["ramanujan-m2", "ramanujan-m2-small", "fourier-single-factor"])
def test_slowly_decaying_integrands_at_the_first_X(spec, want):
    # est_error covers the gap to the 40-digit closed form by itself: at
    # a = (1.2, 0.8), b = (0.9, 1.1) the quadrature is 8.9e-16 off, against
    # an est_error of 8.1e-15 (4.7e-16 when its roundoff term was
    # 1e-16 |value|)
    res = integrate(spec)
    assert abs(res.value - want) <= res.est_error


def integrate_per_side(spec):
    """integrate with one levin_u call per tail signal."""
    wmax = max((abs(nu) for _, nu in spec.weight_terms()), default=0.0)
    omega = spec.m * math.pi + abs(spec.t) + wmax
    X = _choose_X(spec)
    core, core_err, _ = _core(
        spec, X, _panels_per_unit(omega, integrals._CORE_ANGLE))
    a, b = _lattice_params(spec)
    tails = [_tail_one_side(
                 num, den, [(cc, sign * (spec.t - nu)) for cc, nu in spec.weight_terms()],
                 X, _panels_per_unit(omega, integrals._TAIL_ANGLE))
             for num, den, sign in ((b, a, 1.0), (a, b, -1.0))]
    seqs, coefs, rounding = (np.concatenate(parts) for parts in zip(*tails))
    sums = [levin_u(row) for row in seqs]
    values = np.array([v for v, _ in sums], dtype=complex)
    errs = np.array([e for _, e in sums])
    scale = math.pi ** spec.m
    return (core + complex(coefs @ values) / scale,
            core_err + float(np.abs(coefs) @ (8.0 * errs + rounding)) / scale)


def test_integrate_bit_identical_to_per_side_levin_calls(rng):
    specs = [integrand_spec_for(BetaKind.M4_VWP,
                                dict(a=0.3, b1=0.2, b2=0.35, b3=0.5)),
             integrand_spec_for(BetaKind.RAMANUJAN_M2_COS,
                                dict(a1=0.3, a2=0.5, b1=0.2, b2=0.4)),
             IntegrandSpec([0.05, 0.1], [0.02, 0.07], 0.0),
             # tails whose Levin rows hold tiny and subnormal terms
             IntegrandSpec([40 + 30j], [0.3], 0.5),
             IntegrandSpec([0.3], [40 + 30j], -0.5),
             IntegrandSpec([150.0], [0.3], 0.5)]
    for _ in range(3):
        m = int(rng.integers(1, 4))
        specs.append(IntegrandSpec(
            rng.uniform(-0.2, 1.2, m) + 1j * rng.uniform(-1, 1, m),
            rng.uniform(-0.2, 1.2, m) + 1j * rng.uniform(-1, 1, m),
            rng.uniform(-1.0, 1.0), weight_gm(m)))
    for spec in specs:
        res = integrate(spec)
        value, est = integrate_per_side(spec)
        assert _bits(res.value) == _bits(value), spec
        assert res.est_error == est, spec


def double_integral_nested(b1, b2, b3):
    """The double integral's quadrature with one tanh_sinh call per inner
    integral."""
    def inner(s1):
        def g(s2):
            return ((2 * np.cos(0.5 * s1)) ** (2 * b1)
                    * (2 * np.cos(0.5 * s2)) ** (2 * b2)
                    * np.abs(2 * np.sin(0.5 * (s1 + s2))) ** (2 * b3))
        return tanh_sinh(g, -s1, math.pi, max_level=9)[0]

    return tanh_sinh(lambda s1s: np.array([inner(s) for s in s1s]),
                     -math.pi, math.pi, max_level=8)[0]


def test_double_integral_draws_match_nested_calls():
    # draws in the suite's box: the shared inner nodes agree with one
    # tanh_sinh call per inner integral, and both with the conjectured value
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = rng.uniform(0.2, 0.8, 3)
        lhs, rhs = double_integral_open_question(*b)
        nested = double_integral_nested(*b)
        assert abs(lhs - nested) <= 1e-15 * abs(nested), b
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs), b


@pytest.mark.parametrize("b", [(0.3, 0.25, 0.4), (-0.3, 0.6, -0.2),
                               (0.9, -0.35, 0.05)])
def test_double_integral_as_close_as_nested_calls(b):
    # at negative exponents both quadratures stay 3.4e-7 to 1.6e-5 off
    lhs, rhs = double_integral_open_question(*b)
    assert abs(lhs - rhs) <= 1.1 * abs(double_integral_nested(*b) - rhs)


# -- the batched gamma products keep their poles -------------------------------

def test_gamma_products_raise_at_a_pole():
    # a1 + b1 + 1 = 0 with a positive margin
    with pytest.raises(PoleError):
        beta_integral_closed(BetaKind.RAMANUJAN_M2,
                             dict(a1=-0.5, b1=-0.5, a2=0.5, b2=0.5))
    # a + c = 2e-15 is within the pole window of 0
    with pytest.raises(PoleError):
        barnes_closed(1e-15, 1.0, 1e-15, 1.0)
    # so is a + c = 8e-13: a gamma product's window is _gamma_ratio's 1e-12
    with pytest.raises(PoleError):
        barnes_closed(4e-13, 1.0, 4e-13, 1.0)
    with pytest.raises(PoleError):
        _gamma_ratio([1.5, -2.0, 0.5], [])
    assert _gamma_ratio([1.5, 2.5 + 1j, 3.0], []) == (
        gamma(1.5) * gamma(2.5 + 1j) * gamma(3.0))
