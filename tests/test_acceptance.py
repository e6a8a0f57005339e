"""Acceptance criteria: every identity family at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
enforces the stated runtime budget.
"""

import cmath
import math
import time

import numpy as np

from conftest import compare
from rbeta.bilateral import (BilateralSeriesSpec, HKind, closed_form_H,
                             eval_H, series_spec_for, symmetry_transform)
from rbeta.core import Tolerance
from rbeta.gammafns import dilog, gamma, pochhammer, recip_gamma
from rbeta.integrals import (BetaKind, IntegrandSpec, beta_integral_closed,
                             integrand_spec_for, integrate, poisson_sum_rhs)
from rbeta.qintegrals import (QBetaKind, QIntegrandSpec, h44_integral_value,
                              limit_constant, limit_constant_target,
                              q_fourier_closed, q_integrate, qbeta_family)
from rbeta.qseries import (QKind, QtoOnePath, closed_form_q,
                           eval_psi, lemma_qpoch_log_gap, psi_spec_for, qpoch,
                           qpoch_inf, qpoch_inf_asymptotic,
                           theorem21_limit_probe)


def _criterion(n, desc, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {n:>2}: {desc}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"criterion {n} exceeded budget: {dt:.1f}s > {budget_s}s"
    print(f"PASS criterion {n:>2}: {desc} [{dt:.1f}s]")


def test_criterion_01_ramanujan_beta_integral():
    rng = np.random.default_rng(101)

    def body():
        for i in range(10):
            scale = 0.08 if i < 2 else 1.2  # include slow-decay draws
            a1, a2, b1, b2 = rng.uniform(0.0, scale, 4)
            assert a1 + a2 + b1 + b2 + 2.0 > 1.2
            params = dict(a1=a1, a2=a2, b1=b1, b2=b2)
            want = beta_integral_closed(BetaKind.RAMANUJAN_M2, params)
            got = integrate(integrand_spec_for(BetaKind.RAMANUJAN_M2, params)).value
            assert abs(got - want) <= 1e-8 * abs(want), (params, abs(got - want))

    _criterion(1, "beta integral of two reciprocal gamma pairs, 10 draws, "
               "rel 1e-8", 5.0, body)


def test_criterion_02_grid_sum_equals_integral():
    rng = np.random.default_rng(102)

    def body():
        for m in (1, 2, 3):
            for p in (m, m + 1):
                for _ in range(5):
                    a = rng.uniform(0.15, 0.9, m)
                    b = rng.uniform(0.15, 0.9, m)
                    t = float(rng.uniform(-0.85, 0.85)) * m * math.pi
                    spec = IntegrandSpec(a, b, t)
                    res = integrate(spec)
                    rhs = poisson_sum_rhs(spec, p)
                    combined = 1e-9 + 20.0 * res.est_error
                    assert abs(res.value - rhs) <= max(combined, 5e-9), (
                        m, p, t, abs(res.value - rhs), res.est_error)

    _criterion(2, "integral equals its grid sums for m in {1,2,3}, "
               "p in {m, m+1}, 5 frequencies each", 60.0, body)


def test_criterion_03_single_pair_series_values():
    rng = np.random.default_rng(103)

    def body():
        for _ in range(10):
            a = rng.uniform(-0.8, 0.3)
            b = a + rng.uniform(1.6, 3.0)
            sv = eval_H(BilateralSeriesSpec([a], [b], 1.0))
            assert abs(sv.value) <= 1e-9, (a, b, abs(sv.value))
            want = closed_form_H(HKind.ONE_H1_MINUS_EXP, dict(a=a, b=b, t=0.0))
            got = eval_H(BilateralSeriesSpec([a], [b], -1.0)).value
            assert abs(got - want) <= 1e-8 * abs(want), (a, b)

    _criterion(3, "single-pair series vanishes at +1 (abs 1e-9) and matches "
               "the gamma form at -1 (rel 1e-8), 10 draws", 30.0, body)


def _draw_constrained(rng, kind):
    while True:
        if kind is HKind.GAUSS_2H2:
            a, b = rng.uniform(-0.5, 0.45, 2)
            c, d = rng.uniform(0.7, 1.9, 2)
            if (c + d - a - b - 1) >= 0.5:
                return dict(a=a, b=b, c=c, d=d)
        elif kind is HKind.WELL_POISED_3H3:
            a = rng.uniform(0.1, 0.8)
            b, c, d = rng.uniform(-0.6, 0.2, 3)
            if (1 + 1.5 * a - b - c - d) >= 0.5:
                return dict(a=a, b=b, c=c, d=d)
        elif kind is HKind.VWP_4H4_MINUS1:
            a = rng.uniform(0.1, 0.8)
            b, c, d = rng.uniform(-0.6, 0.1, 3)
            if (1 + 1.5 * a - b - c - d) >= 1.5:
                return dict(a=a, b=b, c=c, d=d)
        else:
            a = rng.uniform(0.1, 0.8)
            b, c, d, e = rng.uniform(-0.5, 0.15, 4)
            if (1 + 2 * a - b - c - d - e) >= 0.5:
                return dict(a=a, b=b, c=c, d=d, e=e)


def test_criterion_04_summation_theorems():
    rng = np.random.default_rng(104)

    def body():
        for kind in (HKind.GAUSS_2H2, HKind.WELL_POISED_3H3,
                     HKind.VWP_4H4_MINUS1, HKind.VWP_5H5):
            for _ in range(20):
                params = _draw_constrained(rng, kind)
                want = closed_form_H(kind, params)
                got = eval_H(series_spec_for(kind, params)).value
                assert abs(got - want) <= max(1e-8, 1e-8 * abs(want)), (
                    kind, params, abs(got - want) / abs(want))

    _criterion(4, "two/three/four/five-pair summation theorems, 20 draws "
               "each, rel 1e-8", 120.0, body)


def test_criterion_05_beta_integral_theorems():
    rng = np.random.default_rng(105)
    kinds_m_le4 = (BetaKind.M3_COS, BetaKind.M3_PLAIN, BetaKind.M4_PLAIN,
                   BetaKind.M4_VWP, BetaKind.M4_VWP_SHIFTED)
    kinds_m_ge5 = (BetaKind.M5_VWP, BetaKind.M5_VWP_SHIFTED,
                   BetaKind.M5_VWP_THIRD, BetaKind.M6_RIEMANN)

    def draw(kind):
        from rbeta.verify import draw_beta_params
        return draw_beta_params(rng, kind)

    def body():
        for kind in kinds_m_le4:
            for _ in range(10):
                params = draw(kind)
                want = beta_integral_closed(kind, params)
                got = integrate(integrand_spec_for(kind, params)).value
                assert abs(got - want) <= 1e-7 * abs(want), (kind, params)
        for kind in kinds_m_ge5:
            for _ in range(10):
                params = draw(kind)
                want = beta_integral_closed(kind, params)
                got = integrate(integrand_spec_for(kind, params)).value
                assert abs(got - want) <= 1e-6 * abs(want), (kind, params)

    _criterion(5, "order-3..6 beta integrals vs closed forms, 10 draws "
               "each, rel 1e-7 (1e-6 above order 4)", 600.0, body)


def test_criterion_06_basic_series_summations():
    rng = np.random.default_rng(106)

    def body():
        for _ in range(20):
            q = float(rng.choice([0.3, 0.5, 0.8]))
            a = rng.uniform(-0.5, 0.5)
            b = a + rng.uniform(0.7, 2.0)
            zlo = q ** (b - a)
            z = (rng.uniform(zlo + 0.05 * (1 - zlo), 0.95)
                 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            params = dict(a=a, b=b, z=z)
            want = closed_form_q(QKind.RAMANUJAN_1PSI1, params, q)
            got = eval_psi(psi_spec_for(QKind.RAMANUJAN_1PSI1, params, q)).value
            assert abs(got - want) <= 1e-9 * abs(want), ("1psi1", params, q)
        for _ in range(20):
            q = float(rng.choice([0.3, 0.5, 0.8]))
            params = {k: rng.uniform(1.2, 1.7) for k in "bcde"}
            params["a"] = rng.uniform(0.2, 0.5)
            want = closed_form_q(QKind.BAILEY_6PSI6, params, q)
            got = eval_psi(psi_spec_for(QKind.BAILEY_6PSI6, params, q)).value
            assert abs(got - want) <= 1e-9 * abs(want), ("6psi6", params, q)

    _criterion(6, "bilateral basic summations (single-pair and very-well-"
               "poised six), 20 draws each, rel 1e-9", 30.0, body)


def test_criterion_07_basic_to_classical_limit():
    rng = np.random.default_rng(107)

    def body():
        for _ in range(5):
            m = int(rng.integers(1, 3))
            alpha = [rng.uniform(0.05, 0.4) for _ in range(m)]
            beta = [a + (2.2 + rng.uniform(0.0, 0.8)) / m for a in alpha]
            sigma = sum(beta) - sum(alpha)
            assert sigma >= 2.0
            path = QtoOnePath(alpha, beta, 0.5 * sigma,
                              cmath.exp(1j * rng.uniform(0.4, 5.9)),
                              (0.9, 0.99, 0.999))
            gaps = [g for _, g in theorem21_limit_probe(path)]
            assert gaps[0] > gaps[1] > gaps[2], gaps
            assert gaps[2] < 1e-2, gaps

    _criterion(7, "deformed-to-classical series limit: strictly decreasing "
               "gaps, final below 1e-2, 5 draws", 60.0, body)


def test_criterion_08_q_fourier_transforms():
    rng = np.random.default_rng(108)

    def body():
        for i in range(10):
            q = float(rng.choice([0.31, 0.47, 0.62, 0.78]))
            a = rng.uniform(1.7, 3.2)
            b = rng.uniform(0.1, 0.5)
            w = rng.uniform(0.8, 1.25)
            if i < 3:
                lo, hi = math.log(b / w), math.log(a / w)
                t = complex(rng.uniform(-1.5, 1.5),
                            rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
            else:
                t = float(rng.uniform(-1.5, 1.5))
            sp = QIntegrandSpec(q, [a], [b], [w], t)
            got = q_integrate(sp).value
            want = q_fourier_closed(sp)
            assert abs(got - want) <= 1e-7 * abs(want), (q, a, b, w, t)

    _criterion(8, "q-deformed Fourier transform vs product form, 10 draws "
               "with 3 off-axis frequencies, rel 1e-7", 60.0, body)


def test_criterion_09_product_asymptotic_bound():
    rng = np.random.default_rng(109)

    def body():
        for _ in range(10):
            a = rng.uniform(0.1, 0.85) * cmath.exp(1j * rng.uniform(0.3, 5.9))
            for u in (0.1, 0.05, 0.025):
                measured = lemma_qpoch_log_gap(a, u)
                bound = qpoch_inf_asymptotic(a, 0.0, u).error_bound
                assert measured <= bound, (a, u, measured, bound)

    _criterion(9, "infinite-product log asymptotic inside its explicit "
               "error bound, exact, 10 draws x 3 steps", 60.0, body)


def test_criterion_10a_qbeta_quadrature():
    rng = np.random.default_rng(110)

    def body():
        draws = {
            QBetaKind.I_FULL: lambda: {"alpha": rng.uniform(0.6, 1.3),
                                       **{k: rng.uniform(0.2, 0.5) for k in "abcd"}},
            QBetaKind.I_D0: lambda: {"alpha": rng.uniform(0.6, 1.3),
                                     **{k: rng.uniform(0.2, 0.6) for k in "abc"}},
            QBetaKind.I_C0: lambda: {"alpha": rng.uniform(0.6, 1.3),
                                     **{k: rng.uniform(0.2, 0.7) for k in "ab"}},
        }
        for kind, make in draws.items():
            for q in (0.4, 0.7):
                for _ in range(2):
                    tol = Tolerance(rel=1e-6, abs=1e-12)
                    rec = compare(qbeta_family(kind, make(), q), tol)
                    assert rec.passed, (kind, q, rec.rel_gap)

    _criterion("10a", "q-beta integrals vs product forms at q in {0.4, 0.7}, "
               "rel 1e-6", 300.0, body)


def test_criterion_10b_h44_consistency_with_shifted_form():
    rng = np.random.default_rng(111)

    def body():
        for _ in range(4):
            cs = [rng.uniform(0.05, 0.5) for _ in range(3)]
            want = h44_integral_value(*cs)
            m4c = beta_integral_closed(
                BetaKind.M4_VWP_SHIFTED,
                dict(a=1.0 / 3.0, c1=cs[0], c2=cs[1], c3=cs[2]))
            assert abs(math.sqrt(3.0) / 4.0 * want - m4c) <= 1e-4 * abs(m4c)
            spec = IntegrandSpec([-1.0] + cs, [-1.0] + cs, 0.0,
                                 ((2.0 + 0j, math.pi), (2.0 + 0j, -math.pi)))
            got = integrate(spec).value
            assert abs(got - want) <= 1e-4 * abs(want)
        # extrapolating the prefactor sequence through q = 0.999 also lands
        # on the limit value well inside 1e-4
        alpha = 1.0 / 3.0
        target = limit_constant_target(alpha)
        u2, u3 = -math.log(0.99), -math.log(0.999)
        l2, l3 = limit_constant(0.99, alpha), limit_constant(0.999, alpha)
        extrap = (l3 * u2 - l2 * u3) / (u2 - u3)
        assert abs(extrap - target) <= 1e-4 * abs(target)

    _criterion("10b", "doubled-argument beta value consistent with the "
               "shifted very-well-poised form at a = 1/3, rel 1e-4", 300.0, body)


def test_criterion_10c_limit_constant_raw_gap_at_0999():
    rng = np.random.default_rng(112)

    def body():
        alpha = 0.2
        target = limit_constant_target(alpha)
        qs = (0.9, 0.99, 0.999)
        values = [limit_constant(q, alpha) for q in qs]
        gaps = [abs(v - target) / abs(target) for v in values]
        assert gaps[0] > gaps[1] > gaps[2], gaps
        # The eta-function form of log(q;q)_inf gives, with u = log(1/q),
        #   limit_constant = target * e^((2a^2 - a) u) * u / (1 - q)
        # up to a factor 1 + O(e^(-4 pi^2 / u)).  Checking that form pins
        # both the limit and the first-order rate.
        for q, v in zip(qs, values):
            u = math.log(1.0 / q)
            exact = (target * cmath.exp((2 * alpha ** 2 - alpha) * u)
                     * u / (1 - q))
            assert abs(v - exact) <= 1e-8 * abs(target), (q, abs(v - exact))
        # The raw gap is (2a^2 - a + 1/2) u + O(u^2) >= 3u/8 for real alpha,
        # so the stated raw rel <= 1e-4 at q = 0.999 cannot be met.
        assert gaps[2] >= 0.375 * math.log(1.0 / 0.999), gaps[2]

    _criterion("10c", "q-to-1 prefactor matches its exact finite-q form "
               "within 1e-8 at q = 0.9, 0.99, 0.999; raw gap >= 3u/8",
               60.0, body)


def test_criterion_11_property_suites():
    rng = np.random.default_rng(113)

    def body():
        # gamma reflection on a random box
        for _ in range(100):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            lhs = recip_gamma(z) * recip_gamma(1 - z)
            rhs = cmath.sin(math.pi * z) / math.pi
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
        # shifted-factorial two-sided identity
        for _ in range(50):
            c = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            for n in range(-30, 31, 5):
                assert abs(pochhammer(c, n) * pochhammer(1 - c, -n)
                           - (-1.0) ** n) < 1e-10
        # symmetry transform invariance
        for _ in range(5):
            spec = BilateralSeriesSpec(
                rng.uniform(0.0, 0.4, 2), rng.uniform(1.3, 2.0, 2),
                cmath.exp(1j * rng.uniform(0.4, 5.9)))
            v1 = eval_H(spec)
            v2 = eval_H(symmetry_transform(spec))
            assert abs(v1.value - v2.value) <= 1e-8 + 4 * (v1.est_error + v2.est_error)
        # dual negative-index product formulas
        for _ in range(20):
            q = rng.uniform(0.15, 0.9)
            a = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            n = int(rng.integers(1, 21))
            lhs = qpoch(a, q, -n)
            rhs = q ** (0.5 * n * (n + 1)) / ((-a) ** n * qpoch(q / a, q, n))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        # triple product
        for _ in range(10):
            q = rng.uniform(0.2, 0.8)
            w = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
            lhs = sum(q ** (0.5 * n * (n - 1)) * w ** n for n in range(-80, 81))
            rhs = qpoch_inf(q, q) * qpoch_inf(-w, q) * qpoch_inf(-q / w, q)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        # dilogarithm pair identity
        for t in np.linspace(-math.pi, math.pi, 20):
            lhs = dilog(-cmath.exp(-1j * t)) + dilog(-cmath.exp(1j * t))
            assert abs(lhs - (t * t / 2 - math.pi ** 2 / 6)) < 1e-11
        # sampled product inequalities
        for _ in range(20):
            s = rng.uniform(0.2, 2.0)
            tpar = rng.uniform(-2.0, 2.0)
            q = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 51))
            K = abs(gamma(complex(s)) / gamma(complex(s, tpar)))
            lhs = abs(qpoch(cmath.exp(complex(s, tpar) * math.log(q)), q, n))
            assert lhs <= K * abs(qpoch(q ** s, q, n)) * (1 + 1e-10)
            beta = rng.uniform(0.1, 1.5)
            alph = beta + rng.uniform(0.0, 1.5)
            lhs = (qpoch(q ** alph, q, n) / qpoch(q ** beta, q, n)).real
            rhs = (pochhammer(alph, n) / pochhammer(beta, n)).real
            assert lhs <= rhs * (1 + 1e-10)
        # compact support and odd-part cancellation
        for m in (1, 3):
            a = rng.uniform(0.2, 0.8, m)
            b = rng.uniform(0.2, 0.8, m)
            res = integrate(IntegrandSpec(a, b, m * math.pi + 0.4))
            assert abs(res.value) < 1e-8
        c = [rng.uniform(0.2, 0.7) for _ in range(3)]
        res = integrate(IntegrandSpec(c, c, 0.0,
                                      ((-0.5j, math.pi), (0.5j, -math.pi))))
        assert abs(res.value) < 1e-9

    _criterion(11, "property suites (reflection, two-sided factorials, "
               "symmetry, dual products, triple product, dilogarithm pair, "
               "sampled inequalities, support and oddness)", 60.0, body)
