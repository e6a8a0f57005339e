"""q-deformed integrals: Gaussian-product quadrature, closed forms, kernels,
and the q->1 probes."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import compare
from rbeta.core import Tolerance
from rbeta.errors import (AnnulusViolation, DomainError, StripViolation,
                          ToleranceNotReached)
from rbeta.gammafns import gamma, gaussian_q_integral
from rbeta.integrals import BetaKind, IntegrandSpec, beta_integral_closed, integrate
import rbeta.qintegrals as qintegrals
from rbeta.qintegrals import (QBetaKind, QIntegrandSpec, _geometric_truncation,
                              _PROBE_OFFSETS, _tail_bound, _trim_truncation,
                              abel_poisson_psi,
                              abel_psi_target, h44_integral_value, h_of_q,
                              h_of_q_probe, h_of_q_target, limit_constant,
                              limit_constant_target, q_fourier_closed,
                              q_integrate, qbeta_family, qbeta_gamma_form,
                              qbeta_psi_consistency)
from rbeta.qseries import QKind, closed_form_q

QBETA_TOL = Tolerance(rel=1e-6, abs=1e-12)


def test_q_fourier_plain(rng):
    for _ in range(5):
        q = float(rng.choice([0.31, 0.47, 0.62]))
        sp = QIntegrandSpec(q, [rng.uniform(1.7, 3.2)], [rng.uniform(0.1, 0.5)],
                            [rng.uniform(0.8, 1.25)], 0.0)
        got = q_integrate(sp).value
        want = q_fourier_closed(sp)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_q_fourier_complex_t_in_strip():
    sp = QIntegrandSpec(0.4, [2.6], [0.3], [1.1], 0.5 + 0.3j)
    got = q_integrate(sp).value
    want = q_fourier_closed(sp)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_q_fourier_closed_near_q_one():
    # the whole integrand lies below q_integrate's absolute tolerance of
    # 1e-12 (it peaks near 1e-19 around x = -20), so its quadrature says
    # nothing here; the reference is a 30-digit mpmath quadrature of the
    # integrand over [-80, 80]
    sp = QIntegrandSpec(0.98, [2.0], [0.3], [0.8], 0.3)
    want = complex(-3.05208587553951200814677297363e-18,
                   -9.11491608753882849204213590503e-19)
    assert abs(q_fourier_closed(sp) - want) <= 1e-12 * abs(want)


def test_q_fourier_strip_violation():
    base = QIntegrandSpec(0.4, [2.6], [0.3], [1.1], 0.0 + 4.0j)
    with pytest.raises(StripViolation):
        q_integrate(base)


def test_truncation_raises_when_the_tail_never_decays():
    # a flat log-magnitude keeps the tail estimate at 49 however far X goes
    with pytest.raises(ToleranceNotReached):
        _geometric_truncation(lambda x: 0.0, 0.5, 1e-12)
    assert _geometric_truncation(lambda x: -x, 0.5, 1e-12) > 4.0


def test_qbeta_truncation_trimmed_to_where_the_integrand_ends(monkeypatch):
    # suite seed 4's q-beta record: the stepping rule alone truncates the
    # left tail at X = 869.9, where the log-magnitude is -48 by X = 20
    params = dict(alpha=0.6664723990647077, a=0.4598527275084561,
                  b=0.36919666068951484, c=0.3380431161592862,
                  d=0.49901533708047435)
    seen = []
    quad = qintegrals.q_quadrature

    def probe(*args):
        res = quad(*args)
        seen.append(res.truncation_X)
        return res
    monkeypatch.setattr(qintegrals, "q_quadrature", probe)
    value, product = qbeta_family(QBetaKind.I_FULL, params, 0.7)
    assert len(seen) == 1 and seen[0] <= 20.0
    # the value integrated out to X = 869.9
    assert abs(value - 80.62729676841414) <= 1e-12 * 80.62729676841414
    assert compare((value, product), QBETA_TOL).passed


@pytest.mark.parametrize("log_mag,ratio", [
    (lambda x: -x * x, 0.5),
    (lambda x: -x * math.log(2.0), 0.5),
])
@pytest.mark.parametrize("tol_abs", [1e-12, 1e-6])
def test_trimmed_truncation_is_the_first_passing_unit(log_mag, ratio, tol_abs):
    def passes(X):
        lm = [log_mag(X - d) for d in _PROBE_OFFSETS]
        return _tail_bound(lm, ratio)[0] < tol_abs

    stepped = _geometric_truncation(log_mag, ratio, tol_abs)
    X = _trim_truncation(log_mag, stepped, ratio, tol_abs)
    assert 4.0 < X <= stepped
    assert passes(X) and not passes(X - 1.0)


def test_q_integrate_annulus_violation():
    with pytest.raises(AnnulusViolation):
        q_integrate(QIntegrandSpec(0.5, [0.5], [0.3], [1.0], 0.0))


def test_q_fourier_degenerate_is_gaussian():
    # b -> 0, a -> infinity leaves the bare Gaussian-power integrand; the
    # residual finite-parameter correction scales like 1/a
    q, w = 0.55, 1.2
    sp = QIntegrandSpec(q, [1e14], [1e-15], [w], 0.0)
    got = q_integrate(sp).value
    want = gaussian_q_integral(q, w)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_abel_kernel_r0_is_plain_integral():
    sp = QIntegrandSpec(0.5, [2.2, 2.5], [0.2, 0.3], [1.0, 0.9], 0.7)
    seq = abel_poisson_psi(sp, [0.0])
    plain = q_integrate(sp)
    assert abs(seq[0][1] - plain.value) <= 1e-10 * abs(plain.value)


def test_abel_kernel_monotone_to_psi():
    sp = QIntegrandSpec(0.5, [2.2, 2.5], [0.2, 0.3], [1.0, 0.9], 0.7)
    target = abel_psi_target(sp)
    seq = abel_poisson_psi(sp, [0.9, 0.99, 0.999])
    gaps = [abs(v - target) for _, v in seq]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4 * abs(target)


def test_abel_kernel_m1_limit_is_1psi1():
    q = 0.5
    a, b, w, t = 2.2, 0.27, 1.0, 0.4
    sp = QIntegrandSpec(q, [a], [b], [w], t)
    target = abel_psi_target(sp)
    seq = abel_poisson_psi(sp, [0.999])
    assert abs(seq[0][1] - target) <= 1e-3 * abs(target)
    # and the target itself factors through the 1psi1 product formula:
    # prefactor (b;q)(q/a;q) times the summed series at z = -e^{-it} w/a
    from rbeta.qseries import QSeriesSpec, eval_psi, qpoch_inf
    z = -cmath.exp(-1j * t) * w / a
    num = [q, b / a, a * z, q / (a * z)]
    den = [b, q / a, z, b / (a * z)]
    prod = 1.0 + 0j
    for x in num:
        prod *= qpoch_inf(x, q)
    for x in den:
        prod /= qpoch_inf(x, q)
    closed = qpoch_inf(b, q) * qpoch_inf(q / a, q) * prod
    assert abs(target - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("kind,params", [
    (QBetaKind.I_FULL, dict(alpha=1.0, a=0.3, b=0.3, c=0.3, d=0.3)),
    (QBetaKind.I_FULL, dict(alpha=0.9, a=0.25, b=0.4, c=0.35, d=0.3)),
    (QBetaKind.I_D0, dict(alpha=1.0, a=0.35, b=0.45, c=0.3)),
    (QBetaKind.I_C0, dict(alpha=0.8, a=0.35, b=0.45)),
    (QBetaKind.I_3PSI6, dict(alpha=0.8, a=0.55)),
    (QBetaKind.I_2PSI6, dict(alpha=0.9)),
])
def test_qbeta_quadrature(kind, params):
    for q in (0.4, 0.7):
        rec = compare(qbeta_family(kind, params, q), QBETA_TOL)
        assert rec.passed, f"{kind} q={q}: rel={rec.rel_gap:.2e}"
        assert rec.rel_gap <= 1e-7


def test_qbeta_full_constraint():
    from rbeta.errors import ConstraintViolation
    with pytest.raises(ConstraintViolation):
        qbeta_family(QBetaKind.I_FULL,
                     dict(alpha=1.0, a=2.0, b=2.0, c=2.0, d=2.0), 0.7)


@pytest.mark.parametrize("kind,params", [
    (QBetaKind.I_FULL, dict(alpha=1.0, a=0.3, b=0.3, c=0.3, d=0.3)),
    (QBetaKind.I_D0, dict(alpha=1.0, a=0.35, b=0.45, c=0.3)),
    (QBetaKind.I_C0, dict(alpha=0.8, a=0.35, b=0.45)),
    (QBetaKind.I_3PSI6, dict(alpha=0.8, a=0.55)),
    (QBetaKind.I_2PSI6, dict(alpha=0.9)),
])
def test_qbeta_psi_representations(kind, params):
    rec = compare(qbeta_psi_consistency(kind, params, 0.5),
                  Tolerance(rel=1e-9, abs=1e-12))
    assert rec.passed and rec.rel_gap <= 1e-10


def test_qbeta_psi_rep_uses_bailey_form():
    # the four-parameter representation is the very-well-poised summable case
    params = dict(alpha=1.0, a=0.3, b=0.35, c=0.4, d=0.45)
    q = 0.5
    yv = [params[k] for k in "abcd"]
    A = q ** 0.5
    bailey = closed_form_q(QKind.BAILEY_6PSI6, dict(
        a=A, b=-1j * q ** 0.25 / yv[0], c=-1j * q ** 0.25 / yv[1],
        d=-1j * q ** 0.25 / yv[2], e=-1j * q ** 0.25 / yv[3]), q)
    from rbeta.qseries import QSeriesSpec, eval_psi
    q14, q54 = q ** 0.25, q ** 1.25
    spec = QSeriesSpec(q, [q54, -q54] + [-1j * q14 / y for y in yv],
                       [q14, -q14] + [1j * q54 * y for y in yv],
                       q * yv[0] * yv[1] * yv[2] * yv[3])
    got = eval_psi(spec).value
    assert abs(got - bailey) <= 1e-10 * abs(bailey)


def test_qbeta_gamma_forms():
    rec = compare(qbeta_gamma_form(QBetaKind.I_D0,
                                   dict(alpha=0.2, a=0.15, b=0.25, c=0.35), 0.5),
                  QBETA_TOL)
    assert rec.passed and rec.rel_gap < 1e-9
    rec = compare(qbeta_gamma_form(QBetaKind.I_FULL,
                                   dict(alpha=0.2, a=0.15, b=0.25, c=0.35, d=0.2),
                                   0.5), QBETA_TOL)
    assert rec.passed and rec.rel_gap < 1e-9


def test_limit_constant_sequence():
    alpha = 0.2
    target = limit_constant_target(alpha)
    gaps = [abs(limit_constant(q, alpha) - target) / abs(target)
            for q in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-4


def test_limit_constant_log_space_at_extreme_q():
    # the triple Euler product underflows doubles near q = 1; the log-space
    # route must stay finite
    v = limit_constant(0.9995, 0.3)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_h_of_q_targets():
    alpha, beta = 1.3, 2.4
    # t = 0 target
    want0 = 2.0 ** (alpha + beta - 2.0) / gamma(alpha + beta - 1.0)
    assert abs(h_of_q_target(alpha, beta, 0.0) - want0) < 1e-14
    gaps = [abs(h_of_q(q, alpha, beta, 0.0) - want0) for q in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2
    # t = pi and beyond-support: limits vanish
    for t in (math.pi, 1.5 * math.pi):
        assert h_of_q_target(alpha, beta, t) == 0
        vals = [abs(h_of_q(q, alpha, beta, t)) for q in (0.9, 0.99, 0.999)]
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[2] < 1e-4


def test_h_of_q_probe_shape():
    probes = h_of_q_probe(1.2, 2.3, 0.5, (0.9, 0.99))
    assert [q for q, _ in probes] == [0.9, 0.99]
    with pytest.raises(DomainError):
        h_of_q(0.9, 0.9, 2.4, 0.0)


def test_h44_value_consistency():
    # doubled-argument integral value against quadrature and against the
    # shifted very-well-poised closed form at the one-third point
    cs = (0.25, 0.4, 0.1)
    want = h44_integral_value(*cs)
    spec = IntegrandSpec([-1.0] + list(cs), [-1.0] + list(cs), 0.0,
                         ((2.0 + 0j, math.pi), (2.0 + 0j, -math.pi)))
    got = integrate(spec).value
    assert abs(got - want) <= 1e-8 * abs(want)
    m4c = beta_integral_closed(BetaKind.M4_VWP_SHIFTED,
                               dict(a=1.0 / 3.0, c1=cs[0], c2=cs[1], c3=cs[2]))
    assert abs(math.sqrt(3.0) / 4.0 * want - m4c) <= 1e-12 * abs(m4c)


def test_limit_constant_matches_mpmath():
    # the same formula at 40 digits; u = -log q keeps the 1/u terms exact
    # enough as q -> 1
    for q in (0.9, 0.99, 0.999):
        with mp.workdps(40):
            qm = mp.mpf(q)
            u = -mp.log(qm)
            log_qq = mp.log(mp.qp(qm, qm))
            for alpha in (0.2, 0.3 + 0.1j):
                al = mp.mpc(alpha)
                lg = (mp.log(2 * mp.pi) / 2 + (al - mp.mpf(1) / 8) * mp.log(qm)
                      + 2 * mp.log(-1j * mp.power(qm, al)) ** 2 / u
                      - mp.log(1 - qm) - mp.log(u) / 2 - 3 * log_qq)
                want = complex(-1j * mp.exp(lg))
                got = limit_constant(q, alpha)
                assert abs(got - want) <= 1e-11 * abs(want), (q, alpha)
