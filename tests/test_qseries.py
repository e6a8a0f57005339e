"""q-shifted factorials, q-gamma, bilateral basic series and their limits."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from rbeta.errors import (BranchCutError, DomainError, OutsideAnnulus,
                          PoleError)
from rbeta.gammafns import gamma
from rbeta.qseries import (QKind, QSeriesSpec, QtoOnePath, closed_form_q,
                           eval_psi, lemma_qpoch_log_gap, psi_spec_for,
                           q_binomial_ratio_target, q_gamma, qpoch, qpoch_inf,
                           qpoch_inf_asymptotic, log_qpoch_inf,
                           log_qpoch_lattice, theorem21_limit_probe)

# minted with a 200-factor product at 40 digits
QQ_INF_HALF = 0.2887880950866024212788997
POCH03_INF_HALF = 0.5101178266339875718322722


def test_qpoch_trivials():
    assert qpoch(0.3 + 0.2j, 0.5, 0) == 1
    assert abs(qpoch(0.3, 0.5, -1) - 1.0 / (1.0 - 0.6)) < 1e-15


def test_qpoch_negative_dual_formula(rng):
    for _ in range(40):
        q = rng.uniform(0.15, 0.9)
        a = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
        n = int(rng.integers(1, 21))
        lhs = qpoch(a, q, -n)
        rhs = q ** (0.5 * n * (n + 1)) / ((-a) ** n * qpoch(q / a, q, n))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_qpoch_dual_formula_specific():
    lhs = qpoch(0.3, 0.5, -5)
    rhs = 0.5 ** 15 / ((-0.3) ** 5 * qpoch(0.5 / 0.3, 0.5, 5))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_qpoch_pole():
    with pytest.raises(PoleError):
        qpoch(0.5, 0.5, -1)  # a = q


def test_qpoch_inf_values():
    assert qpoch_inf(0.0, 0.5) == 1
    assert abs(qpoch_inf(0.5, 0.5) - QQ_INF_HALF) < 1e-14
    assert abs(qpoch_inf(0.3, 0.5) - POCH03_INF_HALF) < 1e-14


def test_qpoch_inf_vs_mpmath(rng):
    for _ in range(25):
        q = rng.uniform(0.1, 0.9)
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        want = complex(mp.qp(complex(a), q))
        assert abs(qpoch_inf(a, q) - want) <= 1e-12 * max(1.0, abs(want))


def test_log_qpoch_inf_scalar_vs_array():
    q = 0.73
    cs = np.array([0.4 + 0.1j, -1.3, 2.7 - 0.4j])
    arr = log_qpoch_inf(cs, q)
    for c, got in zip(cs, arr):
        want = log_qpoch_inf(complex(c), q)
        assert abs(cmath.exp(got) - cmath.exp(want)) <= 1e-12 * abs(cmath.exp(want))


def _mp_log_qpoch(c, q):
    """Sum over k of the principal log(1 - c q^k), as an mpmath number at
    the working precision: the leading factors one at a time until
    |c q^K| <= 1/2, then the rest as -sum_n (c q^K)^n / (n (1 - q^n))."""
    c, q = mp.mpc(c), mp.mpf(q)
    s = mp.mpc(0)
    while abs(c) > 0.5:
        s += mp.log(1 - c)
        c *= q
    n, cn, qn = 0, mp.mpc(1), mp.mpf(1)
    while abs(cn) > mp.mpf(10) ** -30:
        n += 1
        cn *= c
        qn *= q
        s -= cn / (n * (1 - qn))
    return s


def test_log_qpoch_inf_scalar_vs_mpmath():
    # The scalar path keeps this bound up to q = 0.999.  The array kernel
    # does not: for c = q = 0.999 as a one-element array it is 7.8e-11 off,
    # so scalar c must not be sent through it.
    for q in (0.9, 0.99, 0.999):
        for c in (q, 0.3 + 0.2j, -q ** 0.3, 0.95):
            want = complex(_mp_log_qpoch(c, q))
            got = log_qpoch_inf(c, q)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (q, c)


def _branch_gap(got, want):
    """|got - want| with the imaginary part taken mod 2 pi: the sums are
    any-branch logarithms."""
    d = complex(got - want)
    return abs(complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi))


@pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
@pytest.mark.parametrize("s", [1, -1])
def test_log_qpoch_lattice_matches_scalar_and_mpmath(q, s):
    # rows -12..12 in three columns, with |c| on either side of 1; every
    # chain with |c| > 1 crosses 1 on its way to the cut.  Measured
    # worst over these nodes: 1.4e-15 max(1, |value|) off the scalar sum and
    # 1.9e-15 off a 35-digit mpmath sum
    x = 1.0 / 3.0 + np.arange(-12, 13.0)[:, None] + np.arange(3)[None, :] / 3.0
    lq = math.log(q)
    for c0, o in ((0.7 + 0.3j, 0.5), (3.0 - 1.5j, 1.0), (-2.0, 0.25 + 0.1j),
                  (0.2j, 0.0)):
        got = log_qpoch_lattice([(c0, o, s)], q, x)
        for (i, j), g in np.ndenumerate(got):
            c = c0 * cmath.exp((o + s * x[i, j]) * lq)
            scalar = log_qpoch_inf(c, q)
            scale = max(1.0, abs(scalar))
            assert _branch_gap(g, scalar) <= 4e-15 * scale, (c0, x[i, j])
            if i % 4 == 0:
                with mp.workdps(35):
                    want = complex(_mp_log_qpoch(c, q))
                assert _branch_gap(g, want) <= 4e-15 * scale, (c0, x[i, j])


def test_log_qpoch_lattice_edges():
    q = 0.9
    x = np.array([[0.25, -3.5, 7.0]])
    # one-row columns are each a full scalar sum
    got = log_qpoch_lattice([(1.5 - 0.5j, 0.3, -1)], q, x)
    for g, xi in zip(got[0], x[0]):
        want = log_qpoch_inf((1.5 - 0.5j) * q ** (0.3 - xi), q)
        assert _branch_gap(g, want) <= 4e-15 * max(1.0, abs(want))
    # c = 0 and no factors contribute nothing; factors add
    col = np.arange(-5.0, 6.0) + 0.1
    assert np.array_equal(log_qpoch_lattice([(0.0, 0.0, 1)], q, col),
                          np.zeros(col.shape, dtype=complex))
    assert np.array_equal(log_qpoch_lattice([], q, col),
                          np.zeros(col.shape, dtype=complex))
    pair = [(0.4 + 0.2j, 0.0, 1), (2.5, 1.0, -1)]
    both = log_qpoch_lattice(pair, q, col)
    apart = sum(log_qpoch_lattice([f], q, col) for f in pair)
    assert np.abs(both - apart).max() <= 1e-13 * np.abs(apart).max()
    assert np.isnan(log_qpoch_lattice([(complex(np.inf, 0.0), 0.0, 1)], q,
                                      col)).all()


def test_q_gamma_trivials():
    assert abs(q_gamma(1.0, 0.5) - 1.0) < 1e-13
    assert abs(q_gamma(2.0, 0.5) - 1.0) < 1e-13
    with pytest.raises(PoleError):
        q_gamma(-2.0, 0.5)
    with pytest.raises(DomainError):
        q_gamma(1.5, 1.5)


def test_q_gamma_limit_monotone():
    gaps = [abs(q_gamma(3.5, q) - gamma(3.5)) for q in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_eval_psi_termination_a_equals_one():
    # upper parameter 1 (= q^0) kills n >= 1; lower side stays geometric
    q, b, z = 0.5, 0.3, 0.7
    spec = QSeriesSpec(q, [1.0], [b], z)
    sv = eval_psi(spec)
    with mp.workdps(60):
        qq, bb, zz = mp.mpf(q), mp.mpf(b), mp.mpf(z)

        def qp_neg(a, k):
            return 1 / mp.fprod(1 - a * qq ** (-j) for j in range(1, k + 1))

        direct = complex(mp.fsum(qp_neg(mp.mpf(1), k) / qp_neg(bb, k) * zz ** (-k)
                                 for k in range(0, 60)))
    assert abs(sv.value - direct) <= 1e-10 * abs(direct)


def test_eval_psi_annulus():
    with pytest.raises(OutsideAnnulus):
        eval_psi(QSeriesSpec(0.5, [2.2], [0.3], 0.05))


@pytest.mark.parametrize("a,b,z", [
    ([0.0, 0.6], [0.3, 0.2], 0.5),   # more zero upper than zero lower
    ([0.0, 0.6], [0.0, 0.2], 0.2),   # |z| below 0.2 / 0.6
    ([0.6], [0.3, 0.7], 0.1),        # surplus lower slot, |z| below 0.21 / 0.6
])
def test_eval_psi_left_side_outside_annulus(a, b, z):
    with pytest.raises(OutsideAnnulus):
        eval_psi(QSeriesSpec(0.5, a, b, z))


def _mp_psi(a, b, z, q, n_max):
    """Direct sum of the basic series over |n| <= n_max in mpmath."""
    q, z = mp.mpf(q), mp.mpc(z)
    d = len(b) - len(a)

    def qp(x, n):
        x = mp.mpc(x)
        if n >= 0:
            return mp.fprod(1 - x * q ** k for k in range(n))
        return 1 / mp.fprod(1 - x * q ** (-k) for k in range(1, -n + 1))

    return complex(mp.fsum(
        mp.fprod(qp(x, n) for x in a) / mp.fprod(qp(x, n) for x in b)
        * z ** n * ((-1) ** n * q ** (n * (n - 1) / 2)) ** d
        for n in range(-n_max, n_max + 1)))


def test_eval_psi_est_error_covers_cancelling_terms():
    # Bailey's 6psi6 at q = 0.8 with sqrt(a) = 0.5108 close to q^3: the
    # lower factor 1 - sqrt(a) q^-3 is 0.0023, so terms of some hundreds
    # cancel to 0.009 and the sum keeps only about 9 digits
    params = dict(a=0.26088155912261185, b=1.4129866170851222,
                  c=1.6842075388761466, d=1.2374432667003943,
                  e=1.341966524345083)
    spec = psi_spec_for(QKind.BAILEY_6PSI6, params, 0.8)
    got = eval_psi(spec)
    with mp.workdps(50):
        gap = abs(got.value - _mp_psi(spec.a, spec.b, spec.z, 0.8, 60))
    assert gap <= got.est_error <= 100.0 * gap


@pytest.mark.parametrize("a,b,z", [
    ([0.0, 0.6], [0.0, 0.2], 0.5),   # |z| above 0.2 / 0.6
    ([0.6], [0.3, 0.7], 0.5),        # |z| above 0.21 / 0.6
    ([0.6], [0.0, 0.3], 0.05),       # more zero lower than zero upper
])
def test_eval_psi_left_side_inside_annulus(a, b, z):
    got = eval_psi(QSeriesSpec(0.5, a, b, z)).value
    want = _mp_psi(a, b, z, 0.5, 120)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_eval_psi_left_side_past_the_float_range_of_q_powers():
    # inside its annulus, but the left side's ratio tends to
    # |q^(b - a)| / |z| = 0.992, so it runs past m = -3180, where q^m
    # leaves the float range
    params = dict(a=-0.59403530360465 - 0.76217487670826j,
                  b=-0.05968555582970 - 0.17557781589780j,
                  z=0.83925144813893 + 0.31017502444924j)
    got = eval_psi(psi_spec_for(QKind.RAMANUJAN_1PSI1, params, 0.8))
    want = closed_form_q(QKind.RAMANUJAN_1PSI1, params, 0.8)
    assert abs(want - (19.219051476496226 + 1.4607540584768948j)) <= 1e-13
    assert got.terms_used > 3180
    assert abs(got.value - want) <= got.est_error


def test_ramanujan_1psi1(rng):
    for _ in range(30):
        q = float(rng.choice([0.3, 0.5, 0.8]))
        a = rng.uniform(-0.5, 0.5)
        b = a + rng.uniform(0.7, 2.0)
        zlo = q ** (b - a)
        r = rng.uniform(zlo + 0.05 * (1 - zlo), 0.95)
        z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        params = dict(a=a, b=b, z=z)
        want = closed_form_q(QKind.RAMANUJAN_1PSI1, params, q)
        got = eval_psi(psi_spec_for(QKind.RAMANUJAN_1PSI1, params, q)).value
        assert abs(got - want) <= 1e-9 * abs(want)


def test_1psi1_reduces_to_q_binomial():
    # lower exponent 1 makes the lower parameter q itself: one-sided series
    q = 0.5
    a, z = 0.3, 0.8
    params = dict(a=a, b=1.0, z=z)
    want = closed_form_q(QKind.RAMANUJAN_1PSI1, params, q)
    # q-binomial theorem value: (q^a z; q)_inf / (z; q)_inf
    rhs = qpoch_inf(q ** a * z, q) / qpoch_inf(z, q)
    assert abs(want - rhs) < 1e-12 * abs(rhs)
    got = eval_psi(psi_spec_for(QKind.RAMANUJAN_1PSI1, params, q)).value
    assert abs(got - rhs) < 1e-10 * abs(rhs)


def test_bailey_6psi6(rng):
    for _ in range(10):
        q = float(rng.choice([0.3, 0.5, 0.8]))
        a = rng.uniform(0.2, 0.5)
        params = {k: rng.uniform(1.2, 1.7) for k in "bcde"}
        params["a"] = a
        want = closed_form_q(QKind.BAILEY_6PSI6, params, q)
        got = eval_psi(psi_spec_for(QKind.BAILEY_6PSI6, params, q)).value
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("q,rel", [(0.9, 1e-13), (0.995, 1e-11), (0.999, 1e-11)])
def test_bailey_6psi6_near_q_one(q, rel):
    # each of the 18 products alone leaves double range near q = 1 (their
    # quotient was 0/0 at q = 0.995); the reference is the 40-digit sum of
    # log (c;q)_inf over the same parameters
    params = dict(a=0.3, b=1.4, c=1.5, d=1.3, e=1.35)
    with mp.workdps(40):
        qm = mp.mpf(q)
        a, b, c, d, e = (mp.mpf(params[k]) for k in "abcde")
        num = [qm, qm * a, qm / a, qm * a / (b * c), qm * a / (b * d),
               qm * a / (b * e), qm * a / (c * d), qm * a / (c * e),
               qm * a / (d * e)]
        den = [qm / b, qm / c, qm / d, qm / e, qm * a / b, qm * a / c,
               qm * a / d, qm * a / e, qm * a * a / (b * c * d * e)]
        want = complex(mp.exp(mp.fsum(_mp_log_qpoch(x, qm) for x in num)
                              - mp.fsum(_mp_log_qpoch(x, qm) for x in den)))
    got = closed_form_q(QKind.BAILEY_6PSI6, params, q)
    assert abs(got - want) <= rel * abs(want)


def test_bailey_6psi6_specialization_structure():
    # e = -sqrt(a) cancels the pair against the lower -sqrt(a) entry
    q, a = 0.5, 0.3
    e = -math.sqrt(a)
    params = dict(a=a, b=1.25, c=1.45, d=1.65, e=e)
    spec = psi_spec_for(QKind.BAILEY_6PSI6, params, q)
    want = closed_form_q(QKind.BAILEY_6PSI6, params, q)
    got = eval_psi(spec).value
    assert abs(got - want) <= 1e-9 * abs(want)


def test_jacobi_triple_product(rng):
    for _ in range(10):
        q = rng.uniform(0.2, 0.8)
        w = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
        lhs = sum(q ** (0.5 * n * (n - 1)) * w ** n for n in range(-80, 81))
        rhs = qpoch_inf(q, q) * qpoch_inf(-w, q) * qpoch_inf(-q / w, q)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_lemma_exponent_bound(rng):
    # |(q^alpha;q)_n| <= K (q^s;q)_n with K = Gamma(s)/|Gamma(s+it)|
    for _ in range(20):
        s = rng.uniform(0.2, 2.0)
        t = rng.uniform(-2.0, 2.0)
        q = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 51))
        K = abs(gamma(complex(s)) / gamma(complex(s, t)))
        lhs = abs(qpoch(cmath.exp(complex(s, t) * math.log(q)), q, n))
        rhs = K * abs(qpoch(q ** s, q, n))
        assert lhs <= rhs * (1 + 1e-10)


def test_lemma_ratio_monotone(rng):
    from rbeta.gammafns import pochhammer
    for _ in range(20):
        beta = rng.uniform(0.1, 1.5)
        alpha = beta + rng.uniform(0.0, 1.5)
        q = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 51))
        lhs = (qpoch(q ** alpha, q, n) / qpoch(q ** beta, q, n)).real
        rhs = (pochhammer(alpha, n) / pochhammer(beta, n)).real
        assert lhs <= rhs * (1 + 1e-10)


def test_q_binomial_ratio_limit():
    alpha, beta, z = 0.3, 0.9, -0.5
    target = q_binomial_ratio_target(alpha, beta, z)
    gaps = []
    for q in (0.9, 0.99, 0.999):
        got = closed_form_q(QKind.Q_BINOMIAL_RATIO_LIMIT,
                            dict(alpha=alpha, beta=beta, z=z), q)
        gaps.append(abs(got - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


@pytest.mark.parametrize("alpha,beta,z", [
    (0.205586533316266, 0.6088861308984697, 0.783234476007838 + 0.5168248558636896j),
    (0.1852992078429019, 0.5361833040659535, -0.8683242269157302 - 0.039922147809282646j),
    (0.3, 0.9, -0.5),
])
def test_q_binomial_ratio_limit_near_one(alpha, beta, z):
    # each product alone reaches about 1e192 or nan here, and mp.qp raises
    # NoConvergence; the reference is the 30-digit log-sum
    # sum_k log(1 - c q^k) = -sum_m c^m / (m (1 - q^m)), |c| < 1
    q = 0.999
    with mp.workdps(30):
        qm = mp.mpf(q)
        c, d = qm ** alpha * mp.mpc(z), qm ** beta * mp.mpc(z)
        log_ratio, m, cm, dm = mp.mpc(0), 1, c, d
        while abs(cm) > mp.mpf("1e-40"):
            log_ratio += (dm - cm) / (m * (1 - qm ** m))
            m, cm, dm = m + 1, cm * c, dm * d
        want = complex(mp.exp(log_ratio))
    got = closed_form_q(QKind.Q_BINOMIAL_RATIO_LIMIT,
                        dict(alpha=alpha, beta=beta, z=z), q)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_qpoch_asymptotic_trivial():
    out = qpoch_inf_asymptotic(0.0, 0.0, 0.05)
    assert out.value == 1.0
    assert out.rigorous


def test_qpoch_asymptotic_bound_exact(rng):
    for u in (0.1, 0.05, 0.025):
        measured = lemma_qpoch_log_gap(-0.5, u)
        bound = qpoch_inf_asymptotic(-0.5, 0.0, u).error_bound
        assert measured <= bound
    for _ in range(10):
        a = rng.uniform(0.1, 0.85) * cmath.exp(1j * rng.uniform(0.3, 5.9))
        for u in (0.1, 0.05, 0.025):
            assert lemma_qpoch_log_gap(a, u) <= qpoch_inf_asymptotic(a, 0.0, u).error_bound


def test_qpoch_asymptotic_shifted_ratio():
    a, alpha = 0.3 + 0.2j, 1.5
    prev = None
    for u in (0.1, 0.05, 0.025):
        q = math.exp(-u)
        approx = qpoch_inf_asymptotic(a, alpha, u)
        assert not approx.rigorous
        exact = qpoch_inf(a * q ** alpha, q)
        gap = abs(approx.value / exact - 1.0)
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-2


def test_qpoch_asymptotic_branch_cut():
    with pytest.raises(BranchCutError):
        qpoch_inf_asymptotic(1.5, 0.0, 0.05)


def test_theorem21_probe_monotone():
    path = QtoOnePath([0.1, 0.2], [1.5, 1.4], 1.0, -1.0, (0.9, 0.99, 0.999))
    gaps = [g for _, g in theorem21_limit_probe(path)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_theorem21_probe_complex_z():
    z = cmath.exp(1j * math.pi / 3)
    path = QtoOnePath([0.1, 0.3], [1.4, 1.6], 1.0, z, (0.9, 0.99, 0.999))
    gaps = [g for _, g in theorem21_limit_probe(path)]
    assert gaps[-1] < 1e-3
    assert gaps[0] > gaps[1] > gaps[2]


def test_theorem21_path_validation():
    with pytest.raises(DomainError):
        QtoOnePath([0.1], [1.5], 2.0, -1.0, (0.9,))  # tau >= Re sigma
    with pytest.raises(DomainError):
        QtoOnePath([0.1], [0.9], 0.5, -1.0, (0.9,))  # Re sigma <= 1
    with pytest.raises(DomainError):
        QtoOnePath([0.1], [1.5], 0.5, -2.0, (0.9,))  # |z| != 1
