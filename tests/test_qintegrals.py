"""q-deformed integrals: Gaussian-product quadrature, closed forms, kernels,
and the q->1 probes."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import compare
from rbeta import qseries, verify
from rbeta.core import Tolerance
from rbeta.errors import (AnnulusViolation, DomainError, StripViolation,
                          ToleranceNotReached)
from rbeta.gammafns import gamma, gaussian_q_integral
from rbeta.integrals import BetaKind, IntegrandSpec, beta_integral_closed, integrate
import rbeta.qintegrals as qintegrals
from rbeta.qintegrals import (QBetaKind, QIntegrandSpec, _geometric_truncation,
                              _LATTICE_SHIFT, _first_passing_row,
                              _kernel_graded_edges, _lattice_rows,
                              abel_poisson_psi,
                              abel_psi_target, h44_integral_value, h_of_q,
                              h_of_q_probe, h_of_q_target, limit_constant,
                              limit_constant_target, q_fourier_closed,
                              q_integrate, qbeta_family, qbeta_gamma_form,
                              qbeta_psi_consistency)
from rbeta.qseries import QKind, closed_form_q
from rbeta.quadrature import panel_nodes, panel_sums

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
    # 1e-12 (it peaks near 1e-19 around x = -20), so the quadrature's tails
    # are cut relative to its peak; the reference is a 30-digit mpmath
    # quadrature of the integrand over [-80, 80]
    sp = QIntegrandSpec(0.98, [2.0], [0.3], [0.8], 0.3)
    want = complex(-3.05208587553951200814677297363e-18,
                   -9.11491608753882849204213590503e-19)
    assert abs(q_fourier_closed(sp) - want) <= 1e-12 * abs(want)
    assert abs(q_integrate(sp).value - want) <= 1e-10 * abs(want)


def test_q_fourier_complex_t_with_zero_b():
    # b = 0 leaves the strip unbounded below
    sp = QIntegrandSpec(0.5, [2.0], [0.0], [1.0], 0.3 + 0.2j)
    got = q_integrate(sp).value
    want = q_fourier_closed(sp)
    assert abs(got - want) <= 1e-8 * abs(want)
    with pytest.raises(StripViolation):
        q_integrate(QIntegrandSpec(0.5, [2.0], [0.0], [1.0], 0.3 + 0.7j))


def test_q_fourier_strip_violation():
    base = QIntegrandSpec(0.4, [2.6], [0.3], [1.1], 0.0 + 4.0j)
    with pytest.raises(StripViolation):
        q_integrate(base)


def test_truncation_raises_when_the_tail_never_decays():
    # a flat log-magnitude keeps the tail estimate at 49 however far X goes
    with pytest.raises(ToleranceNotReached):
        _geometric_truncation(lambda xs: [0.0] * len(xs), 0.5, 1e-12)
    assert _geometric_truncation(lambda xs: [-x for x in xs], 0.5, 1e-12) > 4.0


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


def test_qbeta_near_q_one_truncates_beyond_the_peak():
    # at q = 0.99 this integrand peaks near x = -70 with log-magnitude 32 and
    # still grows at x = -4, so no truncation may be placed between
    value, product = qbeta_family(
        QBetaKind.I_C0, dict(alpha=0.7831, a=0.3492, b=0.6071), 0.99)
    assert abs(value - product) <= 1e-10 * abs(product)


def _passes(g, k, side, log_cut):
    """The tail bound of unit row k on a decaying side, side = +1 or -1, at
    the row's own one-step decay."""
    here = g(np.array([_LATTICE_SHIFT + k]))[0].real
    step = here - g(np.array([_LATTICE_SHIFT + k - side]))[0].real
    return step < 0.0 and here - math.log1p(-math.exp(step)) < log_cut


# each integrand with a bound of its one-step decay at the end rows
@pytest.mark.parametrize("g,rho", [
    (lambda x: -0.3 * (x - 2.5) ** 2 + 0j, 0.5),
    (lambda x: -np.abs(x + 30.0) * math.log(2.0) + 0j, 0.5),
    (lambda x: -np.abs(x) * 0.05 + 3.0 + 0j, 0.97),
])
@pytest.mark.parametrize("scale", [1e-12, 1e-6])
def test_lattice_rows_end_at_the_first_passing_row_from_the_peak(g, rho,
                                                                 scale):
    k0, rows, log_cut = _lattice_rows(g)
    k1 = k0 + len(rows) - 1
    lm = rows.real
    peak = k0 + int(np.argmax(lm))
    assert log_cut == lm.max() + math.log(1e-17)
    # the cut is relative to the peak, so the integrand's scale moves no row
    k0s, rows_s, _ = _lattice_rows(lambda x: g(x) + math.log(scale))
    assert (k0s, len(rows_s)) == (k0, len(rows))
    assert np.array_equal(rows, g(_LATTICE_SHIFT + np.arange(k0, k1 + 1.0)))
    assert _passes(g, k1, 1, log_cut)
    assert _passes(g, k0, -1, log_cut)
    assert not any(_passes(g, k, 1, log_cut) for k in range(peak + 1, k1))
    assert not any(_passes(g, k, -1, log_cut) for k in range(k0 + 1, peak))
    assert lm[-1] - lm[-2] <= math.log(rho) and lm[0] - lm[1] <= math.log(rho)


def test_a_growing_side_is_never_accepted():
    # far below any cut, but growing outward
    assert _first_passing_row(np.linspace(-200.0, -100.0, 40),
                              math.log(1e-12)) is None
    # the integrand still grows at x = -4 and peaks at x = -70; the scan
    # widens past the peak before it ends the left side
    k0, rows, _ = _lattice_rows(lambda x: -0.01 * (x + 70.0) ** 2 + 32.0 + 0j)
    assert k0 < -70 < k0 + len(rows) - 1
    assert np.argmax(rows.real) == -70 - k0


def test_a_zero_on_a_lattice_row_does_not_end_the_scan():
    def smooth(x):
        return -0.3 * x * x + 0j

    def with_zero(x):
        # a zero of the integrand on row 3, where it is still about e^-3.3
        return np.where(np.abs(x - (_LATTICE_SHIFT + 3.0)) < 1e-9, -np.inf,
                        smooth(x))

    k0, rows, _ = _lattice_rows(smooth)
    z0, zrows, _ = _lattice_rows(with_zero)
    assert (z0, len(zrows)) == (k0, len(rows))
    assert z0 + len(zrows) - 1 > 3


@pytest.mark.parametrize("run", [
    lambda: q_integrate(QIntegrandSpec(0.73, [2.9], [0.3], [1.0])),
    lambda: qbeta_family(QBetaKind.I_FULL, dict(alpha=0.9, a=0.25, b=0.4,
                                                c=0.35, d=0.3), 0.7),
    lambda: qbeta_gamma_form(QBetaKind.I_FULL, dict(alpha=0.2, a=0.15, b=0.25,
                                                    c=0.35, d=0.3), 0.5),
], ids=["q-fourier", "qbeta", "qbeta-gamma"])
def test_q_quadrature_calls_its_kernel_twice(monkeypatch, run):
    # one unit-row scan wide enough for both sides and their decay ratios,
    # then one call for the lattice nodes between the rows
    calls = []
    kernel = qintegrals.log_qpoch_lattice

    def counting(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(qintegrals, "log_qpoch_lattice", counting)
    run()
    assert len(calls) == 2


def test_lattice_rows_raise_on_a_flat_integrand():
    with pytest.raises(ToleranceNotReached):
        _lattice_rows(lambda x: np.zeros(x.shape, dtype=complex))


# integrands whose q-products reach |c q^(o + s x)| past e^709 on the lattice
_EDGE_Q_FOURIER = [QIntegrandSpec(0.31, [2.0], [0.3], [1.9]),
                   QIntegrandSpec(0.5, [2.0], [0.3], [1.96]),
                   QIntegrandSpec(0.73, [2.0], [0.3], [1.98]),
                   QIntegrandSpec(0.31, [2.0], [0.3], [0.31])]
_EDGE_QBETA = [
    # |abcd| q = 0.968 and 0.957
    (0.7, dict(alpha=1.2, a=1.09, b=1.0791, c=1.0682, d=1.1009)),
    (0.4, dict(alpha=0.9, a=1.25, b=1.2375, c=1.225, d=1.2625)),
]


def test_lattice_rows_raise_with_a_finite_cut_far_past_the_float_range():
    # w / a = 0.99 at q = 0.31: the right side needs more than 4096 rows,
    # and its q-products run far past e^709 before the scan gives up
    with pytest.raises(ToleranceNotReached) as err:
        q_integrate(QIntegrandSpec(0.31, [2.0], [0.3], [1.98]))
    cut = float(str(err.value).rsplit(" ", 1)[1])
    assert 0.0 < cut < 1e-16


def test_q_quadrature_error_estimate_is_honest(monkeypatch):
    seen = []
    quad = qintegrals.q_quadrature

    def probe(*args):
        seen.append(quad(*args))
        return seen[-1]
    monkeypatch.setattr(qintegrals, "q_quadrature", probe)
    rng = np.random.default_rng(11)
    wants = []
    for q in (0.31, 0.47, 0.73, 0.9):
        for strip in (False, True, False, True):
            a, b = rng.uniform(1.7, 3.2), rng.uniform(0.1, 0.5)
            w = rng.uniform(0.8, 1.25)
            lo, hi = math.log(b / w), math.log(a / w)
            ti = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
            sp = QIntegrandSpec(q, [a], [b], [w], complex(
                rng.uniform(-1.5, 1.5), ti if strip else 0.0))
            q_integrate(sp)
            wants.append(q_fourier_closed(sp))
    # near the edge of convergence, where each side is cut at its own decay
    # alone: one-step decay ratios w / a of 0.95-0.99 on the right and b / w
    # of 0.97 on the left, where the q-products leave the float range
    for sp in _EDGE_Q_FOURIER:
        q_integrate(sp)
        wants.append(q_fourier_closed(sp))
    for q in (0.4, 0.7, 0.4, 0.7):
        for kind in QBetaKind:
            ys = qintegrals._QBETA_YS[kind]
            params = {"alpha": rng.uniform(0.6, 1.3),
                      **{y: rng.uniform(0.2, (9 - len(ys)) / 10) for y in ys}}
            wants.append(qbeta_family(kind, params, q)[1])
    # I_full at |abcd| q of 0.9-0.97
    for q, params in _EDGE_QBETA:
        wants.append(qbeta_family(QBetaKind.I_FULL, params, q)[1])
    for q in (0.4, 0.7):
        y = (rng.uniform(0.9, 0.95) / q) ** 0.25
        params = {"alpha": rng.uniform(0.6, 1.3),
                  **{k: y * rng.uniform(0.98, 1.02) for k in "abcd"}}
        wants.append(qbeta_family(QBetaKind.I_FULL, params, q)[1])
    wants.append(qbeta_family(
        QBetaKind.I_C0, dict(alpha=0.7831, a=0.3492, b=0.6071), 0.99)[1])
    for kind in (QBetaKind.I_FULL, QBetaKind.I_D0) * 2:
        params = {k: rng.uniform(0.1, 0.4)
                  for k in ("alpha", *qintegrals._QBETA_YS[kind])}
        wants.append(qbeta_gamma_form(kind, params, 0.5)[1])
    assert len(seen) == len(wants)
    for res, want in zip(seen, wants):
        assert abs(res.value - want) <= res.est_error, (res, want)
        # and the estimate still says something
        assert res.est_error <= 1e-7 * abs(want), (res, want)


def test_q_quadrature_values_survive_a_wrapped_first_argument(monkeypatch):
    # perfbench's tracer hands q_quadrature a plain wrapper of its first
    # argument, so nothing the quadrature needs may ride on that callable
    def values():
        return (qbeta_family(QBetaKind.I_FULL, dict(alpha=0.9, a=0.25, b=0.4,
                                                    c=0.35, d=0.3), 0.7)[0],
                qbeta_gamma_form(QBetaKind.I_D0, dict(alpha=0.2, a=0.15,
                                                      b=0.25, c=0.35), 0.5)[0],
                q_integrate(QIntegrandSpec(0.47, [1.93, 2.77], [0.14, 0.29],
                                           [1.16, 0.85], 0.81)).value)
    plain = values()
    quad = qintegrals.q_quadrature

    def wrapped(*args):
        rest = args[0]

        def traced_cb(*a, **k):
            return rest(*a, **k)
        return quad(traced_cb, *args[1:])
    monkeypatch.setattr(qintegrals, "q_quadrature", wrapped)
    assert values() == plain


def test_q_quadrature_does_not_depend_on_the_integrand_scale(monkeypatch):
    # README's q-Fourier integrand times s: the lattice is cut at 1e-17 of
    # its peak, so the nodes and the truncation do not move with s
    calls = []
    quad = qintegrals.q_quadrature

    def probe(*args):
        calls.append(args)
        return quad(*args)
    monkeypatch.setattr(qintegrals, "q_quadrature", probe)
    base = q_integrate(QIntegrandSpec(0.5, [2.2], [0.27], [1.0], 0.3))
    rest, *others = calls[0]
    for s in (1.0, 1e8, 1e-8):
        res = quad(lambda x: rest(x) + math.log(s), *others)
        assert (res.panels, res.truncation_X) == (base.panels,
                                                  base.truncation_X), s
        assert abs(res.value / s - base.value) <= 1e-14 * abs(base.value), s


def test_q_integrand_spec_takes_numpy_parameters():
    lists = QIntegrandSpec(0.5, [2.2, 2.5], [0.2, 0.3], [1.0, 0.9], 0.7)
    arrays = QIntegrandSpec(0.5, np.array([2.2, 2.5]), np.array([0.2, 0.3]),
                            np.array([1.0, 0.9]), 0.7)
    assert arrays == lists
    assert q_integrate(arrays).value == q_integrate(lists).value
    # a one-element array is one parameter, whatever its value
    assert QIntegrandSpec(0.5, np.array([0.0]), [0.2], [1.0]).m == 1
    with pytest.raises(ValueError, match="nonempty"):
        QIntegrandSpec(0.5, np.array([]), [], [])


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


def _abel_reference(spec, r_sequence):
    """abel_poisson_psi from its parts: one-point truncation probes, mapped
    over each candidate's abscissae, and the 20-point Gauss sums of
    `panel_sums`."""
    rr, rl = spec.decay_ratios()

    def one(x):
        xs = np.array([x])
        return float((spec.log_f(xs) - 1j * spec.t * xs).real[0])

    out = []
    for r in r_sequence:
        tol_abs = 1e-12 / ((1.0 + r) / (1.0 - r))
        Xr = _geometric_truncation(lambda xs: [one(x) for x in xs], rr, tol_abs)
        Xl = _geometric_truncation(lambda xs: [one(-x) for x in xs], rl, tol_abs)
        xs20, half = panel_nodes(_kernel_graded_edges(-Xl, Xr, r), 20)

        def f(x):
            with np.errstate(over="ignore", under="ignore"):
                base = np.exp(spec.log_f(x) - 1j * spec.t * x)
            return base * ((1.0 - r * r)
                           / (1.0 - 2.0 * r * np.cos(2.0 * math.pi * x) + r * r))
        out.append((r, complex(panel_sums(f(xs20).reshape(len(half), 20),
                                          half).sum())))
    return out


# m = 1 and m = 2 draws in the ranges of the suite's abel-poisson-kernel
_ABEL_DRAWS = [
    QIntegrandSpec(0.59, [2.41], [0.37], [0.93], -0.62),
    QIntegrandSpec(0.47, [1.93, 2.77], [0.14, 0.29], [1.16, 0.85], 0.81),
]


@pytest.mark.parametrize("spec", _ABEL_DRAWS, ids=["m1", "m2"])
def test_abel_kernel_bits_match_its_reference(spec):
    # the suite's golden records hold these values' gaps, so skipping the
    # 10-point nodes and probing a candidate in one call must keep every bit
    rs = [0.9, 0.99, 0.999]
    assert abel_poisson_psi(spec, rs) == _abel_reference(spec, rs)


# the gaps of the suite's abel-poisson-kernel check, draw 0 of suite seeds 0
# and 1, as the golden records of the benchmark hold them
_ABEL_GOLDEN_GAPS = {
    0: ["0x1.42dd6ee34f253p-10", "0x1.024abf2053800p-13",
        "0x1.9d444a86bc947p-17"],
    1: ["0x1.c9f879364fca2p-19", "0x1.6e606182d9f1ep-22",
        "0x1.2516593592d00p-25"],
}


@pytest.mark.parametrize("seed", sorted(_ABEL_GOLDEN_GAPS))
def test_abel_route_keeps_its_golden_bits(seed):
    entry = next(e for e in verify.IDENTITIES if e.id == "abel-poisson-kernel")
    rec = verify._run_job(seed, (0, entry))
    assert [g.hex() for g in rec.inputs["gaps"]] == _ABEL_GOLDEN_GAPS[seed]


def test_abel_kernel_arrays_are_real_chains(monkeypatch):
    # the suite's Abel records are the array path's only caller: every
    # array holds real chains, and the large ones take the one-factor kernel
    calls = []
    for name in ("_log_qpoch_blocks", "_log_qpoch_real_steps"):
        def spy(cur, q, kernel=getattr(qseries, name), name=name):
            calls.append((name, cur.size, q.imag == 0.0 and not cur.imag.any()))
            return kernel(cur, q)
        monkeypatch.setattr(qseries, name, spy)
    entry = next(e for e in verify.IDENTITIES if e.id == "abel-poisson-kernel")
    for seed in range(4):
        for draw in range(2):
            entry.check(verify._rng_for(seed, entry.tag, draw), draw)
    assert {name for name, _, _ in calls} == {"_log_qpoch_blocks",
                                              "_log_qpoch_real_steps"}
    for name, size, real in calls:
        assert real
        assert (name == "_log_qpoch_real_steps") == (
            size >= qseries._STEP_MIN_SIZE)


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


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("alpha,beta,t", [(1.3, 2.4, 0.0), (1.7, 2.2, -2.1)])
def test_h_of_q_is_q_fourier_times_prefactor(q, alpha, beta, t):
    # h(q) is the q-Fourier transform at a = q^(1-beta), b = q^alpha, w = 1
    # times (1 - q)^(alpha+beta-2) / (q;q)_inf^2
    sp = QIntegrandSpec(q, [q ** (1.0 - beta)], [q ** alpha], [1.0], t)
    with mp.workdps(30):
        pref = complex((1 - mp.mpf(q)) ** (alpha + beta - 2)
                       / mp.qp(mp.mpf(q), mp.mpf(q)) ** 2)
    want = q_fourier_closed(sp) * pref
    assert abs(h_of_q(q, alpha, beta, t) - want) <= 1e-13 * abs(want)


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
