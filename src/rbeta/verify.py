"""Named verification suites: deterministic random draws over every identity
in the library, emitted as structured records for the CLI reporter.

Each identity is one `Identity` entry of the ordered table `IDENTITIES`;
adding an identity means adding an entry.  `run_suite` is the one place that
seeds the draws, times them and turns their results into records.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import __version__ as _tool_version
from .core import Tolerance, VerificationRecord
from .gammafns import dilog, gamma, recip_gamma, pochhammer, gaussian_q_integral
from .bilateral import (BilateralSeriesSpec, HKind, closed_form_H, eval_H,
                        series_spec_for, symmetry_transform)
from .qseries import (QKind, QtoOnePath, closed_form_q, eval_psi,
                      lemma_qpoch_log_gap, log_qpoch_inf, log_qpoch_ratio,
                      psi_spec_for, q_binomial_ratio_target, q_gamma, qpoch,
                      qpoch_inf_asymptotic, theorem21_limit_probe)
from .integrals import (BetaKind, IntegrandSpec, beta_integral_closed,
                        cauchy_cosine_integral, double_integral_open_question,
                        fourier_single_factor, integral_repr_H,
                        integrand_spec_for, integrate, m6_reduced_5h5,
                        poisson_sum_rhs, poisson_terms, barnes_closed,
                        barnes_quadrature)
from .qintegrals import (_QBETA_YS, QBetaKind, QIntegrandSpec, abel_poisson_psi,
                         abel_psi_target, h44_integral_value, h_of_q,
                         h_of_q_target, limit_constant, limit_constant_target,
                         q_fourier_closed, q_integrate, q_quadrature,
                         qbeta_family, qbeta_gamma_form, qbeta_psi_consistency)

# default per-suite relative tolerances; oscillation and product truncation
# compound for the higher-order and q cases
TOL_CLASSICAL = Tolerance(rel=1e-8, abs=1e-12)
TOL_HIGH_ORDER = Tolerance(rel=1e-6, abs=1e-12)
TOL_Q = Tolerance(rel=1e-6, abs=1e-12)


@dataclass(frozen=True)
class Identity:
    """One identity of a suite.

    ``check(rng, draw)`` draws the inputs from ``rng`` and evaluates both
    routes, returning ``(inputs, lhs, rhs)``; ``draw`` is the draw index.
    ``tol`` decides the verdict and reaches no check.  ``tag`` seeds the
    draws and defaults to ``id``.  Checks reach library
    functions through this module's globals at call time, so tracing and
    probing code can rebind them.
    """

    id: str
    suite: str
    tol: Tolerance
    check: Callable[..., object]
    tag: str = ""

    def __post_init__(self):
        if not self.tag:
            object.__setattr__(self, "tag", self.id)


def _rng_for(seed: int, tag: str, draw: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8")), draw])


# -- draw helpers ---------------------------------------------------------------

def _udraw(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _safe_q(rng) -> float:
    # keep clear of q^k collisions with drawn parameters
    return float(rng.choice([0.31, 0.47, 0.59, 0.73]))


# -- suite: classical-core -------------------------------------------------------

def _cauchy_cosine(rng, *_):
    g = complex(_udraw(rng, -0.4, 2.0))
    d = complex(_udraw(rng, -1.0, 1.0), _udraw(rng, -0.4, 0.4))
    return {"gamma": g, "delta": d}, *cauchy_cosine_integral(g, d)


def _fourier_single_factor(rng, *_):
    a = _udraw(rng, 0.1, 1.2)
    b = _udraw(rng, 0.1, 1.2)
    t = _udraw(rng, -0.9 * math.pi, 0.9 * math.pi)
    got = integrate(IntegrandSpec([a], [b], t)).value
    return {"a": a, "b": b, "t": t}, got, fourier_single_factor(a, b, t)


def _riemann_grid_sum(rng, *_):
    m = int(rng.integers(1, 4))
    a = [_udraw(rng, 0.15, 0.9) for _ in range(m)]
    b = [_udraw(rng, 0.15, 0.9) for _ in range(m)]
    t = _udraw(rng, -0.8, 0.8) * m * math.pi
    p = m + int(rng.integers(0, 2))
    spec = IntegrandSpec(a, b, t)
    lhs = integrate(spec).value
    return {"a": a, "b": b, "t": t, "p": p}, lhs, poisson_sum_rhs(spec, p)


def _grid_sum_p_invariance(rng, *_):
    m = int(rng.integers(1, 3))
    a = [_udraw(rng, 0.15, 0.9) for _ in range(m)]
    b = [_udraw(rng, 0.15, 0.9) for _ in range(m)]
    t = _udraw(rng, -0.7, 0.7) * m * math.pi
    spec = IntegrandSpec(a, b, t)
    lhs = poisson_sum_rhs(spec, m)
    return {"a": a, "b": b, "t": t}, lhs, poisson_sum_rhs(spec, m + 2)


def _compact_support(rng, *_):
    m = int(rng.integers(1, 4))
    a = [_udraw(rng, 0.2, 0.9) for _ in range(m)]
    b = [_udraw(rng, 0.2, 0.9) for _ in range(m)]
    t = m * math.pi + _udraw(rng, 0.2, 2.0)
    return {"a": a, "b": b, "t": t}, integrate(IntegrandSpec(a, b, t)).value, 0j


def _integral_series_representation(rng, *_):
    m = int(rng.integers(1, 4))
    a = tuple(complex(_udraw(rng, 0.2, 0.9)) for _ in range(m))
    b = tuple(complex(_udraw(rng, 0.2, 0.9)) for _ in range(m))
    t = _udraw(rng, -0.9 * math.pi, 0.9 * math.pi)
    return ({"a": a, "b": b, "t": t, "weight_order": m},
            *integral_repr_H(a, b, t))


def _sum_1h1_exp(kind: HKind, t_lo: float, t_hi: float, rng, *_):
    a = _udraw(rng, -0.8, 0.4)
    b = a + _udraw(rng, 1.5, 3.0)
    t = _udraw(rng, t_lo, t_hi)
    params = {"a": a, "b": b, "t": t}
    lhs = eval_H(series_spec_for(kind, params)).value
    return params, lhs, closed_form_H(kind, params)


def _sum_1h1_unit(rng, *_):
    a = _udraw(rng, -0.8, 0.3)
    b = a + _udraw(rng, 1.6, 3.0)
    lhs = eval_H(series_spec_for(HKind.ONE_H1_PLUS_EXP,
                                 {"a": a, "b": b, "t": 0.0})).value
    return {"a": a, "b": b}, lhs, 0j


def _summation_theorem(kind: HKind, rng, *_):
    params = _draw_summable(rng, kind)
    lhs = eval_H(series_spec_for(kind, params)).value
    return params, lhs, closed_form_H(kind, params)


def _draw_summable(rng, kind: HKind) -> Dict[str, float]:
    """Parameter draws satisfying each summation theorem's convergence
    constraint with margin >= 0.5."""
    if kind is HKind.GAUSS_2H2:
        while True:
            a = _udraw(rng, -0.5, 0.45)
            b = _udraw(rng, -0.5, 0.45)
            c = _udraw(rng, 0.7, 1.9)
            d = _udraw(rng, 0.7, 1.9)
            if (c + d - a - b - 1).real >= 0.5:
                return {"a": a, "b": b, "c": c, "d": d}
    if kind in (HKind.WELL_POISED_3H3, HKind.VWP_4H4_MINUS1):
        margin = 0.5 if kind is HKind.WELL_POISED_3H3 else 1.5
        while True:
            a = _udraw(rng, 0.1, 0.8)
            b, c, d = (_udraw(rng, -0.6, 0.2) for _ in range(3))
            if (1 + 1.5 * a - b - c - d) >= margin and abs(a - round(a)) > 0.05:
                return {"a": a, "b": b, "c": c, "d": d}
    if kind is HKind.VWP_5H5:
        while True:
            a = _udraw(rng, 0.1, 0.8)
            b, c, d, e = (_udraw(rng, -0.5, 0.2) for _ in range(4))
            if (1 + 2 * a - b - c - d - e) >= 0.5 and abs(a - round(a)) > 0.05:
                return {"a": a, "b": b, "c": c, "d": d, "e": e}
    raise ValueError(kind)


def _symmetry_transform(rng, *_):
    c = [_udraw(rng, 0.05, 0.4) for _ in range(2)]
    d = [x + _udraw(rng, 1.3, 2.0) for x in c]
    spec = BilateralSeriesSpec(c, d, cmath.exp(1j * _udraw(rng, 0.3, 6.0)))
    v1 = eval_H(spec)
    v2 = eval_H(symmetry_transform(spec))
    return {"c": c, "d": d, "z": spec.z}, v1.value, v2.value


def _gamma_reflection(rng, *_):
    z = complex(_udraw(rng, -20, 20), _udraw(rng, -20, 20))
    lhs = recip_gamma(z) * recip_gamma(1.0 - z)
    return {"z": z}, lhs, cmath.sin(math.pi * z) / math.pi


def _dilog_pair(rng, *_):
    t = _udraw(rng, -math.pi, math.pi)
    lhs = dilog(-cmath.exp(-1j * t)) + dilog(-cmath.exp(1j * t))
    return {"t": t}, lhs, t * t / 2.0 - math.pi ** 2 / 6.0


def _gamma_duplication(rng, *_):
    y = complex(_udraw(rng, -4, 4), _udraw(rng, -4, 4))
    lhs = 4.0 * cmath.cos(math.pi * y) * recip_gamma(y) * recip_gamma(-y)
    return {"y": y}, lhs, recip_gamma(2 * y) * recip_gamma(-2 * y)


# -- suite: classical-beta -------------------------------------------------------

_BETA_DRAWERS = {
    BetaKind.RAMANUJAN_M2: lambda rng: {
        "a1": _udraw(rng, 0.0, 1.2), "a2": _udraw(rng, 0.0, 1.2),
        "b1": _udraw(rng, 0.0, 1.2), "b2": _udraw(rng, 0.0, 1.2)},
    BetaKind.M3_COS: lambda rng: {
        "a": _udraw(rng, 0.05, 0.6), "b1": _udraw(rng, 0.05, 0.8),
        "b2": _udraw(rng, 0.05, 0.8), "b3": _udraw(rng, 0.05, 0.8)},
    BetaKind.M3_PLAIN: lambda rng: {
        "c1": _udraw(rng, 0.05, 0.8), "c2": _udraw(rng, 0.05, 0.8),
        "c3": _udraw(rng, 0.05, 0.8)},
    BetaKind.M4_PLAIN: lambda rng: {
        f"c{j}": _udraw(rng, 0.05, 0.8) for j in range(1, 5)},
    BetaKind.M4_VWP: lambda rng: {
        "a": _udraw(rng, 0.15, 0.6), "b1": _udraw(rng, 0.05, 0.7),
        "b2": _udraw(rng, 0.05, 0.7), "b3": _udraw(rng, 0.05, 0.7)},
    BetaKind.M4_VWP_SHIFTED: lambda rng: {
        "a": _udraw(rng, 0.15, 0.6), "c1": _udraw(rng, 0.05, 0.7),
        "c2": _udraw(rng, 0.05, 0.7), "c3": _udraw(rng, 0.05, 0.7)},
    BetaKind.M5_VWP: lambda rng: {
        "a": _udraw(rng, 0.15, 0.6),
        **{f"b{j}": _udraw(rng, 0.05, 0.6) for j in range(1, 5)}},
    BetaKind.M5_VWP_SHIFTED: lambda rng: {
        "a": _udraw(rng, 0.15, 0.6),
        **{f"c{j}": _udraw(rng, 0.05, 0.6) for j in range(1, 5)}},
    BetaKind.M5_VWP_THIRD: lambda rng: {
        f"c{j}": _udraw(rng, 0.05, 0.6) for j in range(1, 5)},
    BetaKind.M6_RIEMANN: lambda rng: {
        f"a{j}": _udraw(rng, 0.0, 0.7) for j in range(1, 7)},
}


def draw_beta_params(rng, kind: BetaKind) -> Dict[str, float]:
    if kind is BetaKind.RAMANUJAN_M2_COS:
        a1 = _udraw(rng, 0.1, 1.0)
        b1 = _udraw(rng, 0.1, 1.0)
        shift = _udraw(rng, -0.3, 0.6)
        return {"a1": a1, "b1": b1, "a2": a1 + shift, "b2": b1 + shift}
    return _BETA_DRAWERS[kind](rng)


def _beta_integral(kind: BetaKind, rng, *_):
    params = draw_beta_params(rng, kind)
    lhs = integrate(integrand_spec_for(kind, params)).value
    return params, lhs, beta_integral_closed(kind, params)


def _grid_sum_alternating(rng, *_):
    params = draw_beta_params(rng, BetaKind.M6_RIEMANN)
    s = poisson_terms(integrand_spec_for(BetaKind.M6_RIEMANN, params), 6)
    return params, 2 * s[0] + 4 * s[2], 2 * s[3] + 4 * s[1]


def _degenerate_series_reduction(rng, *_):
    params = {f"a{j}": _udraw(rng, 0.0, 0.6) for j in range(1, 5)}
    spec6, spec5 = m6_reduced_5h5(params)
    v6 = eval_H(spec6).value
    return params, v6, eval_H(spec5).value


def _barnes_vertical_line(rng, *_):
    vals = [_udraw(rng, 0.3, 1.0) for _ in range(4)]
    lhs = barnes_quadrature(*vals)
    return dict(zip("abcd", vals)), lhs, barnes_closed(*vals)


def _double_cosine_power(rng, *_):
    bs = [_udraw(rng, 0.2, 0.8) for _ in range(3)]
    lhs, rhs = double_integral_open_question(*bs)
    return dict(zip(("b1", "b2", "b3"), bs)), lhs, rhs


# -- suite: q-core ---------------------------------------------------------------

def _draw_q_fourier(rng) -> QIntegrandSpec:
    q = _safe_q(rng)
    b = _udraw(rng, 0.1, 0.5)
    a = _udraw(rng, 1.7, 3.2)
    w = _udraw(rng, 0.8, 1.25)
    return QIntegrandSpec(q, [a], [b], [w], 0.0)


def _qpoch_negative_dual(rng, *_):
    q = _safe_q(rng)
    a = complex(_udraw(rng, -0.9, 0.9), _udraw(rng, -0.5, 0.5))
    m = int(rng.integers(1, 21))
    lhs = qpoch(a, q, -m)
    rhs = q ** (0.5 * m * (m + 1)) / ((-a) ** m * qpoch(q / a, q, m))
    return {"a": a, "q": q, "n": -m}, lhs, rhs


def _sum_1psi1(rng, *_):
    q = float(rng.choice([0.3, 0.5, 0.8]))
    a = _udraw(rng, -0.5, 0.5)
    b = a + _udraw(rng, 0.7, 2.0)
    zlo = q ** (b - a)
    z = cmath.exp(1j * _udraw(rng, 0, 2 * math.pi)) * _udraw(
        rng, zlo + 0.07 * (1 - zlo), 0.93)
    params = {"a": a, "b": b, "z": z}
    lhs = eval_psi(psi_spec_for(QKind.RAMANUJAN_1PSI1, params, q)).value
    return {**params, "q": q}, lhs, closed_form_q(QKind.RAMANUJAN_1PSI1, params, q)


def _sum_6psi6(rng, *_):
    q = float(rng.choice([0.3, 0.5, 0.8]))
    a = _udraw(rng, 0.2, 0.5)
    rest = [_udraw(rng, 1.2, 1.7) for _ in range(4)]
    params = dict(zip("bcde", rest))
    params["a"] = a
    lhs = eval_psi(psi_spec_for(QKind.BAILEY_6PSI6, params, q)).value
    return {**params, "q": q}, lhs, closed_form_q(QKind.BAILEY_6PSI6, params, q)


def _jacobi_triple_product(rng, *_):
    q = _safe_q(rng)
    w = complex(_udraw(rng, 0.3, 1.6), _udraw(rng, -0.6, 0.6))
    lhs = 0j
    for nn in range(-60, 61):
        lhs += q ** (0.5 * nn * (nn - 1)) * w ** nn
    rhs = cmath.exp(log_qpoch_ratio([q, -w, -q / w], [], q))
    return {"q": q, "w": w}, lhs, rhs


def _q_fourier_plain(rng, *_):
    sp = _draw_q_fourier(rng)
    lhs = q_integrate(sp).value
    return ({"q": sp.q, "a": sp.a[0], "b": sp.b[0], "w": sp.w[0]},
            lhs, q_fourier_closed(sp))


def _q_fourier_strip(rng, draw):
    # even draws shift t into the strip, odd draws keep it real
    base = _draw_q_fourier(rng)
    lo = math.log(abs(base.b[0] / base.w[0]))
    hi = math.log(abs(base.a[0] / base.w[0]))
    ti = _udraw(rng, lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
    t = complex(_udraw(rng, -1.5, 1.5), ti if draw % 2 == 0 else 0.0)
    sp = QIntegrandSpec(base.q, base.a, base.b, base.w, t)
    lhs = q_integrate(sp).value
    return ({"q": sp.q, "a": sp.a[0], "b": sp.b[0], "w": sp.w[0], "t": t},
            lhs, q_fourier_closed(sp))


def _q_gaussian_integral(rng, *_):
    q = _udraw(rng, 0.35, 0.92)
    w = complex(_udraw(rng, 0.5, 2.0), _udraw(rng, -0.5, 0.5))
    lq = math.log(q)
    got = q_quadrature(lambda x: 0.5 * x * (x - 1.0) * lq
                       + x * cmath.log(w), (), q, 0.0, -0.5 * lq,
                       abs(cmath.log(w).imag) + 1.0).value
    return {"q": q, "w": w}, got, gaussian_q_integral(q, w)


def _abel_poisson_kernel(rng, *_):
    q = _safe_q(rng)
    m = int(rng.integers(1, 3))
    a = [_udraw(rng, 1.8, 3.0) for _ in range(m)]
    b = [_udraw(rng, 0.1, 0.45) for _ in range(m)]
    w = [_udraw(rng, 0.8, 1.2) for _ in range(m)]
    t = _udraw(rng, -1.0, 1.0)
    sp = QIntegrandSpec(q, a, b, w, t)
    target = abel_psi_target(sp)
    seq = abel_poisson_psi(sp, [0.9, 0.99, 0.999])
    gaps = [abs(v - target) for _, v in seq]
    floor = 1e-9 * max(1.0, abs(target))
    ok = all(gaps[j + 1] < gaps[j] or gaps[j + 1] < floor
             for j in range(len(gaps) - 1))
    final = seq[-1][1] if ok else complex(math.inf)
    return ({"q": q, "a": a, "b": b, "w": w, "t": t, "gaps": gaps},
            final, target)


def _qpoch_exponent_bound(rng, *_):
    s = _udraw(rng, 0.2, 2.0)
    tpart = _udraw(rng, -2.0, 2.0)
    alpha = complex(s, tpart)
    q = _udraw(rng, 0.05, 0.95)
    nn = int(rng.integers(1, 51))
    K = abs(gamma(complex(s)) / gamma(complex(s, tpart)))
    lhs = abs(qpoch(cmath.exp(alpha * math.log(q)), q, nn))
    rhs = K * abs(qpoch(q ** s, q, nn))
    return {"alpha": alpha, "q": q, "n": nn}, max(0.0, lhs - rhs * (1 + 1e-12)), 0j


def _qpoch_ratio_monotone(rng, *_):
    beta = _udraw(rng, 0.1, 1.5)
    alpha = beta + _udraw(rng, 0.0, 1.5)
    q = _udraw(rng, 0.05, 0.95)
    nn = int(rng.integers(1, 51))
    lhs = (qpoch(q ** alpha, q, nn) / qpoch(q ** beta, q, nn)).real
    rhs = (pochhammer(alpha, nn) / pochhammer(beta, nn)).real
    return ({"alpha": alpha, "beta": beta, "q": q, "n": nn},
            max(0.0, lhs - rhs * (1 + 1e-12)), 0j)


# -- suite: q-beta ---------------------------------------------------------------

def _draw_qbeta(rng, kind: QBetaKind) -> Dict[str, float]:
    # the fewer the y's, the wider their range: 0.2..0.5 for four, 0.2..0.8
    # for one
    ys = _QBETA_YS[kind]
    hi = (9 - len(ys)) / 10
    return {"alpha": _udraw(rng, 0.6, 1.3), **{k: _udraw(rng, 0.2, hi) for k in ys}}


def _qbeta_family(kind: QBetaKind, q: float, rng, *_):
    params = _draw_qbeta(rng, kind)
    return {**params, "q": q}, *qbeta_family(kind, params, q)


def _qbeta_psi_representation(kind: QBetaKind, rng, *_):
    params = _draw_qbeta(rng, kind)
    return {**params, "q": 0.5}, *qbeta_psi_consistency(kind, params, 0.5)


def _qbeta_gamma_form(kind: QBetaKind, rng, *_):
    params = {"alpha": _udraw(rng, 0.1, 0.4),
              **{k: _udraw(rng, 0.1, 0.4) for k in _QBETA_YS[kind]}}
    return {**params, "q": 0.5}, *qbeta_gamma_form(kind, params, 0.5)


def _qbeta_entries(kind: QBetaKind) -> Tuple[Identity, ...]:
    """Quadrature at q = 0.4 and 0.7, then the psi representation at 0.5."""
    iid = f"qbeta-{kind.value}"
    return (
        *(Identity(iid, "q-beta", TOL_Q, partial(_qbeta_family, kind, q),
                   tag=f"{iid}-{q}") for q in (0.4, 0.7)),
        Identity(f"{iid}-psi-representation", "q-beta",
                 Tolerance(rel=1e-9, abs=1e-12),
                 partial(_qbeta_psi_representation, kind), tag=f"{iid}-psirep"),
    )


def _doubled_argument_beta(rng, *_):
    cs = [_udraw(rng, 0.05, 0.5) for _ in range(3)]
    spec = IntegrandSpec([-1.0] + cs, [-1.0] + cs, 0.0,
                         ((2.0 + 0j, math.pi), (2.0 + 0j, -math.pi)))
    lhs = integrate(spec).value
    return dict(zip(("a", "b", "c"), cs)), lhs, h44_integral_value(*cs)


def _doubled_argument_vs_shifted(rng, *_):
    cs = [_udraw(rng, 0.05, 0.5) for _ in range(3)]
    lhs = math.sqrt(3.0) / 4.0 * h44_integral_value(*cs)
    rhs = beta_integral_closed(
        BetaKind.M4_VWP_SHIFTED,
        {"a": 1.0 / 3.0, "c1": cs[0], "c2": cs[1], "c3": cs[2]})
    return dict(zip(("a", "b", "c"), cs)), lhs, rhs


# -- suite: limits ---------------------------------------------------------------

_Q_SEQ = (0.9, 0.99, 0.999)


def _monotone_record(inputs: Dict, gaps: Sequence[float], strict: bool = True):
    """(inputs, lhs, rhs) for a q -> 1 gap sequence: lhs is the final gap; a
    broken monotone decrease is reported as an infinite gap so the pass flag
    stays equivalent to the tolerance comparison."""
    ok = all(g0 > g1 if strict else g0 >= g1 for g0, g1 in zip(gaps, gaps[1:]))
    return {**inputs, "gaps": list(gaps)}, complex(gaps[-1] if ok else math.inf), 0j


def _basic_to_classical_limit(rng, *_):
    m = int(rng.integers(1, 3))
    alpha = [_udraw(rng, 0.05, 0.4) for _ in range(m)]
    beta = [a + _udraw(rng, 1.1, 2.2) / m + (2.0 / m - 1.0) for a in alpha]
    sigma = sum(beta) - sum(alpha)
    path = QtoOnePath(alpha, beta, 0.5 * sigma,
                      cmath.exp(1j * _udraw(rng, 0.4, 5.9)), _Q_SEQ)
    gaps = [g for _, g in theorem21_limit_probe(path)]
    return _monotone_record({"alpha": alpha, "beta": beta,
                             "tau": path.tau, "z": path.z}, gaps)


def _q_binomial_ratio_limit(rng, *_):
    alpha = _udraw(rng, 0.0, 0.6)
    beta = alpha + _udraw(rng, 0.2, 1.0)
    z = cmath.exp(1j * _udraw(rng, 0.5, 5.8)) * _udraw(rng, 0.4, 1.0)
    target = q_binomial_ratio_target(alpha, beta, z)
    gaps = [abs(closed_form_q(QKind.Q_BINOMIAL_RATIO_LIMIT,
                              {"alpha": alpha, "beta": beta, "z": z}, q)
                - target) for q in _Q_SEQ]
    return _monotone_record({"alpha": alpha, "beta": beta, "z": z}, gaps)


def _qbeta_limit_constant(rng, *_):
    alpha = _udraw(rng, 0.05, 0.45)
    target = limit_constant_target(alpha)
    gaps = [abs(limit_constant(q, alpha) - target) / abs(target) for q in _Q_SEQ]
    return _monotone_record({"alpha": alpha}, gaps)


def _q_fourier_classical_limit(rng, *_):
    alpha = _udraw(rng, 1.1, 1.8)
    beta = _udraw(rng, 2.1, 2.8)
    t = float(rng.choice([0.0, 0.7, math.pi, 1.5 * math.pi]))
    target = h_of_q_target(alpha, beta, t)
    gaps = [abs(h_of_q(q, alpha, beta, t) - target) for q in _Q_SEQ]
    return _monotone_record({"alpha": alpha, "beta": beta, "t": t}, gaps,
                            strict=False)


def _q_gamma_classical_limit(rng, *_):
    x = _udraw(rng, 0.4, 4.0)
    target = gamma(complex(x))
    return _monotone_record({"x": x},
                            [abs(q_gamma(x, q) - target) for q in _Q_SEQ])


def _qpoch_asymptotic_bound(rng, *_):
    r = _udraw(rng, 0.1, 0.85)
    th = _udraw(rng, 0.4, 5.9)
    a = r * cmath.exp(1j * th)
    worst = 0.0
    for u in (0.1, 0.05, 0.025):
        mgap = lemma_qpoch_log_gap(a, u)
        bound = qpoch_inf_asymptotic(a, 0.0, u).error_bound
        worst = max(worst, mgap - bound)
    return {"a": a}, complex(max(worst, 0.0)), 0j


def _qpoch_asymptotic_shifted(rng, *_):
    a = complex(_udraw(rng, 0.1, 0.5), _udraw(rng, 0.05, 0.4))
    alpha = _udraw(rng, 0.5, 2.0)
    gaps = []
    for u in (0.1, 0.05, 0.025):
        q = math.exp(-u)
        approx = qpoch_inf_asymptotic(a, alpha, u).value
        exact = cmath.exp(log_qpoch_inf(a * q ** alpha, q))
        gaps.append(abs(approx / exact - 1.0))
    return _monotone_record({"a": a, "alpha": alpha}, gaps)


# -- the registry ----------------------------------------------------------------

_HIGH_ORDER_BETA = (BetaKind.M5_VWP, BetaKind.M5_VWP_SHIFTED,
                    BetaKind.M5_VWP_THIRD, BetaKind.M6_RIEMANN)

# Suites run their entries in this order, once per draw.
IDENTITIES: Tuple[Identity, ...] = (
    Identity("cauchy-cosine-integral", "classical-core",
             Tolerance(rel=1e-9, abs=1e-12), _cauchy_cosine),
    Identity("fourier-single-factor", "classical-core", TOL_CLASSICAL,
             _fourier_single_factor),
    Identity("riemann-grid-sum", "classical-core", TOL_CLASSICAL, _riemann_grid_sum),
    Identity("grid-sum-p-invariance", "classical-core", TOL_CLASSICAL,
             _grid_sum_p_invariance),
    Identity("compact-support", "classical-core", Tolerance(abs=1e-8),
             _compact_support),
    Identity("integral-series-representation", "classical-core", TOL_CLASSICAL,
             _integral_series_representation),
    Identity("sum-1h1-exp", "classical-core", TOL_CLASSICAL,
             partial(_sum_1h1_exp, HKind.ONE_H1_MINUS_EXP,
                     -0.85 * math.pi, 0.85 * math.pi)),
    Identity("sum-1h1-exp-plus", "classical-core", TOL_CLASSICAL,
             partial(_sum_1h1_exp, HKind.ONE_H1_PLUS_EXP,
                     0.2 * math.pi, 1.8 * math.pi)),
    Identity("sum-1h1-unit", "classical-core", Tolerance(abs=1e-9), _sum_1h1_unit),
    *(Identity(iid, "classical-core", TOL_CLASSICAL,
               partial(_summation_theorem, kind))
      for iid, kind in (("sum-2h2-gauss", HKind.GAUSS_2H2),
                        ("sum-3h3-well-poised", HKind.WELL_POISED_3H3),
                        ("sum-4h4-very-well-poised", HKind.VWP_4H4_MINUS1),
                        ("sum-5h5-very-well-poised", HKind.VWP_5H5))),
    Identity("symmetry-transform", "classical-core", TOL_CLASSICAL,
             _symmetry_transform),
    Identity("gamma-reflection", "classical-core",
             Tolerance(rel=1e-12, abs=1e-300), _gamma_reflection),
    Identity("dilog-pair-identity", "classical-core", Tolerance(abs=1e-11),
             _dilog_pair),
    Identity("gamma-duplication-instance", "classical-core",
             Tolerance(rel=1e-11, abs=1e-13), _gamma_duplication),

    *(Identity(f"beta-{kind.value}", "classical-beta",
               TOL_HIGH_ORDER if kind in _HIGH_ORDER_BETA
               else Tolerance(rel=1e-7, abs=1e-12),
               partial(_beta_integral, kind))
      for kind in BetaKind),
    Identity("grid-sum-alternating-identity", "classical-beta", TOL_HIGH_ORDER,
             _grid_sum_alternating),
    Identity("degenerate-series-reduction", "classical-beta", TOL_CLASSICAL,
             _degenerate_series_reduction),
    Identity("barnes-vertical-line", "classical-beta", TOL_CLASSICAL,
             _barnes_vertical_line),
    Identity("double-cosine-power-question", "classical-beta",
             Tolerance(rel=1e-6, abs=1e-9), _double_cosine_power),

    Identity("qpoch-negative-dual", "q-core", Tolerance(rel=1e-12, abs=1e-300),
             _qpoch_negative_dual),
    Identity("sum-1psi1", "q-core", Tolerance(rel=1e-9, abs=1e-13), _sum_1psi1),
    Identity("sum-6psi6", "q-core", Tolerance(rel=1e-9, abs=1e-13), _sum_6psi6),
    Identity("jacobi-triple-product", "q-core",
             Tolerance(rel=1e-10, abs=1e-13), _jacobi_triple_product),
    Identity("q-fourier-plain", "q-core", Tolerance(rel=1e-7, abs=1e-13),
             _q_fourier_plain),
    Identity("q-fourier-strip", "q-core", Tolerance(rel=1e-7, abs=1e-13),
             _q_fourier_strip),
    Identity("q-gaussian-integral", "q-core", Tolerance(rel=1e-9, abs=1e-13),
             _q_gaussian_integral),
    Identity("abel-poisson-kernel", "q-core", Tolerance(rel=1e-4, abs=1e-8),
             _abel_poisson_kernel),
    Identity("qpoch-exponent-bound", "q-core", Tolerance(abs=1e-13),
             _qpoch_exponent_bound),
    Identity("qpoch-ratio-monotone", "q-core", Tolerance(abs=1e-13),
             _qpoch_ratio_monotone),

    *(entry for kind in (QBetaKind.I_FULL, QBetaKind.I_D0, QBetaKind.I_C0,
                         QBetaKind.I_3PSI6, QBetaKind.I_2PSI6)
      for entry in _qbeta_entries(kind)),
    *(Identity(f"qbeta-{kind.value}-gamma-form", "q-beta", TOL_Q,
               partial(_qbeta_gamma_form, kind),
               tag=f"qbeta-{kind.value}-gammaform")
      for kind in (QBetaKind.I_FULL, QBetaKind.I_D0)),
    Identity("doubled-argument-beta", "q-beta", Tolerance(rel=1e-7, abs=1e-12),
             _doubled_argument_beta),
    Identity("doubled-argument-vs-shifted", "q-beta",
             Tolerance(rel=1e-12, abs=1e-15), _doubled_argument_vs_shifted),

    Identity("basic-to-classical-limit", "limits", Tolerance(abs=1e-2),
             _basic_to_classical_limit),
    Identity("q-binomial-ratio-limit", "limits", Tolerance(abs=1e-2),
             _q_binomial_ratio_limit),
    Identity("qbeta-limit-constant", "limits", Tolerance(abs=5e-3),
             _qbeta_limit_constant),
    Identity("q-fourier-classical-limit", "limits", Tolerance(abs=2e-2),
             _q_fourier_classical_limit),
    Identity("q-gamma-classical-limit", "limits", Tolerance(abs=1e-2),
             _q_gamma_classical_limit),
    # lhs is the violation of the bound and rhs 0: only a violation of at
    # most the least positive double passes
    Identity("qpoch-asymptotic-bound", "limits", Tolerance(abs=math.ulp(0.0)),
             _qpoch_asymptotic_bound),
    Identity("qpoch-asymptotic-shifted", "limits", Tolerance(abs=2e-2),
             _qpoch_asymptotic_shifted),
)

SUITE_NAMES = tuple(dict.fromkeys(entry.suite for entry in IDENTITIES))


# -- the runner ------------------------------------------------------------------

@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    draws_per_identity: int = 2
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"known: {', '.join(SUITE_NAMES)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.draws_per_identity < 1:
            raise ValueError("draws_per_identity must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")


@dataclass
class SuiteReport:
    """The records of one suite run.  ``max_rel_gap`` is taken over records
    with a nonzero target and ``max_abs_gap`` over the rest, whose
    ``rel_gap`` is 1 by construction."""
    records: List[VerificationRecord]
    config: SuiteConfig

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def max_rel_gap(self) -> float:
        return max((r.rel_gap for r in self.records if r.rhs != 0), default=0.0)

    @property
    def max_abs_gap(self) -> float:
        return max((r.abs_gap for r in self.records if r.rhs == 0), default=0.0)


def suite_jobs(suite: str, draws: int) -> List[Tuple[int, Identity]]:
    """The (draw, identity) pairs of a suite in record order, unevaluated."""
    return [(draw, entry) for draw in range(draws)
            for entry in IDENTITIES if entry.suite == suite]


def _run_job(seed: int, job: Tuple[int, Identity]) -> VerificationRecord:
    draw, entry = job
    # built before the clock starts: the first default_rng call of a
    # process imports numpy.random's generator machinery (8-24 ms)
    rng = _rng_for(seed, entry.tag, draw)
    t0 = time.perf_counter()
    try:
        rec = VerificationRecord.compare(
            entry.id, *entry.check(rng, draw), entry.tol)
    except Exception as exc:
        # one bad draw fails its record, not the suite
        rec = VerificationRecord(entry.id, {"error": str(exc),
                                            "error_class": type(exc).__name__},
                                 0j, 0j, math.inf, math.inf,
                                 Tolerance(abs=1e-300), False)
    rec.runtime_ms = (time.perf_counter() - t0) * 1e3
    return rec


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite in record order on the calling thread;
    deterministic in (suite, seed, draws) apart from the runtime_ms fields,
    each of which is its own record's cost."""
    return SuiteReport([_run_job(config.seed, job) for job in
                        suite_jobs(config.suite, config.draws_per_identity)],
                       config)


# -- serialization ---------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def record_to_dict(rec: VerificationRecord) -> Dict:
    return {
        "identity_id": rec.identity_id,
        "inputs": _jsonable(rec.inputs),
        "lhs": _jsonable(complex(rec.lhs)),
        "rhs": _jsonable(complex(rec.rhs)),
        "abs_gap": rec.abs_gap,
        "rel_gap": rec.rel_gap,
        "tol": {"abs": rec.tol.abs, "rel": rec.tol.rel},
        "pass": bool(rec.passed),
        "runtime_ms": rec.runtime_ms,
    }


def report_to_dict(report: SuiteReport) -> Dict:
    return {
        "schema": 1,
        "tool_version": _tool_version,
        "config": {
            "suite": report.config.suite,
            "seed": report.config.seed,
            "draws_per_identity": report.config.draws_per_identity,
            "format": report.config.format,
        },
        "summary": {
            "total": report.total,
            "passed": report.passed,
            "failed": report.failed,
            "max_rel_gap": report.max_rel_gap,
            "max_abs_gap": report.max_abs_gap,
        },
        "records": [record_to_dict(r) for r in report.records],
    }


def _finite_json(v):
    """v with each non-finite float as the string "inf", "-inf" or "nan",
    which RFC 8259 JSON can hold."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, list):
        return [_finite_json(x) for x in v]
    if isinstance(v, dict):
        return {k: _finite_json(x) for k, x in v.items()}
    return v


def report_to_json(report: SuiteReport) -> str:
    """The report as strict JSON: a non-finite number, such as the gaps of
    a record whose check raised, is written as a string (_finite_json)."""
    return json.dumps(_finite_json(report_to_dict(report)), indent=2,
                      sort_keys=True, allow_nan=False)


_CSV_COLUMNS = ["identity_id", "inputs", "lhs_re", "lhs_im", "rhs_re",
                "rhs_im", "abs_gap", "rel_gap", "tol_abs", "tol_rel", "pass",
                "runtime_ms"]


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for r in report.records:
        w.writerow([
            r.identity_id,
            json.dumps(_jsonable(r.inputs), sort_keys=True),
            repr(complex(r.lhs).real), repr(complex(r.lhs).imag),
            repr(complex(r.rhs).real), repr(complex(r.rhs).imag),
            repr(r.abs_gap), repr(r.rel_gap),
            repr(r.tol.abs), repr(r.tol.rel),
            int(r.passed), repr(r.runtime_ms),
        ])
    return buf.getvalue()


def report_to_text(report: SuiteReport) -> str:
    """The report serialized in its configured format."""
    return (report_to_json(report) if report.config.format == "json"
            else report_to_csv(report))


def write_report(report: SuiteReport, path: str) -> None:
    """Atomic write (temp file + rename) of the serialized report."""
    text = report_to_text(report)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
