"""Quadrature of Ramanujan-type integrals

    integral over R of  e^(-i x t) * W(x) / prod_j Gamma(a_j+1+x) Gamma(b_j+1-x)

with trigonometric-polynomial weights W, the grid-sum (Poisson) route to the
same integrals, integral representations of bilateral series, and the
closed-form beta-integral values.

The quadrature is composite Gauss on [-X, X] plus analytically reflected,
Levin-accelerated oscillatory tails: on each side the integrand factors into
a smooth algebraically-decaying part and a trigonometric polynomial, so the
tail is a sum of single-signal interval series that accelerate extremely
well.  Every Gauss panel of this module, barnes_quadrature's too, takes the
one 16-point rule.

Both parts take their nodes on a unit lattice, node = k + cell with k an
integer row and cell the Gauss nodes of one unit interval, because the
gamma products have a rational unit step: the core's
prod_j 1/(Gamma(a_j+1+x) Gamma(b_j+1-x)) is multiplied by
prod_j (b_j - x)/(a_j + 1 + x) from x to x + 1, and the tails' smooth part
R by prod_j (x - num_j)/(den_j + 1 + x).  Gamma functions are evaluated
only on anchor rows, and every other row is carried from its neighbour by
that product.  The core is carried outward from the two rows next to the
peak of the product, where the direct values are the most accurate; each
tail from its first row, whose R is a difference of Stirling series.  A
row that a step with a denominator factor of modulus below 1 enters is an
anchor too: that step leaves a zero of 1/Gamma, and dividing by the small
factor would magnify the rounding of the anchor's arguments.  In the
tails, X >= max|Re param| + 8 keeps every factor at least 8 away from
zero, so the first row is their only anchor.

On the lattice the phases separate too: e^(i w (k + cell)) is a row factor
e^(i w k) times a cell factor e^(i w cell).  The core's weight and phase
sum_nu c_nu e^(i (nu - t) x) is then a sum of outer products of a row and a
cell vector, one per weight term, and each tail's unit-interval integrals of
R(x) e^(i w x), for all of its distinct frequencies w at once, are one
matrix product of R's rows with the cell-by-frequency matrix of the phases
times the Gauss weights, scaled by the row phases.  Exponentials are taken
on rows and cells only, not on every node.  When every a_j and b_j is real
the lattices are real too, and are built in float64; only the phases are
complex.

Where a check needs a kernel at several points it makes one array call:
both tails' interval series go to one Levin call, whose rows come out as
they would alone, and the closed forms' gamma products
(bilateral._gamma_ratio) are one gamma or recip_gamma call per list.  The
pair product, on the core's anchors and for the grid-sum prefactors, is
exp(-sum log Gamma) from one log_gamma call, so no factor leaves the
double range on its own.  The double integral maps every inner interval
onto (0, 1), so all inner integrals of an outer tanh-sinh level share one
node set and one tanh_sinh call.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .acceleration import levin_u
from .bilateral import (BilateralSeriesSpec, _gamma_ratio, eval_H,
                        cancel_matching_parameters)
from .errors import ConstraintViolation, MarginViolation
# recip_gamma is not called here: perfbench's tracer tests check that the
# tracer restores this module's binding of it
from .gammafns import (_log_abs_gamma, gamma, log_gamma,
                       log_gamma_shift_ratio, recip_gamma)  # noqa: F401
from .quadrature import (_MAX_NODES, _RULES, QuadratureResult, panel_nodes,
                         panel_sums, tanh_sinh)

__all__ = [
    "IntegrandSpec", "QuadratureResult", "weight_gm", "integrate",
    "cauchy_cosine_integral", "poisson_terms", "poisson_sum_rhs",
    "integral_repr_H", "BetaKind", "beta_integral_closed",
    "integrand_spec_for", "barnes_closed", "barnes_quadrature",
    "double_integral_open_question",
]

WeightTerm = Tuple[complex, float]


def weight_gm(m: int) -> Tuple[WeightTerm, ...]:
    """Exponential-term expansion of the Dirichlet-type weight
    sin(m pi x)/sin(pi x)."""
    if m < 1:
        raise ValueError("m must be positive")
    terms: List[WeightTerm] = []
    if m % 2 == 1:
        terms.append((1.0 + 0j, 0.0))
        for n in range(1, (m - 1) // 2 + 1):
            terms.append((1.0 + 0j, 2 * n * math.pi))
            terms.append((1.0 + 0j, -2 * n * math.pi))
    else:
        for n in range(1, m // 2 + 1):
            terms.append((1.0 + 0j, (2 * n - 1) * math.pi))
            terms.append((1.0 + 0j, -(2 * n - 1) * math.pi))
    return tuple(terms)


def weight_cos(coeff: complex, freq: float) -> Tuple[WeightTerm, WeightTerm]:
    """coeff * 2cos(freq x) as two exponential terms."""
    return ((complex(coeff), float(freq)), (complex(coeff), -float(freq)))


@dataclass(frozen=True)
class IntegrandSpec:
    """m-factor reciprocal-gamma integrand with frequency t and an optional
    trigonometric weight given as complex-exponential terms."""

    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    t: float
    weight: Tuple[WeightTerm, ...] = ()

    def __init__(self, a: Sequence[complex], b: Sequence[complex], t: float,
                 weight: Sequence[WeightTerm] = ()):
        if len(a) != len(b) or len(a) == 0:
            raise ValueError("a and b must be equal-length nonempty lists")
        object.__setattr__(self, "a", tuple(complex(x) for x in a))
        object.__setattr__(self, "b", tuple(complex(x) for x in b))
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "weight",
                           tuple((complex(c), float(f)) for c, f in weight))

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def decay_exponent(self) -> complex:
        return sum(self.a) + sum(self.b) + self.m

    def margin(self) -> float:
        return self.decay_exponent.real - 1.0

    def weight_terms(self) -> Tuple[WeightTerm, ...]:
        return self.weight if self.weight else ((1.0 + 0j, 0.0),)


def _require_margin(spec: IntegrandSpec) -> None:
    if spec.margin() <= 0:
        raise MarginViolation(
            f"integrability margin {spec.margin():.3g} must be positive")


def _lattice_params(spec: IntegrandSpec) -> Tuple[Tuple, Tuple]:
    """spec.a and spec.b, as floats when all of them are real, so that the
    lattices built from them run in float64."""
    if any(v.imag for v in spec.a + spec.b):
        return spec.a, spec.b
    return tuple(v.real for v in spec.a), tuple(v.real for v in spec.b)


def _pair_product(spec: IntegrandSpec, x: np.ndarray) -> np.ndarray:
    """prod_j 1/(Gamma(a_j+1+x) Gamma(b_j+1-x)) by direct evaluation at real
    x, as exp(-sum log Gamma) from one log-gamma call on all 2m factors'
    arguments, so that no factor leaves the double range on its own.  Real
    parameters give a float64 product: the signs times exp(-sum log|Gamma|)."""
    a, b = _lattice_params(spec)
    z = np.stack([aj + 1.0 + x for aj in a] + [bj + 1.0 - x for bj in b])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        if np.iscomplexobj(z):
            return np.exp(-log_gamma(z).sum(axis=0))
        lg, sign = _log_abs_gamma(z)
        return sign.prod(axis=0) * np.exp(-lg.sum(axis=0))


def _phases(freqs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """e^(i w y), one row per point y and one column per frequency w."""
    return np.exp(1j * np.multiply.outer(y, freqs))


_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_SUBNORMAL = np.finfo(float).smallest_subnormal


def _unit_lattice(x: np.ndarray, direct,
                  step) -> Tuple[np.ndarray, np.ndarray]:
    """A function v on the unit lattice x, whose row k + 1 is row k plus 1,
    and each row's distance from its anchor row, in rows.

    direct(nodes) evaluates v; step(nodes) yields one (num, den) pair per
    factor of v(x + 1) = v(x) * prod(num / den).  Rows are evaluated
    directly only at anchors and carried by the step product in between.
    The first row is an anchor, and so is every row that a step with a
    denominator factor of modulus below 1 enters: such a step leaves a zero
    of v, and dividing by the small factor, rounded more finely than the
    anchor's arguments, would magnify their rounding.  An element whose
    anchor or carried value is not a finite, normal, nonzero float is
    evaluated directly as well.  v takes the dtype of the step's factors:
    real factors carry a real v.
    """
    rows = len(x)
    ratio = None
    anchor = np.zeros(rows, dtype=bool)
    anchor[0] = True
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        for num, den in step(x[:-1]):
            anchor[1:] |= (np.abs(den) < 1.0).any(axis=1)
            q = num / den
            ratio = (np.ones(q.shape, q.dtype) if ratio is None else ratio) * q
        starts = np.flatnonzero(anchor)
        v = np.empty(x.shape, dtype=ratio.dtype)
        v[starts] = direct(x[starts])
        for lo, hi in zip(starts, list(starts[1:]) + [rows]):
            v[lo + 1:hi] = v[lo] * np.multiply.accumulate(ratio[lo:hi - 1])
        origin = starts[np.cumsum(anchor) - 1]
        good = np.isfinite(v) & (np.abs(v) >= _TINY)
        bad = ~(good & good[origin])
        if bad.any():
            v[bad] = direct(x[bad])
    return v, np.arange(rows) - origin


def _lattice_rounding(fw: np.ndarray, hops: np.ndarray, anchor_rel: np.ndarray,
                      factors: int) -> float:
    """An estimate of the rounding error of sum(fw), fw = v times phases and
    weights for a function v on a lattice of _unit_lattice, one row per
    lattice row in carry order, from each row's distance from its anchor
    (hops) and bounds on the anchor rows' relative errors (anchor_rel, one
    row per anchor): 8 ulps of sum |fw| for the products and the sum, at
    least a subnormal spacing a summed term where those ulps underflow, plus
    the errors of v.  Those are independent roundings, each of which scales
    alike the rows from the node where it enters to the end of its run, so
    each weighs that column's partial sum, and they add in quadrature: an
    anchor node's error, and each carry step's, 4 ulps a factor (its num
    and den, their quotient and its product into the ratio) and 2 for the
    running product.
    """
    step_rel = (4 * factors + 2) * _EPS
    starts = np.flatnonzero(hops == 0)
    # the sum of each column from each row to the end of its run
    after = np.cumsum(fw[::-1], axis=0)[::-1]
    if len(starts) > 1:
        run_end = np.append(starts[1:], len(fw))[np.cumsum(hops == 0) - 1]
        after = after - np.vstack((after, np.zeros(fw.shape[1])))[run_end]
    terms = np.abs(after)
    terms[starts] *= anchor_rel / step_rel
    # scaled, so that the squares of tiny integrands do not underflow
    scale = terms.max()
    if scale:
        terms /= scale
    flat = terms.ravel()
    return (max(8.0 * _EPS * float(np.abs(fw).sum()), _SUBNORMAL * fw.size)
            + step_rel * scale * math.sqrt(flat @ flat))


def _recip_gamma_error(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A bound on the relative error of 1/Gamma(z), by recip_gamma or as a
    factor of _pair_product, z = p + node rounded (p broadcast against z):
    the rounding of p and of z times the logarithmic derivative, which is
    at most |log |w|| + pi/2 + 1 on w = z or, reflected, 1 - z, plus
    pi |cot(pi z)| <= pi + pi / (2 d) there, d the distance of Re z from
    the integers; that also covers the Stirling sum's ulps of |w log w|.
    Plus 16 ulps for the Lanczos sum and the exponential, and at most 1
    (within 0.7 of this on 5,800 points of |z| <= 160 against 40-digit
    mpmath)."""
    az = np.abs(z)
    left = z.real < 0.5
    d = np.abs(z.real - np.round(z.real))
    with np.errstate(divide="ignore"):
        sens = (np.abs(np.log(np.where(left, np.abs(1.0 - z), az)))
                + (1.0 + 0.5 * math.pi)
                + np.where(left, math.pi + 0.5 * math.pi / d, 0.0))
    return np.minimum(_EPS * ((np.abs(p) + az + 1.0) * sens + 16.0), 1.0)


# the Gauss rule of every panel: the core's, the tails' and Barnes'
_GAUSS_N = 16
# Gauss panels a unit interval take signals up to omega with omega h at
# most these angles.  The tails' is the rule's 1e-17 h bound.  The core's
# stays at 6: wider core panels left the beta kinds' integrals further
# from their closed forms (p90 gap 3.5e-15 at 8 and 4.4e-15 at 14.85,
# against 3.3e-15 at 6), so there the integrand, not the rule, sets it
_CORE_ANGLE = 6.0
_TAIL_ANGLE = 14.85


def _panels_per_unit(omega: float, angle: float) -> int:
    """Gauss panels a unit interval for signals up to frequency omega = w,
    each of width h with w h <= angle: the n-point rule errs on e^(i w x)
    over a panel by at most h (w h)^(2n) (n!)^4 / ((2n + 1) ((2n)!)^3),
    below 1e-17 h up to w h = 14.9 for 16 points."""
    return max(1, math.ceil(omega / angle))


def _unit_cell(sub: int) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes of sub equal Gauss panels of [0, 1], panel by panel, and
    their weights."""
    nodes, half = panel_nodes(np.linspace(0.0, 1.0, sub + 1), _GAUSS_N)
    return nodes, (half[:, None] * _RULES[_GAUSS_N][1][None, :]).ravel()


def _core_lattice(spec: IntegrandSpec, X: int, sub: int) -> Tuple[
        np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The core nodes, one row per unit interval [k, k + 1], k = -X..X-1,
    each row the nodes of _unit_cell(sub), the pair product
    on them, and, for _lattice_rounding, its rows in carry order (the upward
    carry's, then the downward one's), their distances from their anchors
    and bounds on the anchors' relative errors.

    The product is carried outward from the two rows around
    x = Re sum_j (b_j - a_j) / 2m, near its peak, where the direct values are
    the most accurate: upward in x, and downward as upward in y = -x, in
    which the product has the same form with a and b swapped.
    """
    x = np.arange(-X, X, dtype=float)[:, None] + _unit_cell(sub)[0][None, :]
    peak = (sum(spec.b) - sum(spec.a)).real / (2 * spec.m)
    mid = min(max(math.floor(peak) + X, 1), 2 * X - 1)
    a, b = _lattice_params(spec)

    def up(y):
        for aj, bj in zip(a, b):
            yield bj - y, aj + 1.0 + y

    def down(y):
        for aj, bj in zip(a, b):
            yield aj - y, bj + 1.0 + y

    upper, up_hops = _unit_lattice(x[mid:], lambda y: _pair_product(spec, y), up)
    lower, down_hops = _unit_lattice(-x[mid - 1::-1],
                                     lambda y: _pair_product(spec, -y), down)
    # both carries as one lattice of two runs, in carry order, and the
    # anchors' arguments a_j + 1 + x and b_j + 1 - x
    order = np.concatenate((np.arange(mid, 2 * X), np.arange(mid - 1, -1, -1)))
    hops = np.concatenate((up_hops, down_hops))
    u = x[order[hops == 0]]
    p = np.array(spec.a + spec.b)[:, None, None] + 1.0
    anchor_rel = _recip_gamma_error(
        p, np.concatenate((p[:spec.m] + u, p[spec.m:] - u))).sum(axis=0)
    return x, np.concatenate((lower[::-1], upper)), (order, hops, anchor_rel)


def _core(spec: IntegrandSpec, X: int, sub: int) -> Tuple[complex, float, int]:
    """Gauss panels on [-X, X], sub a unit interval, as (value, an estimate
    of its rounding error, panels).  The weight and phase are row factors
    times cell factors, and the rounding is the pair product's
    _lattice_rounding."""
    x, G, (order, hops, anchor_rel) = _core_lattice(spec, X, sub)
    cell, weights = _unit_cell(sub)
    terms = spec.weight_terms()
    freqs = np.array([nu - spec.t for _, nu in terms])
    coefs = np.array([cc for cc, _ in terms])
    f = G * ((_phases(freqs, np.arange(-X, X, dtype=float)) * coefs)
             @ _phases(freqs, cell).T)
    n = len(x) * sub
    return (complex(panel_sums(f.reshape(n, _GAUSS_N), 0.5 / sub).sum()),
            _lattice_rounding(f[order] * weights, hops, anchor_rel, spec.m), n)


def _sin_product_harmonics(params: Sequence[complex]) -> Dict[int, complex]:
    """Coefficients gamma_h with prod_j sin(pi(x - p_j)) =
    sum_h gamma_h exp(i pi h x), h = m, m - 2, ..., -m: the product of the
    factors (e^(i pi x) e^(-i pi p_j) - e^(-i pi x) e^(i pi p_j)) / 2i."""
    coeffs = [1.0 + 0j]
    for pj in params:
        up = cmath.exp(-1j * math.pi * pj) / 2j
        down = -cmath.exp(1j * math.pi * pj) / 2j
        coeffs = [c * up + d * down
                  for c, d in zip(coeffs + [0j], [0j] + coeffs)]
    m = len(params)
    return {m - 2 * k: c for k, c in enumerate(coeffs)}


# unit intervals summed and accelerated per tail signal
_TAIL_INTERVALS = 48


def _tail_R(num_params: Sequence[complex], den_params: Sequence[complex],
            X: int, cell: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """The tail nodes X + n + cell, one row per unit interval n,
    R(x) = prod_j Gamma(x - num_j)/Gamma(den_j + 1 + x) on them, and the
    rows' distances from their anchors with a bound on the anchors' relative
    errors, for _lattice_rounding.  With X >= max|Re param| + 8 every factor
    of the carry is at least 8 away from zero, so only the first row is
    evaluated, by differences of Stirling series (one stacked call over j)
    that keep R's relative error near that of the carry: within
    sum_j (|num_j| + |den_j + 1|) (log x + 1) ulps (within 0.87 of this on
    280 draws of m = 1-6 against 40-digit mpmath)."""
    x = X + np.arange(_TAIL_INTERVALS, dtype=float)[:, None] + cell[None, :]
    nums = np.array(num_params)[:, None]
    dens = np.array(den_params)[:, None] + 1.0
    spread = float(np.abs(nums).sum() + np.abs(dens).sum())

    def direct(y):
        log_R = log_gamma_shift_ratio(y.reshape(1, -1), -nums, dens).sum(axis=0)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(log_R).reshape(y.shape)

    def step(y):
        for nj, dj in zip(num_params, den_params):
            yield y - nj, dj + 1.0 + y

    R, hops = _unit_lattice(x, direct, step)
    return x, R, (hops, _EPS * spread * (np.log(x[hops == 0]) + 1.0))


def _interval_integrals(R: np.ndarray, cell: np.ndarray, weights: np.ndarray,
                        start: int, freqs: np.ndarray) -> np.ndarray:
    """The integrals of R(x) e^(i w x) over the unit intervals
    [start + n, start + n + 1], one row per interval n and one column per
    frequency w, from R on the nodes start + n + cell (one row per interval)
    and the cell's quadrature weights.  The phase separates into a row and
    a cell factor, e^(i w (start + n)) e^(i w cell), so every frequency's
    intervals come from one matrix product."""
    rows = start + np.arange(len(R), dtype=float)
    return ((R @ (_phases(freqs, cell) * weights[:, None]))
            * _phases(freqs, rows))


# 2^1074 times a finite double is an integer
_EXACT_SCALE = 1 << 1074


def _exact(v: float) -> int:
    """v times 2^1074, exactly."""
    n, d = v.as_integer_ratio()
    return n * (_EXACT_SCALE // d)


def _tail_signals(harmonics: Dict[int, complex],
                  tau_terms: Sequence[WeightTerm]) -> List[List]:
    """[frequency, coefficient] of each distinct frequency pi h - tau over
    the (weight term, harmonic) pairs, in order of first appearance, with
    the coefficients c gamma_h of its pairs added.  Frequencies are compared
    as exact rationals of the doubles pi and tau (scaled by 2^1074 to
    integers), so two distinct frequencies never merge; a frequency takes
    the rounded value of its first pair."""
    pi = _exact(math.pi)
    signals: Dict[int, List] = {}
    for cc, tau in tau_terms:
        if cc == 0:
            continue
        t = _exact(tau)
        for h, gh in harmonics.items():
            key = h * pi - t
            if key in signals:
                signals[key][1] += cc * gh
            else:
                signals[key] = [math.pi * h - tau, cc * gh]
    return list(signals.values())


def _tail_one_side(num_params: Sequence[complex], den_params: Sequence[complex],
                   tau_terms: Sequence[WeightTerm], X: int, sub: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit-interval series of the integral from X to infinity of
        R(x) * prod_j sin(pi(x - num_j))/pi^m * sum_k c_k exp(-i tau_k x) dx
    with R(x) = exp(sum_j lgamma(x - num_j) - lgamma(den_j + 1 + x)), one
    per distinct frequency pi h - tau of the (weight term, harmonic)
    signals (_tail_signals), as (series, coefficients, rounding): one
    series a row, to be Levin-summed, and integrate's tails are
    sum_rows coefficient * Levin sum / pi^m.  Equal frequencies have equal
    series, so each is summed once with its signals' coefficients added.
    Each interval is split into sub Gauss panels.  A row's summed intervals
    round by about its coefficient's modulus times its entry of
    `rounding`, the _lattice_rounding of |R| w, which covers every row's.
    """
    signals = _tail_signals(_sin_product_harmonics(num_params), tau_terms)
    if not signals:
        return (np.empty((0, _TAIL_INTERVALS), dtype=complex),
                np.empty(0, dtype=complex), np.empty(0))
    freqs, coefs = (np.array(v) for v in zip(*signals))
    cell, weights = _unit_cell(sub)
    _, R, (hops, anchor_rel) = _tail_R(num_params, den_params, X, cell)
    rounding = _lattice_rounding(np.abs(R) * weights, hops, anchor_rel,
                                 len(num_params))
    return (_interval_integrals(R, cell, weights, X, freqs).T, coefs,
            np.full(len(coefs), rounding))


def _choose_X(spec: IntegrandSpec) -> int:
    """The truncation point: 8 + 2 max(|Re param|, |Im param|), clamped to
    [16, 96], then moved out to max|Re param| + 8.  The Levin transform of
    the tails sums their algebraic decay past any X, so X depends on the
    parameters alone."""
    re_max = max(abs(x.real) for x in spec.a + spec.b)
    im_max = max(abs(x.imag) for x in spec.a + spec.b)
    # the tails take log-gammas on Re z >= 1/2 and carry R by factors that
    # must stay clear of zero: never start them inside the parameters
    return math.ceil(max(min(max(16.0, 8.0 + 2.0 * max(re_max, im_max)), 96.0),
                         re_max + 8.0))


def integrate(spec: IntegrandSpec) -> QuadratureResult:
    """Evaluate the integral by Gauss panels on [-X, X] plus reflected,
    accelerated oscillatory tails on both sides, with X = _choose_X(spec).
    The integrand is band-limited to the frequencies
    |w| <= omega = m pi + |t| + max |nu|, so the panels a unit interval
    are _panels_per_unit(omega, angle) for each part's rule.  An omega
    and X for which the core would take more than _MAX_NODES raise
    ConstraintViolation; |t| > m pi + max|nu| makes the integral 0 anyway.
    The error estimate adds the core's and the tails' rounding
    (_lattice_rounding) to 8 times the tails' Levin estimates."""
    _require_margin(spec)
    wmax = max((abs(nu) for _, nu in spec.weight_terms()), default=0.0)
    omega = spec.m * math.pi + abs(spec.t) + wmax
    X = _choose_X(spec)
    sub = _panels_per_unit(omega, _CORE_ANGLE)
    nodes = 2 * X * _GAUSS_N * sub
    if nodes > _MAX_NODES:
        raise ConstraintViolation(
            f"frequency omega = {omega:.4g} on [-X, X], X = {X}, needs "
            f"{float(nodes):.4g} core nodes, more than {_MAX_NODES}")
    core, core_err, n_panels = _core(spec, X, sub)
    # right tail: reflect the b-gammas; left tail via x -> -y: reflect the
    # a-gammas.  Both tails' signals go to one Levin call.
    tail_sub = _panels_per_unit(omega, _TAIL_ANGLE)
    a, b = _lattice_params(spec)
    tails = [_tail_one_side(num, den, [(cc, sign * (spec.t - nu))
                                       for cc, nu in spec.weight_terms()],
                            X, tail_sub)
             for num, den, sign in ((b, a, 1.0), (a, b, -1.0))]
    seqs, coefs, rounding = (np.concatenate(parts) for parts in zip(*tails))
    values, errs = levin_u(seqs)
    scale = math.pi ** spec.m
    tail = complex(coefs @ values) / scale
    tail_err = float(np.abs(coefs) @ (8.0 * errs + rounding)) / scale
    return QuadratureResult(core + tail, core_err + tail_err,
                            n_panels, float(X))


def fourier_single_factor(a: complex, b: complex, t: float) -> complex:
    """Closed-form Fourier transform of a single reciprocal-gamma factor:
    compactly supported on |t| <= pi."""
    if abs(t) > math.pi:
        return 0j
    a = complex(a)
    b = complex(b)
    return ((2.0 * math.cos(t / 2.0)) ** (a + b) / gamma(a + b + 1.0)
            * cmath.exp(-0.5j * t * (b - a)))


def cauchy_cosine_integral(gamma_: complex, delta: complex
                           ) -> Tuple[complex, complex]:
    """Finite cosine-power integral by tanh-sinh quadrature and its
    gamma-ratio value, as (quadrature, closed form)."""
    gamma_ = complex(gamma_)
    delta = complex(delta)
    if gamma_.real <= -0.9:
        raise MarginViolation("needs Re gamma > -0.9 for stable quadrature")

    def f(tt: np.ndarray) -> np.ndarray:
        return np.cos(tt) ** gamma_ * np.exp(1j * delta * tt)

    lhs, _ = tanh_sinh(f, -math.pi / 2.0, math.pi / 2.0, max_level=11)
    rhs = (math.pi * gamma(gamma_ + 1.0)
           / (2.0 ** gamma_ * gamma(1.0 + 0.5 * (gamma_ + delta))
              * gamma(1.0 + 0.5 * (gamma_ - delta))))
    return lhs, rhs


# -- Poisson/grid-sum route ----------------------------------------------------

def poisson_terms(spec: IntegrandSpec, p: int) -> List[complex]:
    """The p grid-sum components S_0..S_{p-1}, each a bilateral series;
    their sum equals the integral for |t| <= p pi."""
    _require_margin(spec)
    if p < spec.m:
        raise ConstraintViolation(f"p = {p} must be >= m = {spec.m}")
    if abs(spec.t) > p * math.pi + 1e-12:
        raise ConstraintViolation("needs |t| <= p pi")
    if spec.weight:
        raise ConstraintViolation("grid-sum route applies to weight-free integrands")
    out: List[complex] = []
    kps = [k / p for k in range(p)]
    for kp, ck in zip(kps, _pair_product(spec, np.array(kps)).tolist()):
        if ck == 0:
            out.append(0j)
            continue
        hspec = BilateralSeriesSpec(
            [-bj + kp for bj in spec.b],
            [aj + 1.0 + kp for aj in spec.a],
            (-1.0) ** spec.m * cmath.exp(-1j * spec.t))
        hv = eval_H(hspec)
        out.append(ck * cmath.exp(-1j * kp * spec.t) * hv.value / p)
    return out


def poisson_sum_rhs(spec: IntegrandSpec, p: int) -> complex:
    return sum(poisson_terms(spec, p))


def integral_repr_H(a: Sequence[complex], b: Sequence[complex], t: float,
                    weight_order: Optional[int] = None
                    ) -> Tuple[complex, complex]:
    """Weighted integral and its bilateral-series representation, as
    (quadrature, series).

    weight_order m (default): weight sin(m pi x)/sin(pi x), series argument
    -exp(-it), t in [-pi, pi].  weight_order m-1: t must be 0 and the series
    argument is +1.
    """
    a = tuple(complex(x) for x in a)
    b = tuple(complex(x) for x in b)
    m = len(a)
    if weight_order is None:
        weight_order = m
    if weight_order == m:
        if abs(t) > math.pi:
            raise ConstraintViolation("needs |t| <= pi")
        z = -cmath.exp(-1j * t)
    elif weight_order == m - 1:
        if t != 0.0:
            raise ConstraintViolation("reduced-order weight requires t = 0")
        z = 1.0 + 0j
    else:
        raise ConstraintViolation("weight order must be m or m-1")
    spec = IntegrandSpec(a, b, t, weight_gm(weight_order) if weight_order >= 1 else ())
    lhs = integrate(spec).value
    c0 = complex(_pair_product(spec, np.zeros(1))[0])
    hs = BilateralSeriesSpec([-bj for bj in b], [aj + 1.0 for aj in a], z)
    return lhs, c0 * eval_H(hs).value


# -- closed-form beta integrals -------------------------------------------------

class BetaKind(enum.Enum):
    RAMANUJAN_M2 = "RamanujanM2"
    RAMANUJAN_M2_COS = "RamanujanM2Cos"
    M3_COS = "M3Cos"
    M3_PLAIN = "M3Plain"
    M4_PLAIN = "M4Plain"
    M4_VWP = "M4VWP"
    M4_VWP_SHIFTED = "M4VWPShifted"
    M5_VWP = "M5VWP"
    M5_VWP_SHIFTED = "M5VWPShifted"
    M5_VWP_THIRD = "M5VWPThird"
    M6_RIEMANN = "M6Riemann"


def _pairs(vals: Sequence[complex]) -> List[complex]:
    return [vi + vj for vi, vj in itertools.combinations(vals, 2)]


def _beta_form(kind: BetaKind, params: Dict[str, complex]
               ) -> Tuple[IntegrandSpec, Callable[[], complex]]:
    """The integrand of a beta integral and a function giving its printed
    closed-form value, from one reading of the params.  The function checks
    RAMANUJAN_M2_COS's a1 - b1 = a2 - b2."""
    p = {k: complex(v) for k, v in params.items()}
    if kind is BetaKind.RAMANUJAN_M2:
        a1, a2, b1, b2 = p["a1"], p["a2"], p["b1"], p["b2"]
        return (IntegrandSpec([a1, a2], [b1, b2], 0.0),
                lambda: (gamma(a1 + b1 + a2 + b2 + 1)
                         / _gamma_ratio([a1 + b1 + 1, a1 + b2 + 1, a2 + b1 + 1,
                                         a2 + b2 + 1], [])))
    if kind is BetaKind.RAMANUJAN_M2_COS:
        a1, a2, b1, b2 = p["a1"], p["a2"], p["b1"], p["b2"]

        def value():
            if abs((a1 - b1) - (a2 - b2)) > 1e-12:
                raise ConstraintViolation("needs a1 - b1 = a2 - b2")
            return (cmath.cos(0.5 * math.pi * (b1 - a1))
                    / _gamma_ratio([0.5 * (a1 + b1) + 1, 0.5 * (a2 + b2) + 1,
                                    a1 + b2 + 1], []))
        return (IntegrandSpec([a1, a2], [b1, b2], 0.0, weight_cos(1.0, math.pi)),
                value)
    if kind is BetaKind.M3_COS:
        a = p["a"]
        bs = [p["b1"], p["b2"], p["b3"]]
        return (IntegrandSpec([a + bj for bj in bs], bs, 0.0,
                              weight_cos(1.0, math.pi)),
                lambda: (cmath.cos(0.5 * math.pi * a) * gamma(1 + 1.5 * a + sum(bs))
                         / _gamma_ratio([1 + 0.5 * a + bj for bj in bs], [])
                         / _gamma_ratio([1 + a + s for s in _pairs(bs)], [])))
    if kind in (BetaKind.M3_PLAIN, BetaKind.M4_PLAIN):
        n = 3 if kind is BetaKind.M3_PLAIN else 4
        cs = [p[f"c{j}"] for j in range(1, n + 1)]
        return (IntegrandSpec(cs, cs, 0.0),
                lambda: (1.0 / _gamma_ratio([cj + 1.25 for cj in cs], [])
                         / _gamma_ratio([cj + 0.75 for cj in cs], [])
                         * eval_H(BilateralSeriesSpec([0.25 - cj for cj in cs],
                                                      [1.25 + cj for cj in cs],
                                                      (-1.0) ** n)).value))
    if kind in (BetaKind.M4_VWP, BetaKind.M5_VWP):
        a = p["a"]
        n = 3 if kind is BetaKind.M4_VWP else 4
        bs = [p[f"b{j}"] for j in range(1, n + 1)]
        return (IntegrandSpec([0.5 * a - 1] + [a + bj for bj in bs],
                              [-0.5 * a - 1] + bs, 0.0,
                              weight_cos(1.0, math.pi)
                              + weight_cos(1.0, 3 * math.pi)),
                lambda: ((1.0 if n == 3 else gamma(1 + 2 * a + sum(bs)))
                         / _gamma_ratio([0.5 * a, -0.5 * a, 1 - a, 1 + a]
                                        + [1 + a + s for s in _pairs(bs)], [])))
    if kind in (BetaKind.M4_VWP_SHIFTED, BetaKind.M5_VWP_SHIFTED):
        a = p["a"]
        n = 3 if kind is BetaKind.M4_VWP_SHIFTED else 4
        cs = [p[f"c{j}"] for j in range(1, n + 1)]
        return (IntegrandSpec([-1.0] + cs, [-1.0] + cs, 0.0,
                              weight_cos(cmath.cos(0.5 * math.pi * a), math.pi)
                              + weight_cos(cmath.cos(1.5 * math.pi * a),
                                           3 * math.pi)),
                lambda: ((1.0 if n == 3 else gamma(1 + sum(cs)))
                         / _gamma_ratio([0.5 * a, -0.5 * a, 1 - a, 1 + a]
                                        + [1 + s for s in _pairs(cs)], [])))
    if kind is BetaKind.M5_VWP_THIRD:
        cs = [p["c1"], p["c2"], p["c3"], p["c4"]]
        return (IntegrandSpec([-1.0] + cs, [-1.0] + cs, 0.0,
                              ((0.5 + 0j, math.pi), (0.5 + 0j, -math.pi))),
                lambda: (-gamma(1 + sum(cs))
                         / (8 * math.pi ** 2
                            * _gamma_ratio([1 + s for s in _pairs(cs)], []))))
    if kind is BetaKind.M6_RIEMANN:
        av = [p[f"a{j}"] for j in range(1, 7)]
        spec = IntegrandSpec(av, av, 0.0)

        def value():
            s = poisson_terms(spec, 6)
            return 2 * s[0] + 4 * s[2]
        return spec, value
    raise ValueError(f"unknown kind {kind}")


def beta_integral_closed(kind: BetaKind, params: Dict[str, complex]) -> complex:
    """The printed closed-form value of each beta integral (gamma ratios, or
    a bilateral-series value where no gamma form exists).  No quadrature.

    Each value holds where its integral converges, so a nonpositive
    integrability margin of the matching integrand raises
    ConstraintViolation, as does RAMANUJAN_M2_COS's a1 - b1 = a2 - b2."""
    kind = BetaKind(kind)
    spec, value = _beta_form(kind, params)
    if spec.margin() <= 0:
        raise ConstraintViolation(
            f"{kind.value} needs a positive integrability margin "
            f"Re(sum(a) + sum(b)) + m - 1, got {spec.margin():.4g}")
    return value()


def integrand_spec_for(kind: BetaKind, params: Dict[str, complex]) -> IntegrandSpec:
    """The quadrature-side integrand matched to each closed form."""
    return _beta_form(BetaKind(kind), params)[0]


def m6_reduced_5h5(params: Dict[str, complex]) -> Tuple[BilateralSeriesSpec, BilateralSeriesSpec]:
    """The degenerate-parameter series behind the sixth-order grid-sum value
    (fifth and sixth parameters -1 and -1/2) and its cancellation rewrite."""
    p = {k: complex(v) for k, v in params.items()}
    av = [p[f"a{j}"] for j in range(1, 5)] + [-1.0, -0.5]
    third = 1.0 / 3.0
    spec6 = BilateralSeriesSpec(
        [third - aj for aj in av],
        [aj + 1.0 + third for aj in av], 1.0)
    return spec6, cancel_matching_parameters(spec6)


# -- extra verification targets --------------------------------------------------

def barnes_closed(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Meromorphic-integrand beta integral value (vertical-line cousin of the
    entire-integrand family)."""
    for x in (a, b, c, d):
        if complex(x).real <= 0:
            raise ConstraintViolation("needs positive real parts")
    return (_gamma_ratio([a + c, a + d, b + c, b + d], [])
            / gamma(a + b + c + d))


def barnes_quadrature(a: complex, b: complex, c: complex, d: complex) -> complex:
    """(1/2pi) integral of Gamma(a+ix)Gamma(b+ix)Gamma(c-ix)Gamma(d-ix)."""
    X = 25.0 + 2.0 * max(abs(complex(v)) for v in (a, b, c, d))

    def f(x: np.ndarray) -> np.ndarray:
        return (gamma(a + 1j * x) * gamma(b + 1j * x)
                * gamma(c - 1j * x) * gamma(d - 1j * x))

    xs, half = panel_nodes(np.linspace(-X, X, math.ceil(8.0 * X) + 1), _GAUSS_N)
    return (complex(panel_sums(f(xs).reshape(-1, _GAUSS_N), half).sum())
            / (2.0 * math.pi))


def double_integral_open_question(b1: float, b2: float, b3: float
                                  ) -> Tuple[complex, complex]:
    """2-D quadrature of the proposed cosine-power double integral and the
    conjectured gamma-ratio value (checked numerically, never asserted as a
    theorem)."""
    b1, b2, b3 = float(b1), float(b2), float(b3)

    def inner(s1: np.ndarray) -> np.ndarray:
        """The integrals over s2 in (-s1, pi) for all s1 of an outer level:
        s2 = -s1 + (pi + s1) u maps each onto u in (0, 1), so all of them
        share the nodes u."""
        s1 = s1[:, None]
        span = math.pi + s1
        c1 = (2 * np.cos(0.5 * s1)) ** (2 * b1)

        def g(u: np.ndarray) -> np.ndarray:
            # s1 + s2 as span u: a node next to u = 0 keeps s2 off -s1
            return (c1 * (2 * np.cos(0.5 * (span * u - s1))) ** (2 * b2)
                    * np.abs(2 * np.sin(0.5 * span * u)) ** (2 * b3))

        return span[:, 0] * tanh_sinh(g, 0.0, 1.0, max_level=9)[0]

    lhs, _ = tanh_sinh(inner, -math.pi, math.pi, max_level=8)
    rhs = (2 * math.pi ** 2
           * _gamma_ratio([2 * b1 + 1, 2 * b2 + 1, 2 * b3 + 1,
                           b1 + b2 + b3 + 1], [])
           / _gamma_ratio([b1 + 1, b2 + 1, b3 + 1, b1 + b2 + 1, b1 + b3 + 1,
                           b2 + b3 + 1], []))
    return lhs, rhs
