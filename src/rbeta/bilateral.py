"""Bilateral hypergeometric series: classification, evaluation, symmetry,
one-sided reduction, and the closed-form summation theorems.

A series here is sum over all integers n of
    prod_j (c_j)_n / prod_j (d_j)_n * z^n,
with (x)_n the shifted factorial extended to negative n by
(x)_{-k} = (-1)^k / (1-x)_k.  It is two one-sided series, its sides, each
described as (num, den, w, cut): the right side (c; d; z) summed from n = 0,
and the left side (1-d; 1-c; eps/z), eps = (-1)^(p-q), whose term k is the
term n = -k, summed from k = 1.  One side rule gives a side's cut (the
smallest -num_j in N0, past which its terms vanish), rejects a den_j in -N0
that the side reaches, classifies the side where it does not terminate, and
sums it: a terminating side is one running product of its ratios, an
infinite one goes to ``sum_one_sided``.  ``classify`` and ``eval_H``
combine the two sides; ``eval_F`` is the single side (a; b, 1; z).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .acceleration import SeriesValue, sum_one_sided
from .core import Tolerance, DEFAULT_TOL
from .errors import (ConstraintViolation, DivergentError, IllFormedSpec,
                     NotReducible, PoleError)
from .gammafns import gamma, recip_gamma

__all__ = [
    "BilateralSeriesSpec", "UnilateralSeriesSpec", "ConvergenceKind",
    "ConvergenceClass", "SeriesValue", "classify", "eval_H",
    "symmetry_transform", "reduce_to_unilateral", "eval_F", "HKind",
    "closed_form_H", "series_spec_for", "cancel_matching_parameters",
]

_INT_EPS = 1e-12
# term budgets of one infinite side in eval_H and eval_F
_H_MAX_TERMS = 400
_F_MAX_TERMS = 2000
# cancel_matching_parameters treats parameters this close as equal
_MATCH_TOL = 1e-13


def _as_nonpositive_int(x: complex) -> Optional[int]:
    k = round(x.real)
    if k <= 0 and abs(x - k) <= _INT_EPS:
        return int(k)
    return None


@dataclass(frozen=True)
class BilateralSeriesSpec:
    """Parameters (numerators c, denominators d, argument z) of a bilateral
    series with p = len(c), q = len(d)."""

    c: Tuple[complex, ...]
    d: Tuple[complex, ...]
    z: complex

    def __init__(self, c: Sequence[complex], d: Sequence[complex], z: complex):
        object.__setattr__(self, "c", tuple(complex(x) for x in c))
        object.__setattr__(self, "d", tuple(complex(x) for x in d))
        object.__setattr__(self, "z", complex(z))

    @property
    def p(self) -> int:
        return len(self.c)

    @property
    def q(self) -> int:
        return len(self.d)

    @property
    def sigma(self) -> complex:
        return sum(self.c) - sum(self.d)


@dataclass(frozen=True)
class UnilateralSeriesSpec:
    """A one-sided (n >= 0) hypergeometric series with the conventional n!
    in the denominator."""

    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    z: complex

    def __init__(self, a: Sequence[complex], b: Sequence[complex], z: complex):
        object.__setattr__(self, "a", tuple(complex(x) for x in a))
        object.__setattr__(self, "b", tuple(complex(x) for x in b))
        object.__setattr__(self, "z", complex(z))


class ConvergenceKind(enum.Enum):
    TERMINATES_RIGHT = "TerminatesRight"
    TERMINATES_LEFT = "TerminatesLeft"
    TERMINATES_BOTH = "TerminatesBoth"
    ABSOLUTELY_CONVERGENT = "AbsolutelyConvergentOnUnitCircle"
    CONDITIONALLY_CONVERGENT = "ConditionallyConvergentOnUnitCircle"
    DIVERGENT = "DivergentEverywhere"
    NOT_ON_DOMAIN = "NotOnDomain"


@dataclass(frozen=True)
class ConvergenceClass:
    kind: ConvergenceKind
    sigma: complex
    right_cut: Optional[int] = None  # last surviving index M on the right
    left_cut: Optional[int] = None   # first surviving index -N on the left is -(left_cut)

    @property
    def is_summable(self) -> bool:
        return self.kind in (ConvergenceKind.TERMINATES_RIGHT,
                             ConvergenceKind.TERMINATES_LEFT,
                             ConvergenceKind.TERMINATES_BOTH,
                             ConvergenceKind.ABSOLUTELY_CONVERGENT,
                             ConvergenceKind.CONDITIONALLY_CONVERGENT)


class _Side(NamedTuple):
    """One side of a series, sum_k prod(num)_k / prod(den)_k w^k: its terms
    vanish past k = cut (None where they do not), and kind is the class of
    the side when it does not terminate."""

    num: Tuple[complex, ...]
    den: Tuple[complex, ...]
    w: complex
    cut: Optional[int]
    kind: Optional[ConvergenceKind]


def _side(num: Sequence[complex], den: Sequence[complex], w: complex,
          sigma: complex) -> _Side:
    """The side rule: the cut is the smallest -num_j in N0.  A den_j = -m in
    -N0 zeroes the denominator of term m + 1 and later ones, so the side must
    stop before that term (IllFormedSpec otherwise)."""
    cut = min((-k for k in map(_as_nonpositive_int, num) if k is not None),
              default=None)
    for x in den:
        k = _as_nonpositive_int(x)
        if k is not None and (cut is None or 1 - k <= cut):
            raise IllFormedSpec(f"series side with denominator parameter {x} "
                                f"in -N0 (1 - c for the left side's) "
                                f"without protective termination")
    kind = None if cut is not None else _side_kind(len(num), len(den), w, sigma)
    return _Side(tuple(num), tuple(den), w, cut, kind)


def _side_kind(n_num: int, n_den: int, w: complex,
                sigma: complex) -> ConvergenceKind:
    """Class of one infinite side sum_{n>=0} prod(num)_n/prod(den)_n w^n;
    with as many numerators as denominators its terms go like n^sigma w^n."""
    if n_num != n_den:
        return (ConvergenceKind.ABSOLUTELY_CONVERGENT if n_num < n_den
                else ConvergenceKind.DIVERGENT)
    if abs(abs(w) - 1.0) > 1e-13:
        return (ConvergenceKind.ABSOLUTELY_CONVERGENT if abs(w) < 1.0
                else ConvergenceKind.NOT_ON_DOMAIN)
    if sigma.real < -1.0:
        return ConvergenceKind.ABSOLUTELY_CONVERGENT
    if sigma.real < 0.0:
        if abs(w - 1.0) <= 1e-13:
            return ConvergenceKind.NOT_ON_DOMAIN
        return ConvergenceKind.CONDITIONALLY_CONVERGENT
    return ConvergenceKind.DIVERGENT


def _sides(spec: BilateralSeriesSpec) -> Tuple[_Side, _Side]:
    """The right side (c; d; z), summed from n = 0, and the left side
    (1-d; 1-c; eps/z) with eps = (-1)^(p-q), summed from its k = 1 term:
    (c)_{-k} = (-1)^k / (1-c)_k makes term n = -k its k-th term.  Both
    sides have the series' sigma."""
    w = (-1.0) ** (spec.p - spec.q) / spec.z if spec.z != 0 else math.inf
    sigma = spec.sigma
    return (_side(spec.c, spec.d, spec.z, sigma),
            _side([1.0 - x for x in spec.d], [1.0 - x for x in spec.c], w,
                  sigma))


def classify(spec: BilateralSeriesSpec) -> ConvergenceClass:
    """Termination indices and convergence class of the series: every side
    that does not terminate must converge (see _sides)."""
    right, left = _sides(spec)
    sides = [s.kind for s in (right, left) if s.cut is None]
    kind = next((k for k in (ConvergenceKind.DIVERGENT,
                             ConvergenceKind.NOT_ON_DOMAIN,
                             ConvergenceKind.CONDITIONALLY_CONVERGENT)
                 if k in sides), ConvergenceKind.ABSOLUTELY_CONVERGENT)
    divergent = kind in (ConvergenceKind.DIVERGENT, ConvergenceKind.NOT_ON_DOMAIN)
    if not divergent and right.cut is not None:
        kind = (ConvergenceKind.TERMINATES_BOTH if left.cut is not None
                else ConvergenceKind.TERMINATES_RIGHT)
    elif not divergent and left.cut is not None:
        kind = ConvergenceKind.TERMINATES_LEFT
    return ConvergenceClass(kind, spec.sigma, right.cut, left.cut)


def _sum_side(side: _Side, start: int, tol_abs: float,
              max_terms: int) -> SeriesValue:
    """Sum of a side's terms from k = start on: a terminating side is one
    running product of its ratios, an infinite one goes to sum_one_sided."""
    num = np.array(side.num, dtype=complex)[:, None]
    den = np.array(side.den, dtype=complex)[:, None]

    def ratio(k: np.ndarray) -> np.ndarray:
        # term k + 1 over term k
        return side.w * np.prod(num + k, axis=0) / np.prod(den + k, axis=0)

    if side.cut is not None:
        terms = np.multiply.accumulate(
            np.concatenate(([1.0 + 0j], ratio(np.arange(side.cut)))))[start:]
        return SeriesValue(complex(terms.sum()), 0.0, len(terms), False)
    # term `start`, with term 0 equal to 1
    first = complex(np.prod(ratio(np.arange(start))))
    return sum_one_sided(lambda n: ratio(n + start), first, tol_abs,
                         max_terms=max_terms)


def eval_H(spec: BilateralSeriesSpec, tol: Tolerance = DEFAULT_TOL) -> SeriesValue:
    """Evaluate the bilateral series as the sum of its two sides (_sides).

    Terminating sides are summed exactly; convergent infinite sides are
    summed directly in the geometric regime and Levin-accelerated on the
    unit circle.  ``est_error`` adds the sides' estimates: for a geometric
    side its tail bound plus 1e-16 of its sum, for a Levin side the
    transform's stabilization gap.  Neither covers the rounding of terms
    that cancel, and the Levin gap misses how much the transform amplifies
    term rounding: at z = 1 the error can be many times the estimate
    (ROADMAP item 6).
    """
    cls = classify(spec)
    if not cls.is_summable:
        if (cls.kind is ConvergenceKind.NOT_ON_DOMAIN
                and abs(spec.z - 1.0) <= 1e-13 and -1.0 <= cls.sigma.real < 0.0):
            raise DivergentError("conditional convergence excludes z = 1")
        raise DivergentError(f"series classified {cls.kind.value} at z={spec.z}")
    if spec.z == 0 and cls.left_cut != 0:
        raise DivergentError("negative-index terms undefined at z = 0")
    tol_abs = max(tol.abs, tol.rel, 1e-15)
    right, left = (_sum_side(side, start, tol_abs, _H_MAX_TERMS)
                   for side, start in zip(_sides(spec), (0, 1)))
    return SeriesValue(right.value + left.value, right.est_error + left.est_error,
                       right.terms_used + left.terms_used,
                       right.accelerated or left.accelerated)


def symmetry_transform(spec: BilateralSeriesSpec) -> BilateralSeriesSpec:
    """Swap-parameter transform: (c; d; z) -> (1-d; 1-c; eps/z) with
    eps = (-1)^(p-q).  An involution; values agree where both converge."""
    if spec.z == 0:
        raise DivergentError("symmetry transform needs z != 0")
    eps = (-1.0) ** (spec.p - spec.q)
    return BilateralSeriesSpec(
        c=tuple(1.0 - dj for dj in spec.d),
        d=tuple(1.0 - cj for cj in spec.c),
        z=eps / spec.z,
    )


def reduce_to_unilateral(spec: BilateralSeriesSpec) -> UnilateralSeriesSpec:
    """Drop a denominator parameter equal to 1, giving the one-sided series
    with the same sum.  Raises NotReducible when no d_j = 1."""
    for i, dj in enumerate(spec.d):
        if abs(dj - 1.0) <= 1e-14:
            rest = spec.d[:i] + spec.d[i + 1:]
            return UnilateralSeriesSpec(a=spec.c, b=rest, z=spec.z)
    raise NotReducible("no denominator parameter equals 1")


def eval_F(spec: UnilateralSeriesSpec) -> SeriesValue:
    """One-sided series sum_{n>=0} prod(a)_n/prod(b)_n * z^n/n!, summed to
    DEFAULT_TOL.abs: the side (a; b, 1; z) of the side rule."""
    den = spec.b + (1.0 + 0j,)
    side = _side(spec.a, den, spec.z, sum(spec.a) - sum(den))
    if side.kind in (ConvergenceKind.DIVERGENT, ConvergenceKind.NOT_ON_DOMAIN):
        raise DivergentError(f"one-sided series classified {side.kind.value} "
                             f"at z={spec.z}")
    return _sum_side(side, 0, DEFAULT_TOL.abs, _F_MAX_TERMS)


def cancel_matching_parameters(spec: BilateralSeriesSpec) -> BilateralSeriesSpec:
    """Remove numerator/denominator parameter pairs equal within _MATCH_TOL.

    Exact-match rewrite used by parameter-degenerate series reductions (a
    canceling pair contributes (x)_n/(x)_n = 1 to every term).
    """
    c = list(spec.c)
    d = list(spec.d)
    out_c = []
    for cj in c:
        hit = None
        for i, dj in enumerate(d):
            if abs(cj - dj) <= _MATCH_TOL:
                hit = i
                break
        if hit is None:
            out_c.append(cj)
        else:
            d.pop(hit)
    return BilateralSeriesSpec(out_c, d, spec.z)


# -- closed-form summation theorems -------------------------------------------

class HKind(enum.Enum):
    ONE_H1_MINUS_EXP = "OneH1_minus_exp"
    ONE_H1_PLUS_EXP = "OneH1_plus_exp"
    GAUSS_2H2 = "Gauss2H2"
    TWO_H2_MINUS1 = "TwoH2_minus1_constrained"
    WELL_POISED_3H3 = "WellPoised3H3"
    VWP_4H4_MINUS1 = "VWP4H4_minus1"
    VWP_5H5 = "VWP5H5"


def _gamma_ratio(num: Sequence[complex], den: Sequence[complex]) -> complex:
    """prod Gamma(num) / prod Gamma(den).

    A pole in a numerator factor is an error; a pole in a denominator factor
    makes the whole ratio vanish (the only continuous value).
    """
    for x in num:
        if _as_nonpositive_int(complex(x)) is not None:
            raise PoleError(f"gamma argument {x} is a nonpositive integer")
    # one gamma and one recip_gamma call, multiplied in order
    recips = recip_gamma(np.array(den, dtype=complex)).tolist()
    if 0 in recips:
        return 0j
    out = 1.0 + 0j
    for g in gamma(np.array(num, dtype=complex)).tolist() + recips:
        out *= g
    return out


def closed_form_H(kind: HKind, params: Dict[str, complex]) -> complex:
    """Gamma-ratio value of a summable bilateral series, exactly as the
    summation theorems print it.  Each value holds where its series
    converges, so the series' own classification decides: a series that is
    not summable raises ConstraintViolation, as do the exp kinds' t
    intervals and TWO_H2_MINUS1's a1 - b1 = a2 - b2.  Gamma poles raise
    PoleError."""
    kind = HKind(kind)
    p = {k: complex(v) for k, v in params.items()}
    spec = series_spec_for(kind, p)
    cls = classify(spec)
    if not cls.is_summable:
        raise ConstraintViolation(
            f"{kind.value} needs a summable series (Re sigma < 0 on |z| = 1, "
            f"< -1 at z = 1), got {cls.kind.value} with sigma = "
            f"{cls.sigma:.6g} at z = {spec.z:.6g}")

    if kind is HKind.ONE_H1_MINUS_EXP:
        a, b, t = p["a"], p["b"], p["t"].real
        if not -math.pi <= t <= math.pi:
            raise ConstraintViolation("t must lie in [-pi, pi]")
        if abs(t) == math.pi:
            # z = 1: the series sums to 0
            return 0j
        return (_gamma_ratio([1 - a, b], [b - a])
                * cmath.exp(0.5j * t * (a + b - 1))
                * (2 * math.cos(t / 2)) ** (b - a - 1))
    if kind is HKind.ONE_H1_PLUS_EXP:
        a, b, t = p["a"], p["b"], p["t"].real
        if not 0 <= t <= 2 * math.pi:
            raise ConstraintViolation("t must lie in [0, 2pi]")
        if t in (0.0, 2 * math.pi):
            # z = 1: the series sums to 0
            return 0j
        return (_gamma_ratio([1 - a, b], [b - a])
                * cmath.exp(0.5j * (math.pi - t) * (a + b - 1))
                * (2 * math.sin(t / 2)) ** (b - a - 1))
    if kind is HKind.GAUSS_2H2:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        return _gamma_ratio([c, d, 1 - a, 1 - b, c + d - a - b - 1],
                            [c - a, d - a, c - b, d - b])
    if kind is HKind.TWO_H2_MINUS1:
        b1, b2, a1, a2 = p["b1"], p["b2"], p["a1"], p["a2"]
        if abs((a1 - b1) - (a2 - b2)) > 1e-12:
            raise ConstraintViolation("needs a1 - b1 = a2 - b2")
        return (cmath.cos(0.5 * math.pi * (b1 - a1))
                * _gamma_ratio([a1 + 1, b1 + 1, a2 + 1, b2 + 1],
                               [0.5 * (a1 + b1) + 1, 0.5 * (a2 + b2) + 1,
                                a1 + b2 + 1]))
    if kind is HKind.WELL_POISED_3H3:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        return _gamma_ratio(
            [1 - b, 1 - c, 1 - d, 1 + a - b, 1 + a - c, 1 + a - d,
             1 + a / 2, 1 - a / 2, 1 + 1.5 * a - b - c - d],
            [1 + a - c - d, 1 + a - b - d, 1 + a - b - c,
             1 + a / 2 - b, 1 + a / 2 - c, 1 + a / 2 - d, 1 + a, 1 - a])
    if kind is HKind.VWP_4H4_MINUS1:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        return _gamma_ratio(
            [1 - b, 1 - c, 1 - d, 1 + a - b, 1 + a - c, 1 + a - d],
            [1 - a, 1 + a, 1 + a - b - c, 1 + a - b - d, 1 + a - c - d])
    if kind is HKind.VWP_5H5:
        a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
        return _gamma_ratio(
            [1 - b, 1 - c, 1 - d, 1 - e, 1 + a - b, 1 + a - c, 1 + a - d,
             1 + a - e, 1 + 2 * a - b - c - d - e],
            [1 + a, 1 - a, 1 + a - b - c, 1 + a - b - d, 1 + a - b - e,
             1 + a - c - d, 1 + a - c - e, 1 + a - d - e])
    raise ValueError(f"unknown kind {kind}")


def series_spec_for(kind: HKind, params: Dict[str, complex]) -> BilateralSeriesSpec:
    """The explicit bilateral series whose sum closed_form_H(kind) gives."""
    kind = HKind(kind)
    p = {k: complex(v) for k, v in params.items()}
    if kind in (HKind.ONE_H1_MINUS_EXP, HKind.ONE_H1_PLUS_EXP):
        t = p["t"].real
        z = -cmath.exp(-1j * t) if kind is HKind.ONE_H1_MINUS_EXP else cmath.exp(1j * t)
        return BilateralSeriesSpec([p["a"]], [p["b"]], z)
    if kind is HKind.GAUSS_2H2:
        return BilateralSeriesSpec([p["a"], p["b"]], [p["c"], p["d"]], 1.0)
    if kind is HKind.TWO_H2_MINUS1:
        return BilateralSeriesSpec([-p["b1"], -p["b2"]],
                                   [p["a1"] + 1, p["a2"] + 1], -1.0)
    if kind is HKind.WELL_POISED_3H3:
        a = p["a"]
        return BilateralSeriesSpec([p["b"], p["c"], p["d"]],
                                   [1 + a - p["b"], 1 + a - p["c"], 1 + a - p["d"]],
                                   1.0)
    if kind is HKind.VWP_4H4_MINUS1:
        a = p["a"]
        return BilateralSeriesSpec(
            [1 + a / 2, p["b"], p["c"], p["d"]],
            [a / 2, 1 + a - p["b"], 1 + a - p["c"], 1 + a - p["d"]], -1.0)
    if kind is HKind.VWP_5H5:
        a = p["a"]
        return BilateralSeriesSpec(
            [1 + a / 2, p["b"], p["c"], p["d"], p["e"]],
            [a / 2, 1 + a - p["b"], 1 + a - p["c"], 1 + a - p["d"],
             1 + a - p["e"]], 1.0)
    raise ValueError(f"unknown kind {kind}")
