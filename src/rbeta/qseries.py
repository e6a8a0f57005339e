"""q-shifted factorials, the q-gamma function, bilateral basic series,
their summation formulas, and q->1 asymptotics.

Series convention: with r = len(a) upper and s = len(b) lower parameters,
the term at index n carries the extra factor ((-1)^n q^(n(n-1)/2))^(s-r),
so zero lower parameters act as confluence placeholders.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BranchCutError, ConstraintViolation, DomainError,
                     IllFormedSpec, OutsideAnnulus, PoleError,
                     ToleranceNotReached)
from .acceleration import SeriesValue
from .bilateral import BilateralSeriesSpec, eval_H
from .gammafns import dilog

__all__ = [
    "QSeriesSpec", "QtoOnePath", "qpoch", "qpoch_inf", "log_qpoch_inf",
    "log_qpoch_lattice", "log_qpoch_ratio", "q_gamma", "eval_psi", "QKind",
    "closed_form_q", "q_binomial_ratio_target", "psi_spec_for", "qpoch_inf_asymptotic",
    "QPochAsymptotic", "lemma_qpoch_log_gap", "theorem21_limit_probe",
]

# per-factor relative truncation threshold for infinite q-products
_QPROD_EPS = 1e-17
_QPROD_MAX_FACTORS = 2_000_000


def _check_base(q: complex) -> complex:
    q = complex(q)
    if not 0.0 < abs(q) < 1.0:
        raise DomainError(f"base must satisfy 0 < |q| < 1, got {q!r}")
    return q


@dataclass(frozen=True)
class QSeriesSpec:
    """Bilateral basic series parameters: base q, upper a, lower b, argument z."""

    q: complex
    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    z: complex

    def __init__(self, q: complex, a: Sequence[complex], b: Sequence[complex], z: complex):
        object.__setattr__(self, "q", _check_base(q))
        object.__setattr__(self, "a", tuple(complex(x) for x in a))
        object.__setattr__(self, "b", tuple(complex(x) for x in b))
        object.__setattr__(self, "z", complex(z))

    def _match_power(self, value: complex) -> Optional[int]:
        # k with value == q^k, else None (also for 0); log-space comparison
        # so huge negative powers cannot overflow
        if value == 0:
            return None
        lq = cmath.log(self.q)
        lv = cmath.log(value)
        k = round(lv.real / lq.real)
        d = lv - k * lq
        di = (d.imag + math.pi) % (2.0 * math.pi) - math.pi
        if abs(complex(d.real, di)) <= 1e-12 * max(1.0, abs(k * lq.real)):
            return int(k)
        return None

    def _classify(self) -> Tuple[List[Optional[int]], List[Optional[int]],
                                 Optional[int], Optional[int]]:
        """(ka, kb, right_cut, left_cut): _match_power of each upper and
        each lower parameter, and the termination cuts they set."""
        ka = [self._match_power(aj) for aj in self.a]
        kb = [self._match_power(bj) for bj in self.b]
        right = min((-k for k in ka if k is not None and -400 <= k <= 0),
                    default=None)
        left = min((k for k in kb if k is not None and 1 <= k <= 400),
                   default=None)
        return ka, kb, right, left

    def termination_cuts(self) -> Tuple[Optional[int], Optional[int]]:
        """(right_cut, left_cut): terms vanish for n > right_cut (some
        a_j = q^-k) and for n <= -left_cut (some b_j = q^k, k >= 1)."""
        return self._classify()[2:]

    def validate(self) -> Tuple[Optional[int], Optional[int]]:
        """Raise IllFormedSpec where a parameter makes a surviving term
        infinite; else return termination_cuts(), from the same one
        classification of the parameters."""
        ka, kb, right, left = self._classify()
        for bj, k in zip(self.b, kb):
            # b_j = q^-j (j >= 0) zeroes a denominator factor at n = j+1;
            # a right cut at or before n = j keeps every surviving term finite
            if k is not None and -400 <= k <= 0 and (right is None or right > -k):
                raise IllFormedSpec(f"lower parameter {bj} equals q^{k} "
                                    f"without protective termination")
        for aj, k in zip(self.a, ka):
            # a_j = q^k (k >= 1) makes numerator factors infinite at n <= -k
            if k is not None and 1 <= k <= 400 and (left is None or left > k):
                raise IllFormedSpec(f"upper parameter {aj} equals q^{k} "
                                    f"without protective termination")
        return right, left

    def annulus_violation(self, cuts: Optional[Tuple[Optional[int], Optional[int]]] = None
                          ) -> Optional[str]:
        """The failed absolute-convergence condition, or None.  A
        non-terminating right side needs more lower than upper parameters, or
        as many and 0 < |z| < 1.  Far left, nonzero parameters grow like q^-n
        and surplus lower slots shrink like q^n, so a non-terminating left
        side needs more zero lower than zero upper parameters, or as many and
        prod|b_j != 0| / prod|a_j != 0| < |z|.  ``cuts``, if given, are
        termination_cuts()."""
        if self.z == 0:
            return "argument must be nonzero"
        right_cut, left_cut = self.termination_cuts() if cuts is None else cuts
        d = len(self.b) - len(self.a)
        if right_cut is None and d < 0:
            return "more upper than lower parameters: the right side diverges"
        if right_cut is None and d == 0 and not abs(self.z) < 1.0:
            return f"|z|={abs(self.z):.6g} not below 1"
        if left_cut is None:
            zeros = sum(bj == 0 for bj in self.b) - sum(aj == 0 for aj in self.a)
            if zeros < 0:
                return ("more zero upper than zero lower parameters: "
                        "the left side diverges")
            bound = (math.prod(abs(bj) for bj in self.b if bj != 0)
                     / math.prod(abs(aj) for aj in self.a if aj != 0))
            if zeros == 0 and not bound < abs(self.z):
                return (f"|z|={abs(self.z):.6g} not above annulus bound "
                        f"{bound:.6g}")
        return None


def qpoch(a: complex, q: complex, n: int) -> complex:
    """q-shifted factorial (a;q)_n for any integer n."""
    a = complex(a)
    q = _check_base(q)
    if n == 0:
        return 1.0 + 0j
    if n > 0:
        out = 1.0 + 0j
        p = a
        for _ in range(n):
            out *= 1.0 - p
            p *= q
        return out
    m = -n
    out = 1.0 + 0j
    p = a
    for _ in range(m):
        p /= q
        f = 1.0 - p
        if f == 0:
            raise PoleError(f"(a;q)_{n} pole: a = q^k for some 1 <= k <= {m}")
        out /= f
    return out


def log_qpoch_inf(c, q: complex):
    """Sum of log(1 - c q^k) over k >= 0 (array-aware in c).

    Any-branch logarithm: exact under exp().  Non-finite c gives nan.

    The lattice integrands of `q_quadrature` sum their products with
    `log_qpoch_lattice`.  The array path here serves only the Abel route,
    its graded Gauss nodes and its truncation probes (six abscissae or
    fewer per call), whose bits the golden abel-poisson-kernel records hold.

    A scalar c is summed in one vectorized sweep over k, up to the first
    |c q^k| below 1e-17.  An array c gets the bits of the factor loop

        cur = c; out = 0
        repeat: out += log1p(-cur); cur = cur * q
        until max |cur| < 1e-17 over the finite elements

    for every q and size, signed zeros included: each element gets the terms
    log1p(-cur) of the same chain cur = cur * q, summed in the same order,
    and stops at the same global factor count.

    Arrays take B factors per pass, B from a fixed cell budget over the
    array size.  The B power rows come from one multiply.accumulate for
    real q, and from one binary multiply per row for complex q, where
    accumulate rounds differently.  One row reduction of |cur| finds the
    stopping factor, one log1p and one add.accumulate sum the rows up to
    it.  Both scans run row after row, so each element sees the loop's
    products and sums.

    Arrays of 512 or more real chains, real q and every Im c a signed zero,
    skip the stop test instead: they run largest |Re c| first, and each
    chain retires at its first factor with |Re cur| <= 2^-54.  numpy's
    complex log1p(x) is log(hypot(1 + Re x, Im x)) + i atan2(Im x, 1 + Re x),
    and 1 - cur rounds to 1 there, so that term and every later one are
    (+0, +-0), which change no sum.  Multiplying by a real q keeps |Re cur|
    in order, so the retired chains stay a suffix, and the loop's own stop,
    every |cur| < 1e-17 < 2^-54, never comes before a chain's zero term.
    For the same reason a real chain in a small array gains only zero terms
    from the other elements' later stop, so the truncation probes of
    several abscissae in one call keep the bits of one-point calls.
    """
    q = _check_base(q)
    if np.isscalar(c) or getattr(c, "ndim", 1) == 0:
        # one vectorized sweep over k; bases near 1 need tens of thousands
        # of factors
        c0 = complex(c)
        if c0 == 0:
            return 0j
        if not cmath.isfinite(c0):
            return complex(math.nan, math.nan)
        lq = cmath.log(q)
        mag = math.hypot(c0.real, c0.imag)
        # a finite c can have an infinite modulus
        if mag < math.inf:
            log_mag = math.log(mag)
        else:
            log_mag = math.log(abs(c0 / 2)) + math.log(2.0)
        k_need = int((math.log(_QPROD_EPS) - log_mag) / math.log(abs(q))) + 2
        k_need = min(max(k_need, 1), _QPROD_MAX_FACTORS)
        with np.errstate(divide="ignore", over="ignore"):
            vals = c0 * np.exp(np.arange(k_need) * lq)
            return complex(np.log1p(-vals).sum())
    c_arr = np.asarray(c, dtype=complex)
    finite = np.isfinite(c_arr)
    c_fin = c_arr[finite]
    real_chains = (c_fin.size >= _STEP_MIN_SIZE and q.imag == 0.0
                   and not c_fin.imag.any())
    kernel = _log_qpoch_real_steps if real_chains else _log_qpoch_blocks
    with np.errstate(divide="ignore", over="ignore"):
        sums = kernel(c_fin, q) if c_fin.size else c_fin
    if c_fin.size == c_arr.size:
        return sums.reshape(c_arr.shape)
    out = np.full(c_arr.shape, complex(math.nan, math.nan))
    out[finite] = sums
    return out


# complex cells per block of the block kernel
_QPROD_BLOCK_CELLS = 1 << 15
# array size from which real chains take the one-factor kernel, faster than
# the block kernel there (CHANGES.md has the timings on both sides)
_STEP_MIN_SIZE = 512
# 1 - x rounds to 1 for |x| <= 2^-54, so log1p(-cur) is (+0, +-0) for a real
# chain value cur at or below it
_ZERO_TERM = 2.0 ** -54


def _log_qpoch_blocks(cur: np.ndarray, q: complex) -> np.ndarray:
    """The factor loop of log_qpoch_inf on a 1-D array of finite c, run B
    factors per pass."""
    n = cur.size
    rows_max = max(1, _QPROD_BLOCK_CELLS // n)
    log_q = math.log(abs(q))
    sums = np.zeros(n, dtype=complex)
    top = float(np.abs(cur).max())
    done = 0
    while True:
        # the loop stops after L factors with max|c| |q|^L < eps; one spare
        # row saves a second block when rounding moves L by one.  A finite
        # c can have an infinite modulus.
        if not math.isfinite(top):
            guess = rows_max
        elif top < _QPROD_EPS:
            guess = 1
        else:
            guess = int((math.log(_QPROD_EPS) - math.log(top)) / log_q) + 2
        rows = min(rows_max, guess, _QPROD_MAX_FACTORS - done)
        powers = np.empty((rows + 1, n), dtype=complex)
        powers[0] = cur
        if q.imag:
            # accumulate's complex multiply rounds unlike the loop's
            for k in range(rows):
                np.multiply(powers[k], q, out=powers[k + 1])
        else:
            powers[1:] = q
            np.multiply.accumulate(powers, axis=0, out=powers)
        row_max = np.abs(powers[1:]).max(axis=1)
        below = row_max < _QPROD_EPS
        stop = bool(below.any())
        used = int(below.argmax()) + 1 if stop else rows
        block = np.empty((used + 1, n), dtype=complex)
        block[0] = sums
        np.negative(powers[:used], out=block[1:])
        np.log1p(block[1:], out=block[1:])
        np.add.accumulate(block, axis=0, out=block)
        sums = block[used]
        done += used
        if stop or done >= _QPROD_MAX_FACTORS:
            return sums
        cur = powers[rows]
        top = float(row_max[-1])


def _log_qpoch_real_steps(cur: np.ndarray, q: complex) -> np.ndarray:
    """The factor loop of log_qpoch_inf on a 1-D array of finite c, for real
    q and every Im c a signed zero, one factor per pass.  The chains run
    largest |Re c| first, and each retires at its first factor with
    |Re cur| <= 2^-54, whose term and all later ones are (+0, +-0)."""
    order = np.argsort(np.abs(cur.real))[::-1]
    cur = cur[order]
    re = cur.real
    sums = np.zeros(cur.size, dtype=complex)
    term = np.empty(cur.size, dtype=complex)
    live = cur.size
    for _ in range(_QPROD_MAX_FACTORS):
        # multiplying by a real q keeps |Re cur| sorted, so the retired
        # chains stay a suffix
        live = bisect.bisect_left(re, True, 0, live,
                                  key=lambda v: abs(v) <= _ZERO_TERM)
        if not live:
            break
        t = np.negative(cur[:live], out=term[:live])
        sums[:live] += np.log1p(t, out=t)
        cur[:live] *= q
    out = np.empty(cur.size, dtype=complex)
    out[order] = sums
    return out


def log_qpoch_lattice(factors: Sequence[Tuple[complex, complex, int]],
                      q: complex, x: np.ndarray) -> np.ndarray:
    """Sum over the factors (c, o, s), s = +1 or -1, of
    log (c q^(o + s x); q)_inf, on a lattice x whose columns step by one down
    axis 0 (a 1-D x is one column).  Any-branch logarithm: exact under
    exp().  A non-finite c gives nan.

    Down a column a factor's argument c_n at row n is its own chain,
    c_n q^j = c_(n + s j), so its log product at row n is the sum of
    log1p(-c_k) over the rows k from n onward in the direction s.  Each
    column runs on that way past the lattice to its first row with
    |c_k| < 1e-17, the cut of log_qpoch_inf, and one cumulative sum back
    from there gives every row: one log1p per node and factor, plus about
    39/u lead-in rows per column, u = -log|q|.  A term whose |c_k| passes
    e^700 is log(-c_k), so no argument past the float range ends the sum.
    """
    q = _check_base(q)
    x = np.asarray(x, dtype=float)
    live = [(complex(c), complex(o), s) for c, o, s in factors if c != 0]
    if not live:
        return np.zeros(x.shape, dtype=complex)
    c, o, s = (np.array(v) for v in zip(*live))
    if not np.isfinite(c).all():
        return np.full(x.shape, complex(math.nan, math.nan))
    cols = x.reshape(x.shape[0], -1)
    rows = cols.shape[0]
    c, o, down = c[:, None, None], o[:, None, None], s[:, None, None] > 0
    # q^(o - x) = q^(o + x') on the reversed column x' = -x, so every factor
    # runs down its column toward the small end, the last row
    xs = np.where(down, cols, -cols[::-1])
    end = xs[:, -1:]
    lq = cmath.log(q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a finite c can have an infinite modulus
        log_c = np.log(np.abs(0.5 * c)) + math.log(2.0)
        log_end = log_c + ((o + end) * lq).real
        past = (math.log(_QPROD_EPS) - log_end.max()) / math.log(abs(q))
        lead = int(np.clip(np.floor(past) + 1.0, 0, _QPROD_MAX_FACTORS))
        chain = np.concatenate(
            (xs, end + np.arange(1.0, lead + 1.0)[None, :, None]), axis=1)
        power = (o + chain) * lq
        terms = np.log1p(-(c * np.exp(power)))
        # the term log(1 - y), y = c q^(o + s x), is log(-y) up to
        # log1p(-1/y): past e^700, where y or q^(o + s x) may leave the
        # float range, it takes that form, exact under exp()
        far = np.maximum(log_c, 0.0) + power.real > 700.0
        if far.any():
            terms = np.where(far, np.log(c) + power + 1j * math.pi, terms)
    logs = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1][:, :rows]
    logs = np.where(down, logs, logs[:, ::-1])
    return logs.sum(axis=0).reshape(x.shape)


def qpoch_inf(a: complex, q: complex) -> complex:
    """(a;q)_infinity by truncated product.  Kept only for abel_psi_target:
    the golden abel-poisson-kernel gaps hold its bits while they sit in the
    records' inputs (ROADMAP item 1); every other product is log-space."""
    a = complex(a)
    q = _check_base(q)
    if a == 0:
        return 1.0 + 0j
    out = 1.0 + 0j
    cur = a
    for _ in range(_QPROD_MAX_FACTORS):
        out *= 1.0 - cur
        cur *= q
        if abs(cur) < _QPROD_EPS:
            break
    return out


def log_qpoch_ratio(num: Sequence[complex], den: Sequence[complex],
                    q: complex) -> complex:
    """log of prod (c;q)_inf over num over the same product over den: one
    signed sum of scalar log_qpoch_inf calls, exact under exp().  Near q = 1
    each product alone leaves double range; the array kernel is 7.8e-11 off
    at c = q = 0.999, so each c is summed on its own."""
    return (sum(log_qpoch_inf(c, q) for c in num)
            - sum(log_qpoch_inf(c, q) for c in den))


def q_gamma(x: complex, q: float) -> complex:
    """q-gamma function for real base q in (0,1); principal power of (1-q)."""
    if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
        raise DomainError(f"q_gamma needs real q in (0,1), got {q!r}")
    x = complex(x)
    k = round(x.real)
    if k <= 0 and abs(x - k) <= 1e-13:
        raise PoleError(f"q_gamma pole at {x}")
    qx = cmath.exp(x * math.log(q))
    # log space: both infinite products underflow as q -> 1 while their
    # ratio stays moderate
    lg = log_qpoch_ratio([q], [qx], q) + (1.0 - x) * math.log(1.0 - q)
    return cmath.exp(lg)


# terms summed per non-terminating side before giving up, and the absolute
# tail bound that ends a side
_PSI_MAX_TERMS = 400_000
_PSI_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
# indices whose ratio inputs eval_psi builds per numpy pass.  Its terms stay
# a scalar loop in the order of a term at a time, whose bits the
# abel-poisson-kernel records hold, so unlike sum_one_sided it does not
# build a whole side in one running product
_BLOCK = 32


def eval_psi(spec: QSeriesSpec) -> SeriesValue:
    """Bilateral basic series sum over n in Z, both sides geometric.

    Non-terminating sides require the argument inside the absolute-
    convergence annulus prod|b|/prod|a| < |z| < 1; zero lower parameters
    (and surplus lower slots) make the tails super-geometric instead.
    Parameters of the form a_j = q^-k / b_j = q^k terminate the respective
    side and are summed exactly.  est_error is each non-terminating side's
    geometric tail bound plus the rounding the terms carry (see the loop).

    Each side's term ratios are built _BLOCK indices at a time: q^m as
    Python powers, and in one numpy pass over the block the factors
    1 - x_j q^m, their upper and lower products and their rounding
    amplification.  Where q^m leaves the float range, far out on the left
    side, the factors are taken times -q^-m, as x_j - q^-m, whose products'
    ratio holds the power (-q^m)^-d.  The rest stays scalar, in the order of
    a term at a time: the ratio from the products, z and (-q^m)^d, the
    running term and sum, the rounding estimate and both stopping rules.  A
    numpy running product would round the terms differently, and the
    abel-poisson-kernel records hold these sums' bits; each numpy operation
    of the block rounds every element as it did on one row, so value,
    est_error and terms_used are those of the term-at-a-time loop bit for
    bit.  The block raises and warns nothing, as it also computes indices
    past its side's stop; a row the loop reaches whose factors, products or
    amplification are not finite raises OverflowError.
    """
    right_cut, left_cut = spec.validate()
    q, z = spec.q, spec.z
    # the factors are 1 - x_j q^n over the upper, then the lower parameters
    x = np.asarray(spec.a + spec.b, dtype=complex)
    na = len(spec.a)
    d = len(spec.b) - len(spec.a)
    if d < 0:
        raise IllFormedSpec("more upper than lower parameters unsupported")
    problem = spec.annulus_violation((right_cut, left_cut))
    if problem:
        raise OutsideAnnulus(problem)

    # roundings per ratio that no factor amplifies: one per factor, the
    # products, z, the divisions, q^m, its power d, the step t * r and the sum
    ops = len(x) + abs(d) + 4

    def block(ms: Sequence[int]):
        # the ratio at index m is of the term at m + 1 to the one at m for
        # m >= 0, and of the term at m to the one at m + 1 for m < 0.  A row
        # past the float range of q^m has the factors x_j - q^-m and a q^m
        # of None
        qm = []
        for m in ms:
            try:
                qm.append(q ** m)
            except OverflowError:
                break
        far = np.array([q ** -m for m in ms[len(qm):]], dtype=complex)
        with np.errstate(all="ignore"):
            xq = x[None, :] * np.array(qm)[:, None]
            f = 1.0 - xq
            if far.size:
                xq = np.vstack((xq, np.broadcast_to(x, (far.size, x.size))))
                f = np.vstack((f, x[None, :] - far[:, None]))
            upper, lower = f[:, :na].prod(axis=1), f[:, na:].prod(axis=1)
            # by how much the factors amplify their rounding
            amp = np.abs(xq / f).sum(axis=1)
            finite = np.isfinite(upper) & np.isfinite(lower) & np.isfinite(amp)
        return (qm + [None] * far.size, upper.tolist(), lower.tolist(),
                amp.tolist(), finite.tolist())

    total = 1.0 + 0j
    used = 1
    est = 0.0
    # the left side steps from index -k to -(k + 1)
    for label, cut in (("up", right_cut),
                       ("down", None if left_cut is None else left_cut - 1)):
        right = label == "up"
        t = 1.0 + 0j
        part = 0j
        n = 0
        rr = 1.0
        small = 0
        # rel bounds t's relative rounding error; noise sums rel |t|, which
        # cancelling terms leave in the sum however small it is
        rel = 0.0
        noise = 0.0
        lo = end = 0
        while n != cut:
            if n == end:
                top = n + _BLOCK if cut is None else min(n + _BLOCK, cut)
                qms, uppers, lowers, amps, finite = block(
                    range(n, top) if right else range(-n - 1, -top - 1, -1))
                lo, end = n, n + len(qms)
            i = n - lo
            if not finite[i]:
                raise OverflowError(f"{label} side of psi series overflows "
                                    f"at term {n + 1 if right else -n - 1}")
            qm, upper, lower, amp = qms[i], uppers[i], lowers[i], amps[i]
            r = z * upper / lower if right else lower / upper / z
            if d and qm is not None:
                r *= (-qm) ** (d if right else -d)
            t = t * r
            part += t
            rel += _EPS * (amp + ops)
            noise += rel * abs(t)
            n += 1
            if cut is not None:
                continue
            rr = abs(r)
            # two consecutive sub-threshold terms guard against accidental
            # near-zeros of single factors
            if rr < 1.0 and abs(t) * rr / (1.0 - rr) < _PSI_TOL:
                small += 1
                if small >= 2 and n >= 6:
                    break
            else:
                small = 0
            if n >= _PSI_MAX_TERMS:
                raise ToleranceNotReached(
                    f"{label} side of psi series did not reach tolerance "
                    f"in {_PSI_MAX_TERMS} terms (|ratio|={rr:.6f})")
        total += part
        used += n
        est += noise
        if cut is None:
            est += abs(t) * (rr / (1.0 - rr)) if rr < 1.0 else abs(t)
    return SeriesValue(total, est, used, False)


# -- closed forms --------------------------------------------------------------

class QKind(enum.Enum):
    RAMANUJAN_1PSI1 = "Ramanujan1psi1"
    BAILEY_6PSI6 = "Bailey6psi6"
    Q_BINOMIAL_RATIO_LIMIT = "QBinomialRatioLimit"


def _q_form(kind: QKind, params: Dict[str, complex], q: complex
            ) -> Tuple[Optional[QSeriesSpec],
                       Callable[[], Tuple[List[complex], List[complex]]]]:
    """The basic series of a q-summation theorem (None for
    Q_BINOMIAL_RATIO_LIMIT, which has none) and a function giving the
    numerator and denominator lists of the q-product ratio that is its
    value, from one reading of the params.  The function checks
    Q_BINOMIAL_RATIO_LIMIT's 0 < |z| <= 1."""
    p = {k: complex(v) for k, v in params.items()}
    if kind is QKind.RAMANUJAN_1PSI1:
        a, b, z = p["a"], p["b"], p["z"]
        return (QSeriesSpec(q, [q ** a], [q ** b], z),
                lambda: ([q, q ** (b - a), q ** a * z, q ** (1 - a) / z],
                         [q ** b, q ** (1 - a), z, q ** (b - a) / z]))
    if kind is QKind.BAILEY_6PSI6:
        a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
        sa = cmath.sqrt(a)
        return (QSeriesSpec(
                    q,
                    [q * sa, -q * sa, b, c, d, e],
                    [sa, -sa, q * a / b, q * a / c, q * a / d, q * a / e],
                    q * a * a / (b * c * d * e)),
                lambda: ([q, q * a, q / a, q * a / (b * c), q * a / (b * d),
                          q * a / (b * e), q * a / (c * d), q * a / (c * e),
                          q * a / (d * e)],
                         [q / b, q / c, q / d, q / e, q * a / b, q * a / c,
                          q * a / d, q * a / e, q * a * a / (b * c * d * e)]))
    if kind is QKind.Q_BINOMIAL_RATIO_LIMIT:
        alpha, beta, z = p["alpha"], p["beta"], p["z"]

        def products():
            if not 0 < abs(z) <= 1:
                raise ConstraintViolation("needs 0 < |z| <= 1")
            return [q ** alpha * z], [q ** beta * z]
        return None, products
    raise ValueError(f"unknown kind {kind}")


def closed_form_q(kind: QKind, params: Dict[str, complex], q: float) -> complex:
    """Product-form values of the q-summation theorems, each the exp of one
    log_qpoch_ratio sum.  Each holds where its bilateral series converges
    absolutely, so the series' own annulus test decides: outside it the
    value raises ConstraintViolation, as does Q_BINOMIAL_RATIO_LIMIT outside
    0 < |z| <= 1."""
    kind = QKind(kind)
    q = _check_base(q)
    spec, products = _q_form(kind, params, q)
    problem = spec.annulus_violation() if spec is not None else None
    if problem:
        raise ConstraintViolation(f"{kind.value} series: {problem}")
    return cmath.exp(log_qpoch_ratio(*products(), q))


def q_binomial_ratio_target(alpha: complex, beta: complex, z: complex) -> complex:
    """q->1 limit of (q^alpha z;q)_inf / (q^beta z;q)_inf."""
    return (1.0 - complex(z)) ** (complex(beta) - complex(alpha))


def psi_spec_for(kind: QKind, params: Dict[str, complex], q: float) -> QSeriesSpec:
    """The explicit bilateral basic series summed by closed_form_q(kind)."""
    kind = QKind(kind)
    if kind is QKind.Q_BINOMIAL_RATIO_LIMIT:
        raise ValueError(f"no series spec for kind {kind}")
    return _q_form(kind, params, q)[0]


# -- q->1 asymptotics ----------------------------------------------------------

@dataclass
class QPochAsymptotic:
    value: complex
    error_bound: float
    rigorous: bool


def _segment_min_distance_to_one(a: complex) -> float:
    # min over t in [0,1] of |1 - t a|: distance from point 1 to segment [0, a]
    if a == 0:
        return 1.0
    t = (a.real) / (abs(a) ** 2)  # projection of 1 onto direction a
    t = min(1.0, max(0.0, t))
    return abs(1.0 - t * a)


def qpoch_inf_asymptotic(a: complex, alpha: complex, u: float) -> QPochAsymptotic:
    """Leading q->1 behavior of (a q^alpha; q)_inf with q = exp(-u).

    Returns (1-a)^(1/2-alpha) exp(-Li2(a)/u).  For alpha = 0 the bound K u^2
    on the log-scale gap (with the au/(12(1-a)) first-order term included) is
    exact, with K = (sqrt(3)/216) |a| (1+|a|) M^-3 and M = min over t in
    [0,1] of |1-ta|.  For other alpha the bound carries a heuristic
    first-order correction and is flagged non-rigorous.
    """
    a = complex(a)
    alpha = complex(alpha)
    if a.imag == 0 and a.real >= 1.0:
        raise BranchCutError(f"asymptotics need a outside [1, oo), got {a}")
    if u <= 0:
        raise DomainError("u must be positive")
    value = (1.0 - a) ** (0.5 - alpha) * cmath.exp(-dilog(a) / u)
    M = _segment_min_distance_to_one(a)
    K = (math.sqrt(3.0) / 216.0) * abs(a) * (1.0 + abs(a)) / M ** 3
    if alpha == 0:
        return QPochAsymptotic(value, K * u * u, True)
    # shifting a -> a q^alpha moves Li2 by alpha*u*log(1-a) + O(u^2); fold a
    # first-order allowance into the bound and mark it heuristic
    slack = abs(alpha) * (abs(alpha) + 1.0) * abs(cmath.log(1.0 - a)) * u * u
    return QPochAsymptotic(value, K * u * u + slack, False)


def lemma_qpoch_log_gap(a: complex, u: float) -> float:
    """|log (a;q)_inf + Li2(a)/u - log(1-a)/2 + a u/(12(1-a))| at q = exp(-u)."""
    a = complex(a)
    if a.imag == 0 and a.real >= 1.0:
        raise BranchCutError(f"needs a outside [1, oo), got {a}")
    q = math.exp(-u)
    lhs = log_qpoch_inf(a, q)
    gap = lhs + dilog(a) / u - 0.5 * cmath.log(1.0 - a) + a * u / (12.0 * (1.0 - a))
    return abs(gap)


@dataclass(frozen=True)
class QtoOnePath:
    """Path data for the termwise q->1 limit of a bilateral basic series to
    its classical bilateral counterpart."""

    alpha: Tuple[complex, ...]
    beta: Tuple[complex, ...]
    tau: float
    z: complex
    q_sequence: Tuple[float, ...]

    def __init__(self, alpha: Sequence[complex], beta: Sequence[complex],
                 tau: float, z: complex, q_sequence: Sequence[float]):
        object.__setattr__(self, "alpha", tuple(complex(x) for x in alpha))
        object.__setattr__(self, "beta", tuple(complex(x) for x in beta))
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "z", complex(z))
        object.__setattr__(self, "q_sequence", tuple(float(q) for q in q_sequence))
        sigma = sum(self.beta) - sum(self.alpha)
        if not sigma.real > 1.0:
            raise DomainError(f"needs Re sigma > 1, got {sigma}")
        if not 0.0 < self.tau < sigma.real:
            raise DomainError(f"needs 0 < tau < Re sigma, got tau={self.tau}")
        if abs(abs(self.z) - 1.0) > 1e-12:
            raise DomainError("z must lie on the unit circle")
        if not all(0.0 < q < 1.0 for q in self.q_sequence):
            raise DomainError("q_sequence must lie in (0,1)")
        if list(self.q_sequence) != sorted(self.q_sequence):
            raise DomainError("q_sequence must increase")

    @property
    def sigma(self) -> complex:
        return sum(self.beta) - sum(self.alpha)


def theorem21_limit_probe(path: QtoOnePath) -> List[Tuple[float, float]]:
    """For each q on the path, the gap between the deformed basic series at
    argument q^tau z and the classical bilateral series at z."""
    target = eval_H(BilateralSeriesSpec(path.alpha, path.beta, path.z))
    out = []
    for q in path.q_sequence:
        spec = QSeriesSpec(q,
                           [q ** al for al in path.alpha],
                           [q ** be for be in path.beta],
                           (q ** path.tau) * path.z)
        val = eval_psi(spec)
        out.append((q, abs(val.value - target.value)))
    return out
