"""Levin-type sequence acceleration for slowly convergent one-sided series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["levin_u", "sum_one_sided", "SeriesValue"]


@dataclass
class SeriesValue:
    """A series sum, its error estimate, terms summed and whether Levin ran."""

    value: complex
    est_error: float
    terms_used: int
    accelerated: bool


# terms in the last Levin window of a full budget
_LEVIN_BLOCK = 60
# terms sum_one_sided builds at a time before it checks its stopping rules
_BLOCK = 32


def levin_u(terms: ArrayLike) -> Union[Tuple[complex, float],
                                      Tuple[np.ndarray, np.ndarray]]:
    """u-variant Levin transform of sum(terms), with shift parameter
    beta = 1 (the 1.0 + n in the weights and coefficients below).

    ``terms`` is one sequence, giving a scalar (value, estimated error), or
    an (S, n) array of S >= 0 sequences, giving arrays of S values and
    errors; each row is transformed exactly as it would be alone, so a
    caller with several sequences (both tails of an integral) hands them
    to one call.  Each column of the table is one multiply and one subtract
    for all rows at once; each row's k-diagonal estimates are then walked
    in turn: the first stabilized estimate is kept, and the walk stops
    once roundoff makes successive estimates diverge again.  The
    error estimate is the stabilization gap with a small safety factor.
    The estimates read only the first 49 terms of a sequence (a table of
    depth 48); later terms enter only through the plain partial sum, which
    is kept where no estimate stabilizes.
    """
    t = np.asarray(terms, dtype=complex)
    rows = t.reshape(1, -1) if t.ndim == 1 else t
    S, n = rows.shape
    if n == 0:
        values, errs = np.zeros(S, dtype=complex), np.zeros(S)
    elif n < 4:
        values, errs = rows.cumsum(axis=1)[:, -1], np.abs(rows[:, -1])
    else:
        values, errs = _levin_rows(rows)
    if t.ndim == 1:
        return complex(values[0]), float(errs[0])
    return values, errs


# roundoff dominates the table well before depth ~50; deeper columns would
# also overflow the recursion coefficients
_LEVIN_DEPTH = 48


def _levin_coef(k: int) -> np.ndarray:
    """The recursion coefficients m (m + k - 1)^(k - 2) / (m + k)^(k - 1),
    m = 1, 2, ..., of table column k >= 2 (all 1 for k = 1), as far as a
    full table reads, as a column to scale the table's rows."""
    m = 1.0 + np.arange(_LEVIN_DEPTH + 1 - k)
    b = np.ones_like(m) if k == 1 else m * (m + k - 1) ** (k - 2) / (m + k) ** (k - 1)
    return b[:, None]


_LEVIN_COEF = {k: _levin_coef(k) for k in range(1, _LEVIN_DEPTH + 1)}


def _levin_rows(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Levin estimates of each row of t, n >= 4 terms a row.

    The depth-k estimate N_k[0] / D_k[0] depends only on the first k + 1
    columns of the table, so a row's estimates read its first
    _LEVIN_DEPTH + 1 = 49 terms; the others enter only through the plain
    partial sum the walk starts from.

    The table is laid out term-major, with the N of all S sequences side by
    side with their D in each row, and updated in place: column k keeps
    X_k[j] in row j + k, so its step
    X_k[j] = X_(k-1)[j + 1] - b_k[j] X_(k-1)[j] is one multiply into a
    preallocated buffer and one subtract into rows k..depth, and leaves
    X_k[0] in row k for the estimates."""
    S, n = t.shape
    s = np.cumsum(t, axis=1)
    depth = min(n - 1, _LEVIN_DEPTH)
    w = (1.0 + np.arange(depth + 1)) * t[:, :depth + 1]
    w[w == 0] = 1e-300
    table = np.empty((depth + 1, 2 * S), dtype=complex)
    table[:, :S] = (s[:, :depth + 1] / w).T
    table[:, S:] = (1.0 / w).T
    scaled = np.empty((depth, 2 * S), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, depth + 1):
            b = _LEVIN_COEF[k][:depth + 1 - k]
            prod = np.multiply(b, table[k - 1:depth], out=scaled[k - 1:])
            np.subtract(table[k:], prod, out=table[k:])
        ests = (table[1:, :S] / table[1:, S:]).T
    zero_d = (table[1:, S:] == 0).T
    values = np.empty(S, dtype=complex)
    errs = np.empty(S)
    for i in range(S):
        values[i], errs[i] = _walk(ests[i].tolist(), zero_d[i].tolist(),
                                   complex(s[i, -1]), abs(t[i, -1]))
    return values, errs


def _walk(ests, zero_d, best: complex, best_d: float) -> Tuple[complex, float]:
    """Pick a row's estimate from its k-diagonal, starting from the plain
    partial sum and its last term as the gap."""
    prev: Optional[complex] = None
    grow = 0
    for est, skip in zip(ests, zero_d):
        if skip:
            continue
        if not (abs(est.real) < 1e300 and abs(est.imag) < 1e300):
            break
        if prev is not None:
            d = abs(est - prev)
            if d < best_d:
                best, best_d = est, d
                grow = 0
            elif best_d > 0 and d > 100.0 * best_d:
                grow += 1
                if grow >= 3:
                    break
        prev = est
    return best, 4.0 * best_d + 1e-15 * abs(best)


def sum_one_sided(term_ratios: Callable[[np.ndarray], np.ndarray],
                  first_term: complex,
                  tol_abs: float,
                  max_terms: int = 400) -> SeriesValue:
    """Sum t_0 + t_1 + ... where t_{n+1} = t_n * term_ratios(n), and
    ``term_ratios`` maps an integer array of n to the array of ratios.

    Terms are built _BLOCK at a time, each block one running product and
    one running sum from where the last stopped, so every term and partial
    sum is rounded as in a term-by-term loop.  At the first term t_n, n >= 6,
    below 1e-17 of the partial sum (and 1e-30) the sum stops by raw decay;
    failing that, at the first n >= 8 whose ratio exceeds 0.75 in modulus
    the full budget of ``max_terms`` terms is built and windows starting at
    terms 0, 24, 96 and max_terms - 60 are handed to the Levin
    u-transform.  Each window's Levin estimates read its first 49 terms;
    its other terms enter only through the plain partial sum.
    """
    first = complex(first_term)
    if first == 0:
        return SeriesValue(0j, 0.0, 1, False)
    terms = [np.array([first])]
    total = first
    for lo in range(0, max_terms - 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, max_terms - 1))
        r = np.asarray(term_ratios(n), dtype=complex)
        t = np.multiply.accumulate(np.concatenate((terms[-1][-1:], r)))[1:]
        s = np.cumsum(np.concatenate(([total], t)))[1:]
        terms.append(t)
        # t[i] is term n[i] + 1
        mag = np.abs(t)
        floor = np.maximum(1e-30, 1e-17 * np.maximum(1.0, np.abs(s)))
        decayed = (mag < floor) & (n >= 5)
        slow = (n >= 7) & (np.abs(r) > 0.75)
        hit = np.flatnonzero(decayed | slow)
        if hit.size and decayed[hit[0]]:
            i = hit[0]
            rr = abs(r[i])
            tail = mag[i] * rr / (1.0 - rr) if rr < 1 else mag[i]
            total = complex(s[i])
            return SeriesValue(total, tail + 1e-16 * abs(total), int(n[i]) + 2, False)
        if hit.size:
            break
        total = complex(s[-1])
    else:
        r = abs(complex(term_ratios(np.array([max_terms - 1]))[0]))
        tail = abs(terms[-1][-1]) * (r / (1.0 - r) if r < 1 else 1.0)
        return SeriesValue(total, tail + 1e-16 * abs(total), max_terms, False)

    # non-geometric regime: generate the full budget (cheap) and transform
    # windows of partial sums, preferring whichever window stabilizes best
    rest = term_ratios(np.arange(n[-1] + 1, max_terms - 1))
    terms.append(np.multiply.accumulate(np.concatenate((t[-1:], rest)))[1:])
    terms = np.concatenate(terms)
    best_val = complex(np.sum(terms))
    best_err = float("inf")
    for off in (0, 24, 96, max_terms - _LEVIN_BLOCK):
        if off < 0 or len(terms) - off < 16:
            continue
        val, err = levin_u(terms[off:])
        val += complex(np.sum(terms[:off])) if off else 0.0
        if err < best_err:
            best_val, best_err = val, err
        if best_err <= tol_abs:
            break
    return SeriesValue(best_val, best_err, len(terms), True)
