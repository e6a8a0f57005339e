"""Levin-type sequence acceleration for slowly convergent one-sided series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["levin_u", "sum_one_sided", "SumResult"]


@dataclass
class SumResult:
    value: complex
    est_error: float
    terms_used: int
    accelerated: bool


# terms in the last Levin window of a full budget
_LEVIN_BLOCK = 60


def levin_u(terms: Sequence[complex]) -> Tuple[complex, float]:
    """u-variant Levin transform of sum(terms), with shift parameter
    beta = 1 (the 1.0 in each (1.0 + n) below).

    Walks the k-diagonal, keeps the first stabilized estimate and stops once
    roundoff makes successive estimates diverge again.  Returns (value,
    estimated error); the estimate is the stabilization gap with a small
    safety factor.
    """
    terms = [complex(t) for t in terms]
    if not terms:
        return 0j, 0.0
    s = np.cumsum(terms)
    if len(terms) < 4:
        return complex(s[-1]), abs(terms[-1])
    N = []
    D = []
    for n, t in enumerate(terms):
        w = (1.0 + n) * t
        if w == 0:
            w = 1e-300
        N.append(s[n] / w)
        D.append(1.0 / w)
    best = complex(s[-1])
    best_d = abs(terms[-1])
    prev: Optional[complex] = None
    grow = 0
    k = 1
    # roundoff dominates the table well before depth ~50; deeper columns
    # would also overflow the recursion coefficients
    max_depth = min(len(N) - 1, 48)
    while len(N) >= 2 and k <= max_depth:
        newN = []
        newD = []
        for n in range(len(N) - 1):
            if k == 1:
                b = 1.0
            else:
                b = (1.0 + n) * (1.0 + n + k - 1) ** (k - 2) / (1.0 + n + k) ** (k - 1)
            newN.append(N[n + 1] - b * N[n])
            newD.append(D[n + 1] - b * D[n])
        N, D = newN, newD
        if D[0] != 0:
            est = N[0] / D[0]
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
        k += 1
    err = 4.0 * best_d + 1e-15 * abs(best)
    return best, err


def sum_one_sided(term_ratios: Callable[[int], complex],
                  first_term: complex,
                  tol_abs: float,
                  max_terms: int = 400) -> SumResult:
    """Sum t_0 + t_1 + ... where t_{n+1} = t_n * term_ratios(n).

    Direct summation while the terms decay geometrically (ratio <= 0.75);
    otherwise partial sums are handed to the Levin u-transform in growing
    blocks up to ``max_terms`` terms.
    """
    terms = [complex(first_term)]
    if first_term == 0:
        return SumResult(0j, 0.0, 1, False)
    total = complex(first_term)
    n = 0
    geometric = True
    while n + 1 < max_terms:
        r = term_ratios(n)
        t = terms[-1] * r
        terms.append(t)
        total += t
        n += 1
        mag = abs(t)
        if mag < max(1e-30, 1e-17 * max(1.0, abs(total))) and n >= 6:
            # converged by raw decay
            rr = abs(r)
            tail = mag * rr / (1.0 - rr) if rr < 1 else mag
            return SumResult(total, tail + 1e-16 * abs(total), n + 1, False)
        if n >= 8 and abs(r) > 0.75:
            geometric = False
            break
    if geometric and n + 1 >= max_terms:
        r = abs(term_ratios(n))
        tail = abs(terms[-1]) * (r / (1.0 - r) if r < 1 else 1.0)
        return SumResult(total, tail + 1e-16 * abs(total), n + 1, False)

    # non-geometric regime: generate the full budget (cheap) and transform
    # windows of partial sums, preferring whichever window stabilizes best
    while len(terms) < max_terms:
        m = len(terms) - 1
        terms.append(terms[-1] * term_ratios(m))
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
    return SumResult(best_val, best_err, len(terms), True)
