"""The array Levin transform against the pure-Python table it replaced.

``levin_u_oracle`` is the former ``rbeta.acceleration.levin_u``, kept here
verbatim as the reference: one list-based table walked down its k-diagonal
with early exit.  The library now builds the table's columns for many
sequences at once and walks each row's estimates afterwards, so values may
differ in the last bits (numpy against Python complex arithmetic) but must
agree to 1e-13 relative, with error estimates within a factor of 2.

Two complex unit-circle signals are noise-limited: there the old and the new
table each land 0.7-1.8e-13 (relative) from the same transform in 60-digit
arithmetic (mpmath) of the same double terms, so a 1e-13 match would be
down to chance; they are held to 2e-13.  Where the oracle's error
estimate is itself at the roundoff floor (below 1e-12 relative), the
minimum gap it is taken from is roundoff and only that floor is checked.

``levin_rows_full_table`` is the array transform before its table was cut
to the 49 columns that its depth-48 estimates read, and before it was built
only as deep as its rows' walks read; with ``walk_full`` it is kept here
whole, independent of the library's walk, and the library must match it
bit for bit.
"""

import math
from typing import Optional, Sequence, Tuple

import numpy as np
import pytest

from rbeta.acceleration import _levin_rows, levin_u


def levin_u_oracle(terms: Sequence[complex]) -> Tuple[complex, float]:
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


def _from_ratio(first, ratio, n):
    out = [complex(first)]
    for k in range(n - 1):
        out.append(out[-1] * ratio(k))
    return np.array(out)


def _signals():
    th = math.pi / 3
    return {
        "geometric": [0.7 ** n for n in range(30)],
        "geometric-complex": [(0.5 + 0.6j) ** n for n in range(40)],
        "alternating": [(-1.0) ** n / (n + 1.0) for n in range(25)],
        "zeta-1.2": [1.0 / (n + 1.0) ** 1.2 for n in range(60)],
        "zeta-1.5": [1.0 / (n + 1.0) ** 1.5 for n in range(40)],
        "unit-circle": [np.exp(1j * (n + 1) * th) / (n + 1) ** 0.3
                        for n in range(30)],
        "unit-circle-48": [np.exp(0.9j * n) / (n + 14.0) ** 1.7
                           for n in range(48)],
        "zero-term": [1.0, 0.5, 0.0, 0.25, -0.125, 0.0625, 0.03, 0.01],
        "three-terms": [1.0, 0.5 + 0.1j, 0.25],
        "one-term": [2.0 - 1.0j],
        "empty": [],
    }


# 400-term budgets as sum_one_sided builds them, with its four windows
_RATIOS = {
    "hyper-0.3-2.6": lambda n: (0.3 + n) / (2.6 + n),
    "hyper-alternating": lambda n: -(0.5 + n) / (1.7 + n),
    "hyper-unit-circle": lambda n: (0.2 + n) / (1.9 + n) * np.exp(1j * math.pi / 3),
}
_WINDOWS = [(name, off) for name in _RATIOS for off in (0, 24, 96, 340)]


# signals whose transform is noise-limited at the 1e-13 level
_NOISY = {"unit-circle-48", "hyper-unit-circle"}


def _assert_close(got, want, rtol=1e-13):
    v, e = got
    v0, e0 = want
    assert abs(v - v0) <= rtol * abs(v0), (v, v0)
    if e0 == 0:
        assert e == 0
    elif e0 <= 1e-12 * abs(v0):
        assert e <= 1e-12 * abs(v), (e, e0)
    else:
        assert 0.5 * e0 <= e <= 2.0 * e0, (e, e0)


@pytest.mark.parametrize("name", list(_signals()))
def test_levin_matches_oracle(name):
    terms = _signals()[name]
    _assert_close(levin_u(terms), levin_u_oracle(terms),
                  2e-13 if name in _NOISY else 1e-13)


@pytest.mark.parametrize("name,off", _WINDOWS)
def test_levin_matches_oracle_on_sum_windows(name, off):
    terms = _from_ratio(1.0, _RATIOS[name], 400)[off:]
    _assert_close(levin_u(terms), levin_u_oracle(terms),
                  2e-13 if name in _NOISY else 1e-13)


def test_levin_empty_and_short_exact():
    assert levin_u([]) == (0j, 0.0)
    assert levin_u([1.0, 0.5, 0.25]) == (1.75 + 0j, 0.25)


@pytest.mark.parametrize("n", [2, 48, 400])
def test_levin_stacked_rows_bit_identical(n):
    rng = np.random.default_rng(7)
    rows = [_from_ratio(1.0, ratio, n) for ratio in _RATIOS.values()]
    rows += [np.exp(1j * rng.uniform(0, 2 * math.pi)
                    * np.arange(n)) / (np.arange(n) + rng.uniform(1, 20)) ** 1.3
             for _ in range(5)]
    rows.append(np.where(np.arange(n) % 3 == 1, 0.0, rows[0]))
    stacked = np.array(rows)
    values, errs = levin_u(stacked)
    assert values.shape == errs.shape == (len(rows),)
    for row, v, e in zip(rows, values, errs):
        v1, e1 = levin_u(row)
        assert v1 == v and e1 == e


# -- the table sized to what its estimates read ---------------------------------

def walk_full(ests, zero_d, best: complex, best_d: float) -> Tuple[complex, float]:
    """Pick a row's estimate from its whole k-diagonal, starting from the
    plain partial sum and its last term as the gap."""
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


def full_table_estimates(t):
    """Every row's k-diagonal estimates, which of them have D = 0, and the
    partial sums, from the whole table: every column of the table is built
    for all n terms, with the recursion coefficients computed per column."""
    S, n = t.shape
    s = np.cumsum(t, axis=1)
    w = (1.0 + np.arange(n)) * t
    w[w == 0] = 1e-300
    N = s / w
    D = 1.0 / w
    depth = min(n - 1, 48)
    N0 = np.empty((S, depth), dtype=complex)
    D0 = np.empty((S, depth), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, depth + 1):
            m = 1.0 + np.arange(n - k)
            b = 1.0 if k == 1 else m * (m + k - 1) ** (k - 2) / (m + k) ** (k - 1)
            N = N[:, 1:] - b * N[:, :-1]
            D = D[:, 1:] - b * D[:, :-1]
            N0[:, k - 1] = N[:, 0]
            D0[:, k - 1] = D[:, 0]
        ests = N0 / D0
    return ests, D0 == 0, s


def levin_rows_full_table(t):
    """The array Levin transform as it was before its table was cut to the
    columns the estimates read, each row walked over its whole table."""
    ests, zero_d, s = full_table_estimates(t)
    values = np.empty(len(t), dtype=complex)
    errs = np.empty(len(t))
    for i in range(len(t)):
        values[i], errs[i] = walk_full(ests[i].tolist(), zero_d[i].tolist(),
                                       complex(s[i, -1]), abs(t[i, -1]))
    return values, errs


def walk_stops(t):
    """The number of estimates each row's walk reads before it stops (all
    of them if it never does)."""
    ests, zero_d, s = full_table_estimates(t)
    out = []
    for i in range(len(t)):
        read = []

        def counted(row):
            for est in row:
                read.append(est)
                yield est
        walk_full(counted(ests[i].tolist()), zero_d[i].tolist(),
                  complex(s[i, -1]), abs(t[i, -1]))
        out.append(len(read))
    return out


def _assert_same_bits(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    got = _levin_rows(rows)
    want = levin_rows_full_table(rows)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(float), w.view(float)), (g, w)


@pytest.mark.parametrize("name", [k for k, v in _signals().items()
                                  if len(v) >= 4])
def test_levin_window_bit_identical_on_signals(name):
    _assert_same_bits(_signals()[name])


@pytest.mark.parametrize("name,off", _WINDOWS)
def test_levin_window_bit_identical_on_sum_windows(name, off):
    _assert_same_bits(_from_ratio(1.0, _RATIOS[name], 400)[off:])


@pytest.mark.parametrize("n", [4, 48, 49, 60, 304, 376, 400])
def test_levin_window_bit_identical_stacked(n):
    # stacked rows of every kind, one with zero terms (weighted as 1e-300)
    rng = np.random.default_rng(n)
    k = np.arange(n)
    rows = [_from_ratio(1.0, ratio, n) for ratio in _RATIOS.values()]
    rows += [np.exp(1j * rng.uniform(0, 2 * math.pi) * k)
             / (k + rng.uniform(1, 20)) ** rng.uniform(0.3, 2.5)
             for _ in range(5)]
    rows.append(np.where(k % 3 == 1, 0.0, rows[0]))
    rows.append(np.where(k >= 2, 0.0, rows[1]))
    _assert_same_bits(rows)
    for row in rows:
        _assert_same_bits(row)


def test_levin_table_built_past_the_walks_that_stopped():
    # rows whose walks stop within the first 8 columns (fast geometric
    # decay, read to the roundoff floor) stacked with rows that read all 48
    # estimates (slow algebraic decay on the unit circle): the table goes on
    # for the live rows, and every row keeps the bits of the full table
    k = np.arange(60)
    rows = np.array([0.3 ** k, (-0.2 + 0.1j) ** k,
                     np.exp(0.9j * k) / (k + 14.0) ** 1.7,
                     np.exp(2.1j * k) / (k + 3.0) ** 0.6,
                     0.5 ** k * np.exp(1j * k)], dtype=complex)
    stops = walk_stops(rows)
    assert min(stops) <= 8 and max(stops) == 48, stops
    _assert_same_bits(rows)
    _assert_same_bits(rows[::-1])
