"""The block-built bilateral basic series against the per-term loop it replaced.

``eval_psi_oracle`` is the former ``rbeta.qseries.eval_psi``, kept here
verbatim as the reference, with the parameter checks it called
(``QSeriesSpec.termination_cuts``, ``validate`` and ``annulus_violation``,
each matching every parameter against the powers of q on its own):
every term ratio from about eight small numpy calls.  The library now
classifies the parameters once and builds the ratio inputs of 32 indices in
one numpy pass, keeping the recurrence in Python scalars.  It must reproduce
the loop bit for bit: value, est_error and terms_used, or the class of the
exception it raised.  Where a row the loop reaches overflows, the loop warns
and the library raises OverflowError.  Where q^m leaves the float range,
far out on a left side, the loop raised OverflowError; the library sums on
with those factors taken times -q^-m, and its value is checked against the
series' product form.
"""

import cmath
import math
import struct
from typing import Optional, Tuple

import mpmath as mp
import numpy as np
import pytest

import rbeta.qintegrals as qi
import rbeta.qseries as qs
from rbeta.acceleration import SeriesValue
from rbeta.core import Tolerance
from rbeta.errors import IllFormedSpec, OutsideAnnulus, ToleranceNotReached
from rbeta.qintegrals import QIntegrandSpec, abel_psi_target
from rbeta.qseries import QSeriesSpec, QtoOnePath, eval_psi, theorem21_limit_probe

_PSI_MAX_TERMS = qs._PSI_MAX_TERMS
_EPS = qs._EPS


def _match_power(spec, value: complex, lo: int, hi: int) -> Optional[int]:
    # k in [lo, hi] with value == q^k, else None; log-space comparison so
    # huge negative powers cannot overflow
    lq = cmath.log(spec.q)
    lv = cmath.log(value)
    k = round(lv.real / lq.real)
    if not lo <= k <= hi:
        return None
    d = lv - k * lq
    di = (d.imag + math.pi) % (2.0 * math.pi) - math.pi
    if abs(complex(d.real, di)) <= 1e-12 * max(1.0, abs(k * lq.real)):
        return int(k)
    return None


def termination_cuts_oracle(spec) -> Tuple[Optional[int], Optional[int]]:
    right = None
    for aj in spec.a:
        if aj == 0:
            continue
        k = _match_power(spec, aj, -400, 0)
        if k is not None:
            right = -k if right is None else min(right, -k)
    left = None
    for bj in spec.b:
        if bj == 0:
            continue
        k = _match_power(spec, bj, 1, 400)
        if k is not None:
            left = k if left is None else min(left, k)
    return right, left


def validate_oracle(spec) -> None:
    right, left = termination_cuts_oracle(spec)
    for bj in spec.b:
        if bj == 0:
            continue
        # b_j = q^-j (j >= 0) zeroes a denominator factor at n = j+1;
        # a right cut at or before n = j keeps every surviving term finite
        k = _match_power(spec, bj, -400, 0)
        if k is not None and (right is None or right > -k):
            raise IllFormedSpec(f"lower parameter {bj} equals q^{k} "
                                f"without protective termination")
    for aj in spec.a:
        if aj == 0:
            continue
        # a_j = q^k (k >= 1) makes numerator factors infinite at n <= -k
        k = _match_power(spec, aj, 1, 400)
        if k is not None and (left is None or left > k):
            raise IllFormedSpec(f"upper parameter {aj} equals q^{k} "
                                f"without protective termination")


def annulus_violation_oracle(spec) -> Optional[str]:
    if spec.z == 0:
        return "argument must be nonzero"
    right_cut, left_cut = termination_cuts_oracle(spec)
    d = len(spec.b) - len(spec.a)
    if right_cut is None and d < 0:
        return "more upper than lower parameters: the right side diverges"
    if right_cut is None and d == 0 and not abs(spec.z) < 1.0:
        return f"|z|={abs(spec.z):.6g} not below 1"
    if left_cut is None:
        zeros = sum(bj == 0 for bj in spec.b) - sum(aj == 0 for aj in spec.a)
        if zeros < 0:
            return ("more zero upper than zero lower parameters: "
                    "the left side diverges")
        bound = (math.prod(abs(bj) for bj in spec.b if bj != 0)
                 / math.prod(abs(aj) for aj in spec.a if aj != 0))
        if zeros == 0 and not bound < abs(spec.z):
            return (f"|z|={abs(spec.z):.6g} not above annulus bound "
                    f"{bound:.6g}")
    return None


def eval_psi_oracle(spec: QSeriesSpec,
                    tol: Tolerance = Tolerance(abs=1e-12, rel=1e-10)
                    ) -> SeriesValue:
    validate_oracle(spec)
    right_cut, left_cut = termination_cuts_oracle(spec)
    q, z = spec.q, spec.z
    # the factors are 1 - x_j q^n over the upper, then the lower parameters
    x = np.asarray(spec.a + spec.b, dtype=complex)
    na = len(spec.a)
    d = len(spec.b) - len(spec.a)
    if d < 0:
        raise IllFormedSpec("more upper than lower parameters unsupported")
    problem = annulus_violation_oracle(spec)
    if problem:
        raise OutsideAnnulus(problem)

    tol_abs = max(tol.abs, 1e-16)
    # roundings per ratio that no factor amplifies: one per factor, the
    # products, z, the divisions, q^m, its power d, the step t * r and the sum
    ops = len(x) + abs(d) + 4

    def step(m: int) -> Tuple[complex, float]:
        # the ratio of the term at m + 1 to the one at m for m >= 0, and of
        # the term at m to the one at m + 1 for m < 0; and by how much the
        # factors amplify their rounding, sum_j |x_j q^m| / |1 - x_j q^m|
        qm = q ** m
        xq = x * qm
        f = 1.0 - xq
        upper, lower = complex(np.prod(f[:na])), complex(np.prod(f[na:]))
        r = z * upper / lower if m >= 0 else lower / upper / z
        if d:
            r *= (-qm) ** (d if m >= 0 else -d)
        return r, float(np.abs(xq / f).sum())

    total = 1.0 + 0j
    used = 1
    est = 0.0
    # the left side steps from index -k to -(k + 1)
    for label, ratio, cut in (("up", step, right_cut),
                              ("down", lambda k: step(-k - 1),
                               None if left_cut is None else left_cut - 1)):
        t = 1.0 + 0j
        part = 0j
        n = 0
        rr = 1.0
        small = 0
        # rel bounds t's relative rounding error; noise sums rel |t|, which
        # cancelling terms leave in the sum however small it is
        rel = 0.0
        noise = 0.0
        while n != cut:
            r, amp = ratio(n)
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
            if rr < 1.0 and abs(t) * rr / (1.0 - rr) < tol_abs:
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


def _psi_product(spec: QSeriesSpec) -> complex:
    """The product form, at 30 digits, of a series with one lower and at
    most one upper parameter: Ramanujan's 1psi1 sum, and its limit
    (q, z, q/z; q)_inf / (b, b/z; q)_inf as a -> infinity for the 0psi1."""
    assert len(spec.b) == 1 and len(spec.a) <= 1, spec
    with mp.workdps(30):
        q, z, b = mp.mpc(spec.q), mp.mpc(spec.z), mp.mpc(spec.b[0])

        def prod(*cs):
            return mp.fprod(mp.qp(c, q) for c in cs)
        if not spec.a:
            return complex(prod(q, z, q / z) / prod(b, b / z))
        a = mp.mpc(spec.a[0])
        return complex(prod(q, b / a, a * z, q / (a * z))
                       / prod(b, q / a, z, b / (a * z)))


def _assert_sums_to_its_product(spec: QSeriesSpec) -> None:
    sv = eval_psi(spec)
    assert abs(sv.value - _psi_product(spec)) <= sv.est_error, (spec, sv)


def _bits(v) -> bytes:
    """The exact bits of a float or complex, so -0.0 and nan compare too."""
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


def _outcome(fn, *args):
    """(value bits, est_error bits, terms_used) of a sum, or the class of
    the exception it raised."""
    try:
        sv = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return _bits(sv.value), _bits(sv.est_error), sv.terms_used


def _param(rng, scale):
    """A nonzero parameter: |x| log-uniform within a factor 3 of ``scale``,
    real of either sign or complex."""
    mag = scale * 3.0 ** rng.uniform(-1.0, 1.0)
    if rng.random() < 0.4:
        return complex(mag * rng.choice([-1.0, 1.0]))
    return mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _draw_spec(rng) -> QSeriesSpec:
    """A drawn bilateral basic series: real or complex q; len(b) - len(a)
    from 0 to 2 (now and then -1); some zero lower parameters; some a_j =
    q^-k and b_j = q^k terminating a side, a few of them unprotected; and
    |z| drawn across the annulus, a part of them outside it."""
    mod = float(rng.uniform(0.1, 0.9))
    q = mod if rng.random() < 0.5 else mod * cmath.exp(1j * rng.uniform(-3.0, 3.0))
    na = int(rng.integers(0, 4))
    d = int(rng.choice([0, 1, 2, -1], p=[0.37, 0.3, 0.3, 0.03]))
    nb = max(0, na + d)
    a = [_param(rng, 1.5) for _ in range(na)]
    b = [0j if rng.random() < 0.2 else _param(rng, 0.5) for _ in range(nb)]
    if na and rng.random() < 0.2:
        a[int(rng.integers(0, na))] = q ** -int(rng.integers(0, 7))
    if nb and rng.random() < 0.2:
        b[int(rng.integers(0, nb))] = q ** int(rng.integers(1, 7))
    if rng.random() < 0.03:
        # unprotected: a lower q^-j or an upper q^k
        if nb and rng.random() < 0.5:
            b[0] = q ** -int(rng.integers(0, 4))
        elif na:
            a[0] = q ** int(rng.integers(1, 4))
    zeros = sum(bj == 0 for bj in b)
    if zeros:
        lo, hi = -3.0, 0.5
    else:
        bound = (math.prod(abs(bj) for bj in b)
                 / math.prod(abs(aj) for aj in a))
        lb = math.log(bound)
        lo, hi = sorted((lb, 0.0 if d == 0 else lb + 2.0))
        pad = 0.15 * (hi - lo) + 0.1
        lo, hi = lo - pad, hi + pad
    rz = math.exp(rng.uniform(lo, hi))
    return QSeriesSpec(q, a, b, rz * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))


def test_drawn_specs_match_the_loop_bit_for_bit():
    rng = np.random.default_rng(20261019)
    kinds = {"sum": 0, "right_cut": 0, "left_cut": 0, "zero_lower": 0,
             "complex_q": 0, "outside": 0, "ill_formed": 0}
    diffs = set()
    n = 3000
    past_range = 0
    for _ in range(n):
        spec = _draw_spec(rng)
        want = _outcome(eval_psi_oracle, spec)
        got = _outcome(eval_psi, spec)
        if (want in (OverflowError, RuntimeWarning)
                and not isinstance(got, type)):
            # the loop's q^m left the float range, where eval_psi sums on
            _assert_sums_to_its_product(spec)
            past_range += 1
            continue
        # where a row the loop reaches overflows, the loop warns and
        # eval_psi raises
        if want is RuntimeWarning:
            want = OverflowError
        if want != got:
            pytest.fail(f"eval_psi differs from the loop on {spec}: {got}")
        if isinstance(got, type):
            kinds["outside" if got is OutsideAnnulus else "ill_formed"] += 1
            continue
        right, left = termination_cuts_oracle(spec)
        kinds["sum"] += 1
        kinds["right_cut"] += right is not None
        kinds["left_cut"] += left is not None
        kinds["zero_lower"] += any(bj == 0 for bj in spec.b)
        kinds["complex_q"] += spec.q.imag != 0
        diffs.add(len(spec.b) - len(spec.a))
    # every kind the draw aims at is there, not only in principle
    assert diffs == {0, 1, 2}
    assert kinds["sum"] >= n // 2 and min(kinds.values()) >= 40, kinds
    assert past_range >= 5


def test_parameter_checks_match_the_separate_ones():
    # one classification per call, the same cuts, problems and exceptions
    rng = np.random.default_rng(7)
    for _ in range(2000):
        spec = _draw_spec(rng)
        assert spec.termination_cuts() == termination_cuts_oracle(spec)
        assert spec.annulus_violation() == annulus_violation_oracle(spec)
        try:
            validate_oracle(spec)
            want = None
        except IllFormedSpec as exc:
            want = str(exc)
        try:
            assert spec.validate() == termination_cuts_oracle(spec)
            got = None
        except IllFormedSpec as exc:
            got = str(exc)
        assert got == want


@pytest.mark.parametrize("cut", [31, 32, 33])
def test_a_right_side_that_ends_at_a_block_edge(cut):
    # a = q^-cut ends the right side at n = cut: its ratios fill less than,
    # exactly or one more than the first block of qs._BLOCK = 32 indices
    assert qs._BLOCK == 32
    spec = QSeriesSpec(0.5, [0.5 ** -cut], [0.3], 0.2)
    assert termination_cuts_oracle(spec) == (cut, None)
    want = _outcome(eval_psi_oracle, spec)
    assert _outcome(eval_psi, spec) == want


# q = 0.05, and a = 1 ends the right side at n = 0.  The left side's ratio
# tends to prod|b| / prod|a| / |z|, so |z| just above that bound makes it long.
# With b = 0.25, q^m leaves the float range at m = -237, the index of the
# left side's term 236; with a = (1, 40), b = (0.25, 30) the lower product
# overflows in numpy from about term 118 on.
_NEAR_OVERFLOW = [
    ([1.0], [0.25], 0.285, 226),
    ([1.0, 40.0], [0.25, 30.0], 0.2438, 111),
]


@pytest.mark.parametrize("a,b,z,terms", _NEAR_OVERFLOW,
                         ids=["q-power", "lower-product"])
def test_a_side_that_stops_just_short_of_overflow(a, b, z, terms):
    # the side stops inside the block that reaches the overflow; computing
    # the indices past its stop must neither raise nor warn (the test run
    # makes numpy warnings errors)
    spec = QSeriesSpec(0.05, a, b, z)
    want = _outcome(eval_psi_oracle, spec)
    assert want[2] == 1 + terms
    assert _outcome(eval_psi, spec) == want


@pytest.mark.parametrize("q,a,b,z,want", [
    # the loop raised where q^m leaves the float range
    (0.05, [1.0], [0.25], 0.2825, None),
    # the loop warns that the lower product overflows
    (0.05, [1.0, 40.0], [0.25, 30.0], 0.24, OverflowError),
    # |b / z| = 0.99997: at term 2589, x q^m is finite but numpy's complex
    # array times the scalar q^m = -8.3e307 + 1.14e308i flags an overflow;
    # with the flag ignored the loop sums on until a later q^m overflows
    (-0.1396691098068077 + 0.7474289465409901j, [], [-0.18664232858260874],
     0.15930834965967788 - 0.09743544014618993j, None),
], ids=["q-power", "lower-product", "array-times-scalar"])
def test_a_side_that_reaches_overflow_fails_as_the_loop(q, a, b, z, want):
    # a little closer to the bound the side needs those indices: a row whose
    # values overflow raises OverflowError as in the loop, and a side that
    # runs past the float range of q^m sums on to its product form
    spec = QSeriesSpec(q, a, b, z)
    if want is None:
        _assert_sums_to_its_product(spec)
    else:
        assert _outcome(eval_psi, spec) == want


def test_abel_psi_targets_match_the_loop(monkeypatch):
    # the draws of the abel-poisson-kernel identity
    from rbeta.verify import _safe_q, _udraw
    rng = np.random.default_rng(11)
    specs = []
    for _ in range(400):
        q = _safe_q(rng)
        m = int(rng.integers(1, 3))
        a = [_udraw(rng, 1.8, 3.0) for _ in range(m)]
        b = [_udraw(rng, 0.1, 0.45) for _ in range(m)]
        w = [_udraw(rng, 0.8, 1.2) for _ in range(m)]
        specs.append(QIntegrandSpec(q, a, b, w, _udraw(rng, -1.0, 1.0)))
    got = [_bits(abel_psi_target(sp)) for sp in specs]
    monkeypatch.setattr(qi, "eval_psi", eval_psi_oracle)
    assert [_bits(abel_psi_target(sp)) for sp in specs] == got


def test_theorem21_probes_match_the_loop(monkeypatch):
    # the paths of the basic-to-classical limit identity, with its q sequence
    from rbeta.verify import _Q_SEQ, _udraw
    rng = np.random.default_rng(5)
    paths = []
    for _ in range(3):
        m = int(rng.integers(1, 3))
        alpha = [_udraw(rng, 0.05, 0.4) for _ in range(m)]
        beta = [a + _udraw(rng, 1.1, 2.2) / m + (2.0 / m - 1.0) for a in alpha]
        sigma = sum(beta) - sum(alpha)
        paths.append(QtoOnePath(alpha, beta, 0.5 * sigma,
                                cmath.exp(1j * _udraw(rng, 0.4, 5.9)), _Q_SEQ))
    got = [[_bits(g) for _, g in theorem21_limit_probe(p)] for p in paths]
    monkeypatch.setattr(qs, "eval_psi", eval_psi_oracle)
    assert [[_bits(g) for _, g in theorem21_limit_probe(p)] for p in paths] == got
