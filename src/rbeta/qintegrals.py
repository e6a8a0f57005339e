"""q-deformed Ramanujan-type integrals: Gaussian-weighted infinite-product
integrands, their product closed forms, the Abel/Poisson-kernel route back
to bilateral basic series, and the q-beta integral family with its q->1
constants.

Integrands are evaluated in log space (the infinite products overflow long
before the integrand itself leaves double range).  `q_quadrature` sums them
on a trapezoid lattice s + k/p centred at the integrand's peak: they are
entire and fall off like Gaussians, so by Poisson summation the lattice errs
only by an alias sum that falls exponentially in p.  Each q-product is
summed by one cumulative sweep down each lattice column
(`qseries.log_qpoch_lattice`).  Its `panels` counts lattice nodes.  The
Abel/Poisson-kernel route keeps Gauss panels graded toward the kernel's
peaks, summed with the 20-point rule alone, and its own geometric
truncation, one `log_f` call on six probe abscissae per truncation
candidate.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (AnnulusViolation, ConstraintViolation, DomainError,
                     StripViolation, ToleranceNotReached)
from .gammafns import gamma, log_gaussian_q_integral
from .quadrature import _MAX_NODES, QuadratureResult, panel_nodes, panel_sums
from .qseries import (QSeriesSpec, eval_psi, log_qpoch_inf, log_qpoch_lattice,
                      log_qpoch_ratio, qpoch_inf, q_gamma)

__all__ = [
    "QIntegrandSpec", "q_integrate", "q_fourier_closed", "abel_poisson_psi",
    "abel_psi_target", "QBetaKind", "qbeta_family", "limit_constant",
    "limit_constant_target", "h_of_q", "h_of_q_target", "h_of_q_probe",
]


@dataclass(frozen=True)
class QIntegrandSpec:
    """Product of m Gaussian-type factors
    (b_j q^x; q)_inf (q^(1-x)/a_j; q)_inf q^(x(x-1)/2) w_j^x, with frequency t."""

    q: complex
    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    w: Tuple[complex, ...]
    t: complex = 0.0

    def __init__(self, q: complex, a: Sequence[complex], b: Sequence[complex],
                 w: Sequence[complex], t: complex = 0.0):
        if not (0 < abs(complex(q)) < 1):
            raise DomainError("base must satisfy 0 < |q| < 1")
        if not (len(a) == len(b) == len(w)) or len(a) == 0:
            raise ValueError("a, b, w must be equal-length nonempty lists")
        object.__setattr__(self, "q", complex(q))
        object.__setattr__(self, "a", tuple(complex(x) for x in a))
        object.__setattr__(self, "b", tuple(complex(x) for x in b))
        object.__setattr__(self, "w", tuple(complex(x) for x in w))
        object.__setattr__(self, "t", complex(t))

    @property
    def m(self) -> int:
        return len(self.a)

    def _abs_products(self) -> Tuple[float, float, float]:
        """prod|a|, prod|b|, prod|w|."""
        return tuple(float(np.prod(np.abs(v))) for v in (self.a, self.b, self.w))

    def check_annulus(self) -> None:
        pa, pb, pw = self._abs_products()
        if not pb < pw < pa:
            raise AnnulusViolation(
                f"needs prod|b| < prod|w| < prod|a| (got {pb:.4g}, {pw:.4g}, {pa:.4g})")

    def check_strip(self) -> None:
        pa, pb, pw = self._abs_products()
        ti = self.t.imag
        lo = math.log(pb / pw) if pb > 0 else -math.inf
        hi = math.log(pa / pw)
        if not lo < ti < hi:
            raise StripViolation(f"Im t = {ti:.4g} outside ({lo:.4g}, {hi:.4g})")

    def log_f(self, x: np.ndarray) -> np.ndarray:
        q = self.q
        lq = cmath.log(q)
        out = np.zeros(x.shape, dtype=complex)
        for aj, bj, wj in zip(self.a, self.b, self.w):
            out = out + log_qpoch_inf(bj * np.exp(x * lq), q)
            out = out + log_qpoch_inf((1.0 / aj) * np.exp((1.0 - x) * lq), q)
            out = out + cmath.log(wj) * x
        out = out + self.m * 0.5 * x * (x - 1.0) * lq
        return out

    def decay_ratios(self) -> Tuple[float, float]:
        """|f(x+1)/f(x)| limits: prod|w/a| e^{Im t} rightward, prod|b/w|
        e^{-Im t} leftward.  Only the Abel route's truncation reads them;
        the lattice of `q_integrate` is cut at its rows' own decay."""
        pa, pb, pw = self._abs_products()
        ti = self.t.imag
        return pw / pa * math.exp(ti), pb / pw * math.exp(-ti)


# probe offsets below a candidate X: three points at X and the same three one
# unit back, so isolated zeros of the integrand cannot fake decay
_PROBE_OFFSETS = (0.0, 0.372, 0.709, 1.0, 1.372, 1.709)


def _tail_bound(lm: Sequence[float], ratio: float) -> Tuple[float, float]:
    """(tail, rho): the boundary magnitude at X times the geometric tail past
    it, from the log-magnitudes `lm` at X - _PROBE_OFFSETS."""
    lm_here, lm_prev = max(lm[:3]), max(lm[3:])
    # in the transient the local one-step decay can be far slower than
    # the asymptotic ratio; trust the worse of the two
    local = math.exp(min(0.0, max(-700.0, lm_here - lm_prev)))
    rho = min(max(ratio, local), 0.98)
    mag = math.exp(min(700.0, lm_here))
    return mag * rho / (1.0 - rho), rho


def _geometric_truncation(log_mag: Callable[[List[float]], List[float]],
                          ratio: float, tol_abs: float) -> float:
    """First X of the candidates 4, 4 + step, ... whose boundary magnitude
    times geometric tail is below tol.  `log_mag` takes a candidate's six
    probe abscissae X - _PROBE_OFFSETS in one call and returns their
    log-magnitudes.

    Each step covers half the log-distance to tol at the current decay ratio.
    Raises ToleranceNotReached when 200 candidates leave the tail above tol.
    """
    if ratio >= 1.0:
        raise AnnulusViolation("integrand does not decay on this side")
    X = 4.0
    for _ in range(200):
        tail, rho = _tail_bound(log_mag([X - d for d in _PROBE_OFFSETS]), ratio)
        if tail < tol_abs:
            return X
        X += max(1.0, math.log(max(tail / tol_abs, 2.0)) / -math.log(rho) * 0.5)
    raise ToleranceNotReached(
        f"integrand tail {tail:.3g} still above {tol_abs:.3g} at X = {X:.6g}")


# -- the q-integral lattice rule -------------------------------------------------

# the lattice is s + k/p: a shift that no dyadic refinement brings onto the
# integers, where a q-Fourier lattice sum would be the psi series itself
_LATTICE_SHIFT = 1.0 / 3.0
# the unit-row scan starts at rows -32..32 and doubles a side's reach until
# a row on it passes, up to this reach.  A `g` call costs its fixed numpy
# overhead plus about 39/u lead-in rows a column (u = -log q) whatever its
# number of rows, so 65 rows cost about what 17 would, and the wide start
# spares most integrals every doubling call
_MAX_ROWS = 4096
# alias exponent wanted of the half lattice: e^-18 = 1.5e-8 relative
_ALIAS_LOG = 18.0
# log of the share of the peak magnitude below which the lattice cuts its tails
_LOG_CUT = math.log(1e-17)


def _first_passing_row(lm: np.ndarray, log_cut: float) -> Optional[int]:
    """Index of the first row past lm[0] whose tail bound passes, or None.

    `lm` holds the log-magnitudes of unit rows outward from the peak row
    lm[0].  A row's magnitude is the larger of its own and its outward
    neighbour's, so a zero of the integrand on one row cannot fake decay.  A
    row passes when that magnitude falls from the row before by rho < 1 and,
    times 1/(1 - rho), lies below exp(log_cut): with |f| falling by rho per
    unit past the row, that bounds the lattice sum beyond it at any spacing.
    """
    env = np.maximum(lm[:-1], lm[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        step = env[1:] - env[:-1]
        tail = env[1:] - np.log1p(-np.exp(np.minimum(step, 0.0)))
    hits = np.flatnonzero((step < 0.0) & (tail < log_cut))
    return int(hits[0]) + 1 if hits.size else None


def _lattice_rows(g: Callable[[np.ndarray], np.ndarray]
                  ) -> Tuple[int, np.ndarray, float]:
    """(k0, g on the rows k0..k1 at s + k, log cut) for the log-integrand g:
    the rows between the first passing row on each side of the peak row.

    The first scan covers the rows -32..32, and a side without a passing row
    doubles its reach.  The cut is 1e-17 x the peak magnitude.  Raises
    ToleranceNotReached when a side has no passing row within _MAX_ROWS.
    """
    lo, hi = -32, 32
    vals = g(_LATTICE_SHIFT + np.arange(lo, hi + 1.0))
    while True:
        lm = vals.real
        i0 = int(np.argmax(lm))
        log_cut = lm[i0] + _LOG_CUT
        right = _first_passing_row(lm[i0:], log_cut)
        left = _first_passing_row(lm[i0::-1], log_cut)
        if right is not None and left is not None:
            return lo + i0 - left, vals[i0 - left:i0 + right + 1], log_cut
        if max(-lo, hi) >= _MAX_ROWS:
            raise ToleranceNotReached(
                f"no row within {lo}..{hi} of the peak row {lo + i0} bounds "
                f"the tails below {math.exp(log_cut):.3g}")
        if left is None:
            vals = np.concatenate(
                (g(_LATTICE_SHIFT + np.arange(2 * lo, lo, 1.0)), vals))
            lo *= 2
        if right is None:
            vals = np.concatenate(
                (vals, g(_LATTICE_SHIFT + np.arange(hi + 1, 2 * hi + 1, 1.0))))
            hi *= 2


def _lattice_order(kappa: float, omega: float) -> int:
    """Nodes per unit p: the smallest power of two >= 2 for which the sum
    over every other node, spacing 2/p, has the alias bound
    exp(-pi p' (pi p' - omega) / kappa), p' = p/2, below e^-_ALIAS_LOG.  That
    bound is the Fourier transform of an integrand whose log-magnitude falls
    like kappa x^2 and whose frequency is omega, at the nearest alias,
    relative to its value at 0; the full lattice's bound is then below
    e^(-4 _ALIAS_LOG), so the distance between the two sums bounds its error.
    The doubling stops once p passes _MAX_NODES.
    """
    p = 2
    while (p <= _MAX_NODES and math.pi * p / 2 * (math.pi * p / 2 - omega)
           < _ALIAS_LOG * kappa):
        p *= 2
    return p


# a q-product factor (c q^(o + s x); q)_inf of an integrand as (c, o, s),
# s = +1 or -1
QFactor = Tuple[complex, complex, int]


def q_quadrature(rest: Callable[[np.ndarray], np.ndarray],
                 factors: Sequence[QFactor], q: complex, t: complex,
                 kappa: float, freq_hint: float) -> QuadratureResult:
    """Trapezoid-lattice integral of f(x) e^(-i t x) over the line, where
    log f = rest + the log q-products `factors` at base q.

    The nodes are s + k/p between the first unit rows on each side of the
    integrand's peak whose geometric tail bound, at the row's own one-step
    decay, falls below 1e-17 x the peak magnitude (`_lattice_rows`), so the
    rule scales with the integrand.  On these entire integrands the
    lattice errs only by the alias sum of the Fourier transform at multiples
    of 2 pi p (Poisson summation), so p is chosen from the Gaussian
    coefficient kappa of log|f| and the frequency |Re t| + freq_hint
    (`_lattice_order`).  A lattice of more than _MAX_NODES nodes raises
    ConstraintViolation.  The q-products are summed by one
    cumulative sweep down each lattice column (`log_qpoch_lattice`).
    est_error is the distance to the sum over every other node, plus the two
    tail bounds and the rounding of the sum.
    """
    t = complex(t)

    def g(x: np.ndarray) -> np.ndarray:
        return rest(x) + log_qpoch_lattice(factors, q, x) - 1j * t * x

    omega = abs(t.real) + freq_hint
    p = _lattice_order(kappa, omega)
    if p > _MAX_NODES:
        raise ConstraintViolation(
            f"frequency {omega:.4g} needs more than {_MAX_NODES} lattice "
            f"nodes a unit")
    k0, rows, log_cut = _lattice_rows(g)
    n = len(rows) - 1
    if n * p > _MAX_NODES:
        raise ConstraintViolation(
            f"frequency {omega:.4g} needs {n * p} lattice nodes, more than "
            f"{_MAX_NODES}")
    # one unit row, then the p - 1 nodes after it, row by row
    logs = np.empty((n, p), dtype=complex)
    logs[:, 0] = rows[:-1]
    logs[:, 1:] = g(_LATTICE_SHIFT + np.arange(k0, k0 + n, 1.0)[:, None]
                    + np.arange(1, p)[None, :] / p)
    with np.errstate(over="ignore", under="ignore"):
        f = np.exp(np.append(logs.ravel(), rows[-1]))
    h = 1.0 / p
    value = complex(f.sum()) * h
    # p is even, so every other node from the first is the lattice of p/2
    coarse = complex(f[::2].sum()) * 2.0 * h
    # rounding: a node's log sums its products' log1p terms from the cut
    # 1e-17 down its column, about 36/u of them to magnitudes of order 1/u,
    # u = -log q, so its relative error grows like 1/u, or 1/kappa (6e-14
    # measured on q-beta draws at q = 0.99)
    err = (abs(value - coarse) + 2.0 * math.exp(log_cut)
           + 1e-13 * (1.0 + 1.0 / kappa) * float(np.abs(f).sum()) * h)
    return QuadratureResult(value, err, len(f),
                            max(abs(_LATTICE_SHIFT + k0),
                                abs(_LATTICE_SHIFT + k0 + n)))


def q_integrate(spec: QIntegrandSpec) -> QuadratureResult:
    """Integral of the m-factor q-integrand times exp(-i x t); t may be
    complex inside the analyticity strip."""
    spec.check_annulus()
    if spec.t.imag != 0.0:
        spec.check_strip()
    # log|f| falls like Re(c) x^2 with c = m u / 2, u = -log q; a complex q
    # adds a chirp, and the transform of e^(-c x^2) falls like
    # e^(-xi^2 Re(1/c) / 4), hence kappa = |c|^2 / Re c
    lq = cmath.log(spec.q)
    u = -lq
    kappa = spec.m * abs(u) ** 2 / (2.0 * u.real)
    freq = sum(abs(cmath.log(w).imag) for w in spec.w)
    lw = sum(cmath.log(w) for w in spec.w)
    # (b_j q^x, q^(1 - x) / a_j; q)_inf
    factors = [f for aj, bj in zip(spec.a, spec.b)
               for f in ((bj, 0.0, 1), (1.0 / aj, 1.0, -1))]

    def rest(x: np.ndarray) -> np.ndarray:
        return lw * x + spec.m * 0.5 * x * (x - 1.0) * lq

    return q_quadrature(rest, factors, spec.q, spec.t, kappa, freq)


def q_fourier_closed(spec: QIntegrandSpec) -> complex:
    """Product closed form of the single-factor q-Fourier transform (shift
    w -> w e^{-it} of the t = 0 evaluation)."""
    if spec.m != 1:
        raise ConstraintViolation("closed form applies to single-factor integrands")
    spec.check_annulus()
    if spec.t.imag != 0.0:
        spec.check_strip()
    return cmath.exp(_log_q_fourier(spec.q, spec.a[0], spec.b[0], spec.w[0],
                                    spec.t))


def _log_q_fourier(q: complex, a: complex, b: complex, w: complex,
                   t: complex) -> complex:
    """log of the single-factor q-Fourier closed form
    (b/a;q)_inf / (-(w/a) e^(-it), -(b/w) e^(it);q)_inf times the Gaussian
    q-integral at w e^(-it)."""
    eit = cmath.exp(-1j * t)
    return (log_qpoch_ratio([b / a], [-(w / a) * eit, -(b / w) / eit], q)
            + log_gaussian_q_integral(q, cmath.log(w) - 1j * t))


# -- Abel/Poisson kernel route to the bilateral basic series -------------------

def abel_psi_target(spec: QIntegrandSpec) -> complex:
    """prod_j (b_j;q)_inf (q/a_j;q)_inf times the bilateral basic series at
    z = (-1)^m e^{-it} prod(w_j/a_j)."""
    spec.check_annulus()
    z = (-1.0) ** spec.m * cmath.exp(-1j * spec.t)
    for aj, wj in zip(spec.a, spec.w):
        z *= wj / aj
    pref = 1.0 + 0j
    for aj, bj in zip(spec.a, spec.b):
        pref *= qpoch_inf(bj, spec.q) * qpoch_inf(spec.q / aj, spec.q)
    psi = eval_psi(QSeriesSpec(spec.q, spec.a, spec.b, z))
    return pref * psi.value


# the Abel route's absolute truncation target for a kernel of peak 1
_ABEL_TOL = 1e-12


def abel_poisson_psi(spec: QIntegrandSpec,
                     r_sequence: Sequence[float]) -> List[Tuple[float, complex]]:
    """Kernel-regularized integrals for each r < 1; they approach
    abel_psi_target as r -> 1.  Each is a 20-point Gauss sum on panels graded
    toward the kernel's peaks, between the `_geometric_truncation` points for
    _ABEL_TOL over the kernel's peak; each truncation candidate hands its
    six probe abscissae to `log_f` in one call."""
    spec.check_annulus()
    rr, rl = spec.decay_ratios()

    def log_mag(xs: List[float]) -> List[float]:
        x = np.array(xs)
        return (spec.log_f(x) - 1j * spec.t * x).real.tolist()

    out: List[Tuple[float, complex]] = []
    for r in r_sequence:
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise DomainError("kernel parameter r must lie in [0, 1)")
        peak = (1.0 + r) / (1.0 - r)
        # the upper ends of the brackets, untrimmed: perfbench matches
        # abel-poisson-kernel records on inputs that hold the gaps computed
        # here (ROADMAP item 1), so this X must keep its bits until they move
        tol_abs = _ABEL_TOL / peak
        Xr = _geometric_truncation(log_mag, rr, tol_abs)
        Xl = _geometric_truncation(
            lambda xs: log_mag([-x for x in xs]), rl, tol_abs)
        out.append((r, _kernel_integral(spec, r, -Xl, Xr)))
    return out


def _kernel_integral(spec: QIntegrandSpec, r: float, lo: float,
                     hi: float) -> complex:
    """20-point Gauss sum of the integrand times the Poisson kernel on the
    panels of `_kernel_graded_edges(lo, hi, r)`."""
    xs, half = panel_nodes(_kernel_graded_edges(lo, hi, r), 20)
    with np.errstate(over="ignore", under="ignore"):
        f = np.exp(spec.log_f(xs) - 1j * spec.t * xs)
    if r != 0.0:
        f = f * ((1.0 - r * r)
                 / (1.0 - 2.0 * r * np.cos(2.0 * math.pi * xs) + r * r))
    return complex(panel_sums(f.reshape(len(half), 20), half).sum())


def _kernel_graded_edges(lo: float, hi: float, r: float) -> np.ndarray:
    """Panel edges graded toward the integers, where the Poisson kernel has
    width ~ (1-r)."""
    if r < 0.5:
        n = max(1, int(math.ceil((hi - lo) / 0.5)))
        return np.linspace(lo, hi, n + 1)
    w = max(1e-7, (1.0 - r) / 4.0)
    offs = [0.0]
    d = w
    while d < 0.5:
        offs.append(d)
        d *= 2.0
    offs.append(0.5)
    edges = set()
    k0 = int(math.floor(lo))
    for k in range(k0, int(math.ceil(hi)) + 1):
        for o in offs:
            for e in (k - o, k + o):
                if lo <= e <= hi:
                    edges.add(e)
    edges.update((lo, hi))
    return np.array(sorted(edges))


# -- q-beta family --------------------------------------------------------------

class QBetaKind(enum.Enum):
    I_FULL = "I_full"
    I_D0 = "I_d0"
    I_C0 = "I_c0"
    I_3PSI6 = "I_3psi6"
    I_2PSI6 = "I_2psi6"


# the product-pair parameters y of each kind, in params order
_QBETA_YS = {
    QBetaKind.I_FULL: "abcd",
    QBetaKind.I_D0: "abc",
    QBetaKind.I_C0: "ab",
    QBetaKind.I_3PSI6: "a",
    QBetaKind.I_2PSI6: "",
}


def _qbeta_params(kind: QBetaKind, params: Dict[str, complex]
                  ) -> Tuple[QBetaKind, complex, List[complex]]:
    """The kind, alpha and the kind's y's, in params order."""
    kind = QBetaKind(kind)
    p = {k: complex(v) for k, v in params.items()}
    return kind, p["alpha"], [p[name] for name in _QBETA_YS[kind]]


def _qbeta_integrand(alpha: complex, ys: Sequence[complex], q: complex
                     ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                                List[QFactor]]:
    """(rest, factors) of (1 + q^(2x) alpha^2)
    prod_y (-q^(x+1) alpha y, q^(1-x) y / alpha; q)_inf q^(2x^2 - x) alpha^(4x):
    the log of everything but the q-products, and the q-products."""
    la = cmath.log(alpha)
    lq = cmath.log(q)

    def rest(x: np.ndarray) -> np.ndarray:
        # stable log(1 + e^v): the shifted branch dominates far to the left
        v = 2.0 * x * lq + 2.0 * la
        big = v.real > 30.0
        out = np.empty(x.shape, dtype=complex)
        out[big] = v[big] + np.log1p(np.exp(-v[big]))
        out[~big] = np.log1p(np.exp(v[~big]))
        return out + (2.0 * x * x - x) * lq + 4.0 * x * la

    factors = [f for y in ys
               for f in ((-q * y * alpha, 0.0, 1), (y / alpha, 1.0, -1))]
    return rest, factors


def _qbeta_product(alpha: complex, ys: Sequence[complex], q: float) -> complex:
    """The printed product form of a q-beta integral: the Gaussian q-integral
    at w = alpha^2 times one factor per pair of y's, over (q abcd; q)_inf
    when all four are present."""
    num = [-q * yi * yj for yi, yj in itertools.combinations(ys, 2)]
    den = [q * math.prod(ys)] if len(ys) == 4 else []
    return cmath.exp(log_gaussian_q_integral(q, 2.0 * cmath.log(alpha))
                     + log_qpoch_ratio(num, den, q))


def _qbeta_psi_rep(alpha: complex, ys: Sequence[complex], q: complex) -> complex:
    """Very-well-poised bilateral basic series representation shared by the
    whole family; confluent entries appear as zero lower parameters."""
    q14 = complex(q) ** 0.25
    q54 = complex(q) ** 1.25
    uppers = [q54, -q54] + [-1j * q14 / y for y in ys]
    lowers = [q14, -q14] + [1j * q54 * y for y in ys] + [0.0] * (4 - len(ys))
    z = complex(q)
    for y in ys:
        z *= y
    z *= (-1j * q14) ** (4 - len(ys))
    num = [1j * p * y for p in (q54, complex(q) ** 0.75) for y in ys]
    den = [q, complex(q) ** 0.5, complex(q) ** 1.5]
    psi = eval_psi(QSeriesSpec(q, uppers, lowers, z))
    return cmath.exp(log_gaussian_q_integral(q, 2.0 * cmath.log(alpha))
                     + log_qpoch_ratio(num, den, q)) * psi.value


def qbeta_family(kind: QBetaKind, params: Dict[str, complex],
                 q: float) -> Tuple[complex, complex]:
    """Quadrature of a q-beta integral and its printed product form, as
    (quadrature, product).

    The q -> 1 behaviour of the prefactor is checked separately, against the
    exact finite-q form stated in `limit_constant`.
    """
    kind, alpha, yv = _qbeta_params(kind, params)
    if kind is QBetaKind.I_FULL and not abs(math.prod(yv)) < 1.0 / abs(q):
        raise ConstraintViolation("needs |abcd| < 1/|q|")
    # the Gaussian factor q^(2x^2) gives kappa = -2 log q
    value = q_quadrature(
        *_qbeta_integrand(alpha, yv, q), q, 0.0, -2.0 * math.log(q),
        abs(cmath.log(alpha).imag) * 4.0
        + sum(abs(cmath.log(complex(y)).imag) for y in yv)).value
    return value, _qbeta_product(alpha, yv, q)


def qbeta_psi_consistency(kind: QBetaKind, params: Dict[str, complex],
                          q: float) -> Tuple[complex, complex]:
    """Product form of a q-beta integral and its bilateral basic series
    representation, as (product, series); no quadrature on either side."""
    _, alpha, yv = _qbeta_params(kind, params)
    return _qbeta_product(alpha, yv, q), _qbeta_psi_rep(alpha, yv, q)


def limit_constant(q: float, alpha: complex) -> complex:
    """The q-dependent prefactor of the q-gamma rewrites of the q-beta
    integrals, computed in log space.

    With u = log(1/q), the eta-function form of log(q;q)_inf gives, to all
    orders in u,

        limit_constant(q, alpha) = limit_constant_target(alpha)
            * e^((2 alpha^2 - alpha) u) * u / (1 - q)
            * (1 + O(e^(-4 pi^2 / u))),

    so it tends to -i e^(2 i pi alpha) / (2 pi) as q -> 1 with first-order
    relative gap (2 alpha^2 - alpha + 1/2) u, at least 3u/8 for real alpha.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0,1)")
    # the q-beta prefactor at alpha -> -i q^alpha, over (1 - q) (q;q)_inf^3
    lw = 2.0 * cmath.log(-1j * q ** complex(alpha))
    return cmath.exp(log_gaussian_q_integral(q, lw) - math.log(1.0 - q)
                     + log_qpoch_ratio([], [q, q, q], q))


def limit_constant_target(alpha: complex) -> complex:
    return -1j * cmath.exp(2j * math.pi * complex(alpha)) / (2.0 * math.pi)


def qbeta_gamma_form(kind: QBetaKind, params: Dict[str, complex],
                     q: float) -> Tuple[complex, complex]:
    """Quadrature of the q-gamma rewritten integrand and its q-gamma right
    side (the exponent-parameter form of the q-beta integrals), as
    (quadrature, q-gamma form)."""
    kind, alpha, ys = _qbeta_params(kind, params)
    if kind not in (QBetaKind.I_FULL, QBetaKind.I_D0):
        raise ValueError(f"no q-gamma form for {kind.value}")
    lq = math.log(q)
    lqq = log_qpoch_inf(q, q)
    s_y = sum(ys)
    n_y = len(ys)

    def rest(x: np.ndarray) -> np.ndarray:
        w = x + alpha
        out = np.log1p(-np.exp(2.0 * w * lq) + 0j) - math.log(1.0 - q)
        out = out + (2.0 * x * x - x + 4.0 * alpha * x) * lq - 2j * math.pi * x
        return out + 2.0 * s_y * math.log(1.0 - q) - 2.0 * n_y * lqq

    # (q^(1 + y + w), q^(1 + y - w); q)_inf at w = x + alpha
    factors = [f for y in ys
               for f in ((1.0, 1.0 + y + alpha, 1), (1.0, 1.0 + y - alpha, -1))]
    value = q_quadrature(rest, factors, q, 0.0, -2.0 * math.log(q),
                         2.0 * math.pi + 2.0).value
    pair_gammas = 1.0 + 0j
    for yi, yj in itertools.combinations(ys, 2):
        pair_gammas *= q_gamma(yi + yj + 1.0, q)
    rhs = limit_constant(q, alpha) / pair_gammas
    if kind is QBetaKind.I_FULL:
        rhs *= q_gamma(s_y + 1.0, q)
    return value, rhs


def h44_integral_value(a: complex, b: complex, c: complex) -> complex:
    """Gamma-ratio value of the doubled-argument beta integral
    integral dx / [Gamma(2x)Gamma(-2x) prod Gamma(1+y+x)Gamma(1+y-x)]."""
    return -1.0 / (2.0 * math.pi ** 2) / (
        gamma(a + b + 1.0) * gamma(a + c + 1.0) * gamma(b + c + 1.0))


# -- the h(q) limit -------------------------------------------------------------

def h_of_q(q: float, alpha: float, beta: float, t: float) -> complex:
    """The q->1 probe combination of the single-factor q-Fourier transform,
    computed in log space exactly as printed."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0,1)")
    if not (alpha > 1.0 and beta > 2.0):
        raise DomainError("needs alpha > 1 and beta > 2")
    # the q-Fourier transform at a = q^(1-beta), b = q^alpha, w = 1, times
    # (1 - q)^(alpha+beta-2) / (q;q)_inf^2
    return cmath.exp(_log_q_fourier(q, q ** (1.0 - beta), q ** alpha, 1.0, t)
                     + (alpha + beta - 2.0) * math.log(1.0 - q)
                     + log_qpoch_ratio([], [q, q], q))


def h_of_q_target(alpha: float, beta: float, t: float) -> complex:
    """Limit of h_of_q as q -> 1: the compactly supported classical Fourier
    transform value (0 at and beyond the support edge)."""
    if abs(t) >= math.pi:
        return 0j
    s = alpha + beta
    return ((2.0 * math.cos(t / 2.0)) ** (s - 2.0)
            * cmath.exp(-0.5j * t * (beta - alpha)) / gamma(s - 1.0))


def h_of_q_probe(alpha: float, beta: float, t: float,
                 q_sequence: Sequence[float]) -> List[Tuple[float, complex]]:
    return [(float(q), h_of_q(q, alpha, beta, t)) for q in q_sequence]
