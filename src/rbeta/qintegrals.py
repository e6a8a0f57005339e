"""q-deformed Ramanujan-type integrals: Gaussian-weighted infinite-product
integrands, their product closed forms, the Abel/Poisson-kernel route back
to bilateral basic series, and the q-beta integral family with its q->1
constants.

Integrands are evaluated in log space (the infinite products overflow long
before the integrand itself leaves double range) and integrated with Gauss
panels; truncation comes from the geometric decay ratios of the factors.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .core import Tolerance, DEFAULT_TOL
from .errors import (AnnulusViolation, ConstraintViolation, DomainError,
                     StripViolation, ToleranceNotReached)
from .gammafns import gamma, log_gaussian_q_integral
from .quadrature import QuadratureResult, gauss_panels, gauss_panels_graded
from .qseries import (QSeriesSpec, eval_psi, log_qpoch_inf, log_qpoch_ratio,
                      qpoch_inf, q_gamma)

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
        if not (len(a) == len(b) == len(w)) or not a:
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
        # |f(x+1)/f(x)| limits: prod|w/a| e^{Im t} rightward,
        # prod|b/w| e^{-Im t} leftward
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


class _Bracket(float):
    """The first candidate X whose tail bound passed, as a float, carrying
    the last candidate that failed as `lo` (X itself when X = 4 passed)."""

    lo: float

    def __new__(cls, lo: float, hi: float) -> "_Bracket":
        out = super().__new__(cls, hi)
        out.lo = lo
        return out


def _geometric_truncation(log_mag: Callable[[float], float], ratio: float,
                          tol_abs: float) -> _Bracket:
    """First X of the candidates 4, 4 + step, ... whose boundary magnitude
    times geometric tail is below tol, bracketed below by the candidate
    before it; bisecting that bracket (`_trim_truncation`) gives the smallest
    such X >= 4 to unit resolution.

    Each step covers half the log-distance to tol at the current decay ratio.
    Raises ToleranceNotReached when 200 candidates leave the tail above tol.
    """
    if ratio >= 1.0:
        raise AnnulusViolation("integrand does not decay on this side")
    lo = X = 4.0
    for _ in range(200):
        tail, rho = _tail_bound([log_mag(X - d) for d in _PROBE_OFFSETS], ratio)
        if tail < tol_abs:
            return _Bracket(lo, X)
        lo = X
        X += max(1.0, math.log(max(tail / tol_abs, 2.0)) / -math.log(rho) * 0.5)
    raise ToleranceNotReached(
        f"integrand tail {tail:.3g} still above {tol_abs:.3g} at X = {X:.6g}")


def _trim_truncation(log_mag: Callable[[np.ndarray], np.ndarray],
                     X: _Bracket, ratio: float, tol_abs: float) -> float:
    """Bisect the bracket of `_geometric_truncation` down to unit width with
    the same tail bound, probing each candidate's six points in one call of
    the array log-magnitude `log_mag`; returns the passing end."""
    lo, hi = X.lo, float(X)
    offsets = np.array(_PROBE_OFFSETS)
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if _tail_bound(log_mag(mid - offsets), ratio)[0] < tol_abs:
            hi = mid
        else:
            lo = mid
    return hi


def _log_magnitude(log_f: Callable[[np.ndarray], np.ndarray],
                   t: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Array log-magnitude of exp(log_f(x) - i t x)."""
    return lambda x: (log_f(x) - 1j * complex(t) * x).real


def _truncation_points(log_mag: Callable[[np.ndarray], np.ndarray],
                       rho_right: float, rho_left: float,
                       tol_abs: float) -> Tuple[_Bracket, _Bracket]:
    """(X_right, X_left) of `_geometric_truncation` for the array
    log-magnitude `log_mag`, probed one point at a time."""
    def logmag_at(x: float) -> float:
        return float(log_mag(np.array([float(x)]))[0])

    return (_geometric_truncation(logmag_at, rho_right, tol_abs),
            _geometric_truncation(lambda x: logmag_at(-x), rho_left, tol_abs))


def q_quadrature(log_f: Callable[[np.ndarray], np.ndarray], t: complex,
                 rho_right: float, rho_left: float, tol: Tolerance,
                 freq_hint: float) -> QuadratureResult:
    """Gauss-panel integral of exp(log_f(x) - i t x) over the line, truncated
    on each side at the smallest X >= 4, to unit resolution, where the
    geometric tail bound falls below tolerance."""
    tol_abs = max(tol.abs, 1e-15)

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(log_f(x) - 1j * complex(t) * x)

    log_mag = _log_magnitude(log_f, t)
    Xr, Xl = _truncation_points(log_mag, rho_right, rho_left, tol_abs)
    Xr = _trim_truncation(log_mag, Xr, rho_right, tol_abs)
    Xl = _trim_truncation(lambda x: log_mag(-x), Xl, rho_left, tol_abs)
    omega = abs(complex(t).real) + freq_hint + 1.0
    width = min(0.5, math.pi / (2.0 * omega))
    value, err, n = gauss_panels(f, -Xl, Xr, width)
    # truncation was driven to tol_abs on each side
    return QuadratureResult(value, err + 2.0 * tol_abs + 1e-16 * abs(value), n,
                            max(Xr, Xl))


def q_integrate(spec: QIntegrandSpec,
                tol: Tolerance = DEFAULT_TOL) -> QuadratureResult:
    """Integral of the m-factor q-integrand times exp(-i x t); t may be
    complex inside the analyticity strip."""
    spec.check_annulus()
    if spec.t.imag != 0.0:
        spec.check_strip()
    rr, rl = spec.decay_ratios()
    # chirp from complex base: local frequency grows linearly, folded into
    # the panel width through a conservative hint
    chirp = abs(cmath.log(spec.q).imag) * spec.m
    freq = chirp * 40.0 + sum(abs(cmath.log(w).imag) for w in spec.w)
    return q_quadrature(spec.log_f, spec.t, rr, rl, tol, freq)


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
    z = (-1)^m e^{-it} prod(w_j/a_j), summed to DEFAULT_TOL."""
    spec.check_annulus()
    z = (-1.0) ** spec.m * cmath.exp(-1j * spec.t)
    for aj, wj in zip(spec.a, spec.w):
        z *= wj / aj
    pref = 1.0 + 0j
    for aj, bj in zip(spec.a, spec.b):
        pref *= qpoch_inf(bj, spec.q) * qpoch_inf(spec.q / aj, spec.q)
    psi = eval_psi(QSeriesSpec(spec.q, spec.a, spec.b, z), DEFAULT_TOL)
    return pref * psi.value


def abel_poisson_psi(spec: QIntegrandSpec,
                     r_sequence: Sequence[float]) -> List[Tuple[float, complex]]:
    """Kernel-regularized integrals for each r < 1, each tail truncated below
    DEFAULT_TOL.abs; they approach abel_psi_target as r -> 1."""
    spec.check_annulus()
    rr, rl = spec.decay_ratios()

    out: List[Tuple[float, complex]] = []
    for r in r_sequence:
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise DomainError("kernel parameter r must lie in [0, 1)")

        def f(x: np.ndarray, r=r) -> np.ndarray:
            with np.errstate(over="ignore", under="ignore"):
                base = np.exp(spec.log_f(x) - 1j * spec.t * x)
            if r == 0.0:
                return base
            kern = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(2.0 * math.pi * x) + r * r)
            return base * kern

        peak = (1.0 + r) / (1.0 - r)
        # the upper ends of the brackets, untrimmed: perfbench matches
        # abel-poisson-kernel records on inputs that hold the gaps computed
        # here (ROADMAP item 1), so this X must keep its bits until they move
        Xr, Xl = _truncation_points(_log_magnitude(spec.log_f, spec.t), rr, rl,
                                    DEFAULT_TOL.abs / peak)
        edges = _kernel_graded_edges(-Xl, Xr, r)
        value, err, _ = gauss_panels_graded(f, edges)
        out.append((r, value))
    return out


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

# accuracy of the q-beta quadratures
QBETA_TOL = Tolerance(rel=1e-6, abs=1e-12)


def _qbeta_params(kind: QBetaKind, params: Dict[str, complex]
                  ) -> Tuple[QBetaKind, complex, List[complex]]:
    """The kind, alpha and the kind's y's, in params order."""
    kind = QBetaKind(kind)
    p = {k: complex(v) for k, v in params.items()}
    return kind, p["alpha"], [p[name] for name in _QBETA_YS[kind]]


def _qbeta_quadrature(log_f: Callable[[np.ndarray], np.ndarray],
                      freq_hint: float) -> complex:
    """Integral of exp(log_f) over the line to QBETA_TOL.  The one-step decay
    ratios are measured from x = 6 to 7 and from -6 to -7 and clamped to
    [1e-6, 0.97], not taken from the analytic envelopes: the Gaussian factor
    dominates whenever fewer than four product pairs remain."""
    lf = log_f(np.array([6.0, 7.0, -6.0, -7.0]))
    rr = min(max(math.exp(min(50.0, (lf[1] - lf[0]).real)), 1e-6), 0.97)
    rl = min(max(math.exp(min(50.0, (lf[3] - lf[2]).real)), 1e-6), 0.97)
    return q_quadrature(log_f, 0.0, rr, rl, QBETA_TOL, freq_hint).value


def _qbeta_log_f(alpha: complex, ys: Sequence[complex], q: complex):
    """log of (1 + q^(2x) alpha^2) prod_y (-q^(x+1) alpha y, q^(1-x) y / alpha; q)_inf
    * q^(2x^2 - x) alpha^(4x)."""
    la = cmath.log(alpha)
    lq = cmath.log(q)

    def log_f(x: np.ndarray) -> np.ndarray:
        # stable log(1 + e^v): the shifted branch dominates far to the left
        v = 2.0 * x * lq + 2.0 * la
        big = v.real > 30.0
        out = np.empty(x.shape, dtype=complex)
        out[big] = v[big] + np.log1p(np.exp(-v[big]))
        out[~big] = np.log1p(np.exp(v[~big]))
        for y in ys:
            out = out + log_qpoch_inf(-q * y * alpha * np.exp(x * lq), q)
            out = out + log_qpoch_inf((y / alpha) * np.exp((1.0 - x) * lq), q)
        out = out + (2.0 * x * x - x) * lq + 4.0 * x * la
        return out
    return log_f


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
    whole family, summed to DEFAULT_TOL; confluent entries appear as zero
    lower parameters."""
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
    psi = eval_psi(QSeriesSpec(q, uppers, lowers, z), DEFAULT_TOL)
    return cmath.exp(log_gaussian_q_integral(q, 2.0 * cmath.log(alpha))
                     + log_qpoch_ratio(num, den, q)) * psi.value


def qbeta_family(kind: QBetaKind, params: Dict[str, complex],
                 q: float) -> Tuple[complex, complex]:
    """Quadrature of a q-beta integral, to QBETA_TOL, and its printed
    product form, as (quadrature, product).

    The q -> 1 behaviour of the prefactor is checked separately, against the
    exact finite-q form stated in `limit_constant`.
    """
    kind, alpha, yv = _qbeta_params(kind, params)
    if kind is QBetaKind.I_FULL and not abs(math.prod(yv)) < 1.0 / abs(q):
        raise ConstraintViolation("needs |abcd| < 1/|q|")
    value = _qbeta_quadrature(
        _qbeta_log_f(alpha, yv, q),
        abs(cmath.log(alpha).imag) * 4.0
        + sum(abs(cmath.log(complex(y)).imag) for y in yv))
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
    """Quadrature of the q-gamma rewritten integrand, to QBETA_TOL, and its
    q-gamma right side (the exponent-parameter form of the q-beta
    integrals), as (quadrature, q-gamma form)."""
    kind, alpha, ys = _qbeta_params(kind, params)
    if kind not in (QBetaKind.I_FULL, QBetaKind.I_D0):
        raise ValueError(f"no q-gamma form for {kind.value}")
    lq = math.log(q)
    lqq = log_qpoch_inf(q, q)
    s_y = sum(ys)
    n_y = len(ys)

    def log_g(x: np.ndarray) -> np.ndarray:
        w = x + alpha
        out = np.log1p(-np.exp(2.0 * w * lq) + 0j) - math.log(1.0 - q)
        out = out + (2.0 * x * x - x + 4.0 * alpha * x) * lq - 2j * math.pi * x
        for y in ys:
            out = out + log_qpoch_inf(np.exp((1.0 + y + w) * lq), q)
            out = out + log_qpoch_inf(np.exp((1.0 + y - w) * lq), q)
        out = out + 2.0 * s_y * math.log(1.0 - q) - 2.0 * n_y * lqq
        return out

    value = _qbeta_quadrature(log_g, 2.0 * math.pi + 2.0)
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
