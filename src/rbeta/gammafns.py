"""Complex gamma-family primitives: gamma, 1/gamma, log-gamma, shifted
factorials on all of Z, the dilogarithm, and the Gaussian-type q-integral.

All array-aware functions accept scalars or numpy arrays of complex values and
vectorize over them; pole checking (raising) happens only on the scalar paths.
The log-gamma kernels keep the dtype of their argument, so real arguments run
the same Lanczos, Stirling and reflection code in float64 (_log_abs_gamma,
and log_gamma_shift_ratio with real shifts).
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple, Union

import numpy as np

from .errors import BranchCutError, DomainError, PoleError

__all__ = [
    "gamma", "log_gamma", "log_gamma_shift_ratio", "recip_gamma",
    "pochhammer", "dilog",
    "gaussian_q_integral", "log_gaussian_q_integral", "POLE_WINDOW",
]

# Distance below which an argument counts as sitting on a nonpositive-integer
# pole.  Absolute, below double rounding noise for the magnitudes in use.
POLE_WINDOW = 1e-14

# Lanczos rational approximation, g = 607/128, 15 terms.  Gives ~13-14
# correct digits uniformly on |Re z|, |Im z| <= 50 together with reflection.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _bernoulli_floats(n: int):
    """B_0..B_n as floats (B_1 = -1/2), from the integer tangent numbers
    T_k, tan x = sum T_k x^(2k-1)/(2k-1)!, by the recurrence of Brent and
    Harvey ("Fast computation of Bernoulli, tangent and secant numbers",
    2013), and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)): integer true
    division rounds correctly, so each float is the nearest to B_k."""
    half = n // 2
    tan = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    b = [1.0, -0.5] + [0.0] * (n - 1)
    for k in range(1, half + 1):
        p = 4 ** k
        b[2 * k] = (-1) ** (k - 1) * (2 * k * tan[k]) / (p * (p - 1))
    return b


_BERNOULLI = _bernoulli_floats(62)

# Stirling series (DLMF 5.11.1) from |z| = 8 on: the coefficients
# B_2k / (2k (2k-1)), k = 1..10, highest first for Horner in 1/z^2.  The
# first omitted term is below 2e-18 at |z| = 8; with the sector factor the
# remainder stays below 3e-15 on Re z >= 1/2.
_STIRLING_R = 8.0
_STIRLING_C = [_BERNOULLI[2 * k] / (2 * k * (2 * k - 1)) for k in range(10, 0, -1)]

ArrayLike = Union[complex, float, np.ndarray]


def _lanczos_log(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z >= 0.5 (principal on that half-plane): the
    Stirling series for |z| >= 8, the 15-term Lanczos sum below.  Complex
    or real, as z is."""
    big = np.abs(z) >= _STIRLING_R
    if big.all():
        return _stirling_log(z)
    if not big.any():
        return _lanczos_sum_log(z)
    out = np.empty(z.shape, dtype=z.dtype)
    out[big] = _stirling_log(z[big])
    out[~big] = _lanczos_sum_log(z[~big])
    return out


def _stirling_log(z: np.ndarray) -> np.ndarray:
    # No in-place complex products: numpy rounds those differently with the
    # array length, and an element must come out the same alone as in an
    # array.  log z as log|z| + i arg z: cheaper than the complex log and as
    # accurate this far from |z| = 1.
    acc = _stirling_series(z)
    if np.iscomplexobj(z):
        logz = np.empty(z.shape, dtype=complex)
        np.log(np.abs(z, out=logz.real), out=logz.real)
        np.arctan2(z.imag, z.real, out=logz.imag)
    else:
        logz = np.log(z)
    return (z - 0.5) * logz - z + _HALF_LOG_2PI + acc


def _stirling_series(z: np.ndarray) -> np.ndarray:
    """The 1/z series of log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)."""
    r = 1.0 / z
    r2 = r * r
    acc = r2 * _STIRLING_C[0]
    for c in _STIRLING_C[1:-1]:
        acc += c
        acc = acc * r2
    acc += _STIRLING_C[-1]
    return acc * r


def log_gamma_shift_ratio(x: np.ndarray, a: ArrayLike,
                          b: ArrayLike) -> np.ndarray:
    """log Gamma(x + a) - log Gamma(x + b) for real x > 0 with Re(x + a) and
    Re(x + b) at least 8; x, a and b broadcast together, and an element
    comes out the same as with its own scalar a and b.  Real a and b give a
    real result, without the imaginary parts' arctangent.

    The difference of the two Stirling series, with log(x + c) split into
    log x + log(1 + c/x) so that the large parts cancel before rounding:
    the absolute error is a few ulps of |a| + |b|, where the difference of
    two log_gamma values carries a few ulps of |x log x|.
    """
    x = np.asarray(x, dtype=float)
    dtype = np.result_type(a, b, float)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)

    def log1p_over(c: np.ndarray) -> np.ndarray:
        # log(1 + c/x) from |1 + c/x|^2 - 1 = u (2 + u) + v^2
        u = c.real / x
        if dtype != complex:
            return 0.5 * np.log1p(u * (2.0 + u))
        v = c.imag / x
        return (0.5 * np.log1p(u * (2.0 + u) + v * v)
                + 1j * np.arctan2(c.imag, x + c.real))

    return ((a - b) * (np.log(x) - 1.0) + (x + (a - 0.5)) * log1p_over(a)
            - (x + (b - 0.5)) * log1p_over(b)
            + _stirling_series(x + a) - _stirling_series(x + b))


def _lanczos_sum_log(z: np.ndarray) -> np.ndarray:
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    acc = np.full(zz.shape, _LANCZOS_C[0], dtype=zz.dtype)
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (zz + k)
    return _HALF_LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


def _near_pole(z: np.ndarray) -> np.ndarray:
    k = np.round(z.real)
    return (k <= 0) & (np.abs(z - k) <= POLE_WINDOW)


def _reflect(z: ArrayLike, dtype=complex):
    """(scalar, za, lg, left, s) for one gamma-family call: za is z as an
    array of dtype, lg = log Gamma(w) from one kernel pass over w = 1 - z on
    the left half-plane Re z < 1/2 (the mask ``left``) and w = z elsewhere,
    and s = sin(pi z) on the left elements, reduced to (-1)^n sin(pi(z - n))
    with n = round(Re z) so it keeps its relative accuracy next to a pole."""
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    za = np.atleast_1d(np.asarray(z, dtype=dtype))
    left = za.real < 0.5
    lg = _lanczos_log(np.where(left, 1.0 - za, za))
    zl = za[left]
    n = np.round(zl.real)
    s = np.sin(np.pi * (zl - n))
    return scalar, za, lg, left, np.where(n % 2 == 0, s, -s)


def log_gamma(z: ArrayLike) -> ArrayLike:
    """A logarithm of Gamma(z).

    Exact under exp(); on Re z < 1/2 the reflection branch may differ from the
    continuous log-gamma by a multiple of 2*pi*i.
    """
    scalar, za, out, left, s = _reflect(z)
    if scalar and _near_pole(za).any():
        raise PoleError(f"log_gamma pole at {z}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out[left] = _LOG_PI - np.log(s) - out[left]
    return complex(out[0]) if scalar else out


def _log_abs_gamma(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """log |Gamma(x)| and the sign of Gamma(x) for a real array x, from
    log_gamma's kernels in float64.  At a nonpositive integer the sign is 0
    and the logarithm +inf, so sign * exp(-log) is 1/Gamma(x) = 0 there."""
    _, _, out, left, s = _reflect(x, float)
    sign = np.ones_like(out)
    sign[left] = np.sign(s)
    with np.errstate(divide="ignore"):
        out[left] = _LOG_PI - np.log(np.abs(s)) - out[left]
    return out, sign


def gamma(z: ArrayLike) -> ArrayLike:
    """Gamma(z); raises PoleError on nonpositive integers (scalar input)."""
    scalar, za, lg, left, s = _reflect(z)
    if scalar and _near_pole(za).any():
        raise PoleError(f"gamma pole at {z}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(lg)
        out[left] = np.pi / (s * out[left])
    return complex(out[0]) if scalar else out


def recip_gamma(z: ArrayLike) -> ArrayLike:
    """1/Gamma(z), entire; returns exactly 0 at nonpositive integers."""
    scalar, za, lg, left, s = _reflect(z)
    with np.errstate(under="ignore"):
        out = np.exp(np.where(left, lg, -lg))
        out[left] = s / np.pi * out[left]
    poles = _near_pole(za)
    if poles.any():
        out[poles] = 0.0
    return complex(out[0]) if scalar else out


def pochhammer(c: complex, n: int) -> complex:
    """Shifted factorial (c)_n = Gamma(c+n)/Gamma(c) for any integer n.

    Genuine poles of the ratio surface as complex infinity; genuine zeros as
    exact 0, so a pochhammer in a series denominator kills its term.
    """
    c = complex(c)
    if n == 0:
        return 1.0 + 0j
    if n > 0:
        if n <= 64:
            out = 1.0 + 0j
            for k in range(n):
                out *= c + k
            return out
        return _poch_large(c, n)
    # (c)_{-m} = 1/((c-1)(c-2)...(c-m))
    m = -n
    if m <= 64:
        den = 1.0 + 0j
        for k in range(1, m + 1):
            den *= c - k
        if den == 0:
            return complex(math.inf, 0.0)
        return 1.0 / den
    v = _poch_large(c - m, m)
    if v == 0:
        return complex(math.inf, 0.0)
    return 1.0 / v


def _poch_large(c: complex, n: int) -> complex:
    # direct factors until the argument is safely in Re >= 0.5, then a
    # log-gamma difference (branch-safe under exp of the difference)
    head = 1.0 + 0j
    k0 = 0
    while (c + k0).real < 0.5 and k0 < n:
        head *= c + k0
        k0 += 1
    if k0 == n or head == 0:
        if head == 0:
            return 0.0 + 0j
        return head
    lo = np.asarray([c + k0, c + n])
    lg = _lanczos_log(lo)
    with np.errstate(over="ignore"):
        return head * complex(np.exp(lg[1] - lg[0]))


# -- dilogarithm --------------------------------------------------------------

def dilog(z: complex) -> complex:
    """Principal-branch dilogarithm Li2(z), cut along (1, oo).

    Direct series for |z| <= 1/2; the log-argument Bernoulli series on the
    rest of the closed unit disk; reflection near z = 1 and inversion outside.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real > 1.0:
        raise BranchCutError(f"dilog branch cut at z = {z.real}")
    if z == 1.0:
        return complex(math.pi ** 2 / 6.0)
    if abs(z) > 1.0:
        return -dilog(1.0 / z) - math.pi ** 2 / 6.0 - 0.5 * cmath.log(-z) ** 2
    if abs(1.0 - z) < 0.5:
        return (math.pi ** 2 / 6.0 - cmath.log(z) * cmath.log(1.0 - z)
                - dilog(1.0 - z))
    if abs(z) <= 0.5:
        s = 0j
        zp = z
        for n in range(1, 120):
            s += zp / (n * n)
            zp *= z
            if abs(zp) < 1e-20:
                break
        return s
    u = -cmath.log(1.0 - z)
    s = 0j
    up = u
    small = 0
    for k in range(0, 61):
        term = _BERNOULLI[k] * up / math.factorial(k + 1)
        s += term
        up *= u
        if abs(term) < 1e-18 * abs(s):
            small += 1
            if small >= 2 and k > 4:
                break
        else:
            small = 0
    return s


def log_gaussian_q_integral(q: complex, log_w: complex) -> complex:
    """log of the full-line integral of q^(x(x-1)/2) w^x, 0 < |q| < 1, exact
    under exp(): with u = -log q, sqrt(2 pi / u) w^(1/2) q^(-1/8)
    e^((log w)^2 / (2u)), the branch of log w fixing that of w^x.  Passing
    log w - i t gives the integral times e^(-ixt)."""
    u = -cmath.log(q)
    return (0.5 * math.log(2.0 * math.pi) + 0.5 * log_w + log_w ** 2 / (2.0 * u)
            + 0.125 * u - 0.5 * cmath.log(u))


def gaussian_q_integral(q: float, w: complex) -> complex:
    """Closed form of the full-line integral of q^(x(x-1)/2) w^x, for real
    q in (0, 1), with the principal logarithm of w."""
    if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
        raise DomainError(f"q must be real in (0,1), got {q!r}")
    w = complex(w)
    if w == 0:
        raise DomainError("w must be nonzero")
    return cmath.exp(log_gaussian_q_integral(q, cmath.log(w)))
