"""Complex gamma-family primitives: gamma, 1/gamma, log-gamma, shifted
factorials on all of Z, the dilogarithm, and the Gaussian-type q-integral.

All array-aware functions accept scalars or numpy arrays of complex values and
vectorize over them; pole checking (raising) happens only on the scalar paths.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import BranchCutError, DomainError, PoleError

__all__ = [
    "gamma", "log_gamma", "recip_gamma", "pochhammer", "dilog",
    "gaussian_q_integral", "POLE_WINDOW",
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

ArrayLike = Union[complex, float, np.ndarray]


def _lanczos_log(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z >= 0.5 (principal on that half-plane)."""
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    acc = np.full(zz.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (zz + k)
    return _HALF_LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


def _near_pole(z: np.ndarray) -> np.ndarray:
    k = np.round(z.real)
    return (k <= 0) & (np.abs(z - k) <= POLE_WINDOW)


def log_gamma(z: ArrayLike) -> ArrayLike:
    """A logarithm of Gamma(z).

    Exact under exp(); on Re z < 1/2 the reflection branch may differ from the
    continuous log-gamma by a multiple of 2*pi*i.
    """
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    if scalar and _near_pole(za).any():
        raise PoleError(f"log_gamma pole at {z}")
    out = np.empty(za.shape, dtype=complex)
    right = za.real >= 0.5
    out[right] = _lanczos_log(za[right])
    zl = za[~right]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~right] = (math.log(math.pi) - np.log(np.sin(np.pi * zl))
                       - _lanczos_log(1.0 - zl))
    return complex(out[0]) if scalar else out


def gamma(z: ArrayLike) -> ArrayLike:
    """Gamma(z); raises PoleError on nonpositive integers (scalar input)."""
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    if scalar and _near_pole(za).any():
        raise PoleError(f"gamma pole at {z}")
    out = np.empty(za.shape, dtype=complex)
    right = za.real >= 0.5
    out[right] = np.exp(_lanczos_log(za[right]))
    zl = za[~right]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[~right] = np.pi / (np.sin(np.pi * zl) * np.exp(_lanczos_log(1.0 - zl)))
    return complex(out[0]) if scalar else out


def recip_gamma(z: ArrayLike) -> ArrayLike:
    """1/Gamma(z), entire; returns exactly 0 at nonpositive integers."""
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(za.shape, dtype=complex)
    right = za.real >= 0.5
    with np.errstate(under="ignore"):
        out[right] = np.exp(-_lanczos_log(za[right]))
        zl = za[~right]
        out[~right] = np.sin(np.pi * zl) / np.pi * np.exp(_lanczos_log(1.0 - zl))
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

def _bernoulli_floats(n: int):
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        s = Fraction(0)
        for k in range(m):
            s += Fraction(math.comb(m + 1, k)) * b[k]
        b[m] = -s / (m + 1)
    return [float(x) for x in b]


_BERNOULLI = _bernoulli_floats(62)


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


def gaussian_q_integral(q: float, w: complex) -> complex:
    """Closed form of the full-line integral of q^(x(x-1)/2) w^x.

    Principal logarithm/square root of w.
    """
    if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
        raise DomainError(f"q must be real in (0,1), got {q!r}")
    w = complex(w)
    if w == 0:
        raise DomainError("w must be nonzero")
    u = -math.log(q)
    return (cmath.sqrt(2.0 * math.pi * w) * cmath.exp(cmath.log(w) ** 2 / (2.0 * u))
            / (q ** 0.125 * math.sqrt(u)))
