"""Panel quadrature engines: composite Gauss-Legendre with order-doubling
error estimates, and tanh-sinh for endpoint-singular finite-interval
integrands.  All integrand callables are vectorized (ndarray -> ndarray).
`panel_nodes` and `gauss20` serve callers that evaluate the integrand on
explicit (possibly graded) edges themselves; `gauss20` is the 20-point sum
of `panel_sums` alone, for callers that need no 10-point error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureResult", "gauss20", "gauss_panels", "panel_nodes",
           "panel_sums", "tanh_sinh"]

_X10, _W10 = leggauss(10)
_X20, _W20 = leggauss(20)
# tanh-sinh sums its step variable k over [-3.8, 3.8]
_TS_CUTOFF = 3.8


@dataclass
class QuadratureResult:
    """An integral over the line: value, error estimate, Gauss panels used
    (lattice nodes for the q-integrals of `qintegrals.q_quadrature`) and the
    truncation abscissa."""

    value: complex
    est_error: float
    panels: int
    truncation_X: float


def gauss_panels(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 max_width: float) -> Tuple[complex, float, int]:
    """Integrate f over [lo, hi] with uniform panels of width <= max_width.

    Each panel is evaluated with 20- and 10-point Gauss rules; the error
    estimate is the summed discrepancy.  Returns (value, est_error, panels).
    """
    if hi <= lo:
        return 0j, 0.0, 0
    n = max(1, int(math.ceil((hi - lo) / max_width)))
    xs20, xs10, half = panel_nodes(np.linspace(lo, hi, n + 1))
    f20 = np.asarray(f(xs20), dtype=complex).reshape(n, 20)
    f10 = np.asarray(f(xs10), dtype=complex).reshape(n, 10)
    return panel_sums(f20, f10, half)


def panel_nodes(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 20- and 10-point Gauss nodes of the panels between edges, panel
    by panel, and the panel half-widths."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs20 = (mid[:, None] + half[:, None] * _X20[None, :]).ravel()
    xs10 = (mid[:, None] + half[:, None] * _X10[None, :]).ravel()
    return xs20, xs10, half


def gauss20(f20: np.ndarray, half) -> np.ndarray:
    """The 20-point Gauss sum of each panel, from integrand values at the
    20-point nodes of panel_nodes, one panel a row."""
    return (f20 * _W20[None, :]).sum(axis=1) * half


def panel_sums(f20: np.ndarray, f10: np.ndarray,
               half) -> Tuple[complex, float, int]:
    """(value, est_error, panels) from integrand values at the nodes of
    panel_nodes, one panel a row: the 20-point sums and their summed
    discrepancy from the 10-point ones."""
    v20 = gauss20(f20, half)
    v10 = (f10 * _W10[None, :]).sum(axis=1) * half
    value = complex(v20.sum())
    err = float(np.abs(v20 - v10).sum())
    return value, err, len(f20)


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              max_level: int = 10) -> Tuple[complex, float]:
    """Tanh-sinh quadrature on (lo, hi); robust to algebraic endpoint
    singularities.  Halves the step per level, reusing prior nodes; the last
    refinement jump is the error estimate.
    """
    r = 0.5 * (hi - lo)

    def strip_sum(ks: np.ndarray) -> complex:
        u = 0.5 * math.pi * np.sinh(ks)
        w = 0.5 * math.pi * np.cosh(ks) / np.cosh(u) ** 2
        # express each node by its distance to the nearest endpoint:
        # 1 -+ tanh(u) = 2/(1 + exp(+-2u)), free of cancellation
        with np.errstate(over="ignore"):
            dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        pts = np.where(u < 0, lo + r * dist, hi - r * dist)
        inside = (pts > lo) & (pts < hi) & (w > 1e-300)
        if not inside.any():
            return 0j
        vals = np.asarray(f(pts[inside]), dtype=complex)
        return complex((vals * w[inside]).sum() * r)

    h = 1.0
    value = h * strip_sum(np.arange(-_TS_CUTOFF, _TS_CUTOFF + 1e-12, h))
    err = abs(value)
    for _ in range(max_level):
        mids = np.arange(-_TS_CUTOFF + h / 2, _TS_CUTOFF, h)
        value_new = 0.5 * value + (h / 2) * strip_sum(mids)
        err = abs(value_new - value)
        value = value_new
        h /= 2
        if err < 1e-15 * max(1.0, abs(value)):
            break
    return value, err
