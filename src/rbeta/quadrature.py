"""Panel quadrature engines: composite Gauss-Legendre, and tanh-sinh for
endpoint-singular finite-interval integrands.  Callers of the Gauss panels
evaluate the integrand themselves on the nodes of `panel_nodes` (uniform or
graded edges) and hand the values to `panel_sums`; they size the panels for
their integrand and estimate its rounding themselves.  The rule is picked by
its node count: 16 for the classical integrals of `integrals`, 20 for the
Abel route of `qintegrals`.
tanh_sinh's integrand callables are vectorized (ndarray -> ndarray), and
may integrate many functions at once on one set of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureResult", "panel_nodes", "panel_sums", "tanh_sinh"]

# numpy's Gauss-Legendre nodes and weights on [-1, 1], by node count
_RULES = {n: leggauss(n) for n in (16, 20)}
# tanh-sinh sums its step variable k over [-3.8, 3.8]
_TS_CUTOFF = 3.8
# the most nodes a lattice of integrals or qintegrals may take: their node
# counts grow linearly in the frequency, and the suites' draws take at most
# a few thousand
_MAX_NODES = 1 << 20


@dataclass
class QuadratureResult:
    """An integral over the line: value, error estimate, Gauss panels used
    (lattice nodes for the q-integrals of `qintegrals.q_quadrature`) and the
    truncation abscissa."""

    value: complex
    est_error: float
    panels: int
    truncation_X: float


def panel_nodes(edges: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss nodes of the panels between edges, panel by panel,
    and the panel half-widths."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _RULES[n][0][None, :]).ravel(), half


def panel_sums(f: np.ndarray, half) -> np.ndarray:
    """The Gauss sum of each panel, from integrand values at the nodes of
    panel_nodes, one panel a row: the rule of the row's length."""
    return (f * _RULES[f.shape[1]][1][None, :]).sum(axis=1) * half


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              max_level: int = 10):
    """Tanh-sinh quadrature on (lo, hi); robust to algebraic endpoint
    singularities.  Halves the step per level, reusing prior nodes; the last
    refinement jump is the error estimate.

    f(x) gets a 1-D array of nodes and may return any array whose last axis
    runs over them: each element of the other axes is integrated, on the one
    set of nodes, and the result is (values, errors) of that shape, or
    (complex, float) for a 1-D f.  All elements stop at one level, the first
    at which each one's jump is below 1e-15 of max(1, |value|).
    """
    r = 0.5 * (hi - lo)

    def strip_sum(ks: np.ndarray) -> np.ndarray:
        u = 0.5 * math.pi * np.sinh(ks)
        w = 0.5 * math.pi * np.cosh(ks) / np.cosh(u) ** 2
        # express each node by its distance to the nearest endpoint:
        # 1 -+ tanh(u) = 2/(1 + exp(+-2u)), free of cancellation
        with np.errstate(over="ignore"):
            dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        pts = np.where(u < 0, lo + r * dist, hi - r * dist)
        inside = (pts > lo) & (pts < hi) & (w > 1e-300)
        vals = np.asarray(f(pts[inside]), dtype=complex)
        return (vals * w[inside]).sum(axis=-1) * r

    h = 1.0
    value = h * strip_sum(np.arange(-_TS_CUTOFF, _TS_CUTOFF + 1e-12, h))
    err = np.abs(value)
    for _ in range(max_level):
        mids = np.arange(-_TS_CUTOFF + h / 2, _TS_CUTOFF, h)
        value_new = 0.5 * value + (h / 2) * strip_sum(mids)
        err = np.abs(value_new - value)
        value = value_new
        h /= 2
        if (err < 1e-15 * np.maximum(1.0, np.abs(value))).all():
            break
    if np.ndim(value) == 0:
        return complex(value), float(err)
    return value, err
