"""Panel quadrature engines: composite Gauss-Legendre, and tanh-sinh for
endpoint-singular finite-interval integrands.  Callers of the Gauss panels
evaluate the integrand themselves on the nodes of `panel_nodes` (uniform or
graded edges) and hand the values to `panel_sums`; they size the panels for
their integrand and estimate its rounding themselves.  The rule is picked by
its node count: 16 for the classical integrals of `integrals`, 20 for the
Abel route of `qintegrals`.
tanh_sinh's integrand callables are vectorized (ndarray -> ndarray; its
batch form also passes each node's interval index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureResult", "panel_nodes", "panel_sums", "tanh_sinh"]

# numpy's Gauss-Legendre nodes and weights on [-1, 1], by node count
_RULES = {n: leggauss(n) for n in (16, 20)}
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


def tanh_sinh(f: Callable[..., np.ndarray], lo, hi: float,
              max_level: int = 10):
    """Tanh-sinh quadrature on (lo, hi); robust to algebraic endpoint
    singularities.  Halves the step per level, reusing prior nodes; the last
    refinement jump is the error estimate.

    With one lower limit ``lo``, f(x) gets a 1-D array of nodes and the
    result is (value, error).  With an array ``lo`` of B lower limits the
    B intervals (lo_i, hi) are integrated as a batch: each level makes one
    call f(x, rows), with rows the index of the interval of each node x, on
    the nodes of every interval still refining, and the result is arrays of
    B values and errors.  Each interval stops at its own level and sums
    only its own nodes inside its limits, a contiguous run of x, so its
    value and error are those of a call with its lo alone.
    """
    scalar = np.ndim(lo) == 0
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    r = 0.5 * (hi - lo)

    def strip_sums(ks: np.ndarray, rows: np.ndarray) -> List[complex]:
        u = 0.5 * math.pi * np.sinh(ks)
        w = 0.5 * math.pi * np.cosh(ks) / np.cosh(u) ** 2
        # express each node by its distance to the nearest endpoint:
        # 1 -+ tanh(u) = 2/(1 + exp(+-2u)), free of cancellation
        with np.errstate(over="ignore"):
            dist = 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        lo_r = lo[rows, None]
        r_r = r[rows, None]
        pts = np.where(u < 0, lo_r + r_r * dist, hi - r_r * dist)
        inside = (pts > lo_r) & (pts < hi) & (w > 1e-300)
        counts = inside.sum(axis=1).tolist()
        if not any(counts):
            return [0j] * len(rows)
        x = pts[inside]
        vals = np.asarray(f(x) if scalar else f(x, np.repeat(rows, counts)),
                          dtype=complex)
        terms = vals * np.broadcast_to(w, pts.shape)[inside]
        sums = []
        end = 0
        for i, n in zip(rows.tolist(), counts):
            start, end = end, end + n
            sums.append(complex(terms[start:end].sum() * r[i]) if n else 0j)
        return sums

    h = 1.0
    rows = np.arange(len(lo))
    values = [h * v for v in
              strip_sums(np.arange(-_TS_CUTOFF, _TS_CUTOFF + 1e-12, h), rows)]
    errs = [abs(v) for v in values]
    for _ in range(max_level):
        if not len(rows):
            break
        mids = np.arange(-_TS_CUTOFF + h / 2, _TS_CUTOFF, h)
        refining = []
        for i, strip in zip(rows.tolist(), strip_sums(mids, rows)):
            value_new = 0.5 * values[i] + (h / 2) * strip
            errs[i] = abs(value_new - values[i])
            values[i] = value_new
            if not errs[i] < 1e-15 * max(1.0, abs(value_new)):
                refining.append(i)
        rows = np.array(refining, dtype=int)
        h /= 2
    if scalar:
        return values[0], errs[0]
    return np.array(values, dtype=complex), np.array(errs)
