"""Per-layer tracing of rbeta from outside the library.

``Tracer.install()`` replaces each traced function at every module attribute
that binds it: ``from .gammafns import recip_gamma`` in ``integrals`` copies
the binding, so patching only the defining module would miss those calls.
Each call then records a span (id, parent id, layer, name, parent layer,
start, end, child time); self time is duration minus child spans.  Integrand
and term callbacks handed to quadrature, Levin summation and truncation
probing run in spans of the layer that called them, which is the layer that
built the callback.  Work counts are taken at the same boundaries; the ones
computed from call inputs rather than observed are named in COMPUTED.
``uninstall()`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("gammafns", "acceleration", "quadrature", "integrals", "bilateral",
          "qseries", "qintegrals", "verify")

# private functions traced besides each layer's public ones
PRIVATE = {
    "gammafns": ("_lanczos_log",),
    "integrals": ("_tail_one_side",),
    "qintegrals": ("_geometric_truncation",),
}

# functions whose first argument is a callback that the caller built
QUAD_FUNCS = frozenset({"gauss_panels", "gauss_panels_graded", "tanh_sinh"})
CALLBACK_OWNERS = QUAD_FUNCS | {"sum_one_sided", "q_quadrature",
                                "_geometric_truncation"}

GAMMA_ARRAY_FUNCS = frozenset({"gamma", "log_gamma", "recip_gamma",
                               "_lanczos_log"})

# metrics derived from call inputs rather than observed in the library
COMPUTED = ("quadrature.nodes", "qseries.logqpoch_array_factors",
            "qseries.logqpoch_useful_frac")

_perf = time.perf_counter


class Tracer:
    """Spans and work counts for one traced pass."""

    def __init__(self, extra_modules=()):
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.truncation_X: List[float] = []
        self.qtruncation_X: List[float] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._extra_modules = tuple(extra_modules)
        self._patched: List[tuple] = []
        self.bindings = 0

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(layer, name, function) for every traced function."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"rbeta.{layer}"]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                out.append((layer, name, obj))
        return out

    def install(self) -> None:
        if os.environ.get("RB_THREADS") != "1":
            # spans live on one stack, so records must run on one thread
            raise RuntimeError("tracing needs RB_THREADS=1")
        originals = {id(fn): self._wrap(layer, name, fn)
                     for layer, name, fn in self._targets()}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "rbeta" or n.startswith("rbeta."))]
        for mod in modules + list(self._extra_modules):
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self.bindings = len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _call(self, layer: str, name: str, fn: Callable, args, kwargs):
        """Call fn inside a span.  The parent is charged for the whole call,
        bookkeeping included, so its self time excludes tracing cost."""
        tw = _perf()
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [layer, name, self._next_id, 0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
            self.spans.append((frame[2], parent[2] if parent else 0, layer,
                               name, parent[0] if parent else None, t0, t1,
                               frame[3]))
            if parent is not None:
                parent[3] += _perf() - tw

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = _HOOKS.get(name)
        owns_callback = name in CALLBACK_OWNERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if owns_callback and args:
                args = (tracer._callback(args[0], parent, name),) + args[1:]
            result = tracer._call(layer, name, fn, args, kwargs)
            if hook is not None:
                th = _perf()
                span = tracer.spans[-1]
                hook(tracer, parent, args, result, span[6] - span[5])
                if parent is not None:
                    parent[3] += _perf() - th
            return result
        return traced

    def _callback(self, cb: Callable, parent: Optional[list], owner: str):
        """Wrap a callback so its time goes to the layer that passed it."""
        if not callable(cb):
            return cb
        tracer = self
        layer = parent[0] if parent else "bench"
        name = f"callback:{owner}"
        counts = self.counts
        is_quad = owner in QUAD_FUNCS
        is_probe = owner == "_geometric_truncation"

        def traced_cb(*args, **kwargs):
            if is_quad:
                counts["quadrature.nodes"] += np.size(args[0])
            elif is_probe:
                counts["qintegrals.truncation_probes"] += 1
            return tracer._call(layer, name, cb, args, kwargs)
        return traced_cb

    # -- aggregation ----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for _, _, layer, _, _, t0, t1, child in self.spans:
            if layer in out:
                out[layer] += t1 - t0 - child
        return out

    def name_self_s(self, name: str) -> float:
        return sum(t1 - t0 - child for _, _, _, n, _, t0, t1, child
                   in self.spans if n == name)

    def metrics(self) -> Dict[str, float]:
        c = self.counts
        selfs = self.layer_self_s()
        m = {
            "gammafns.calls": c["gammafns.calls"],
            "gammafns.points": c["gammafns.points"],
            "gammafns.scalar_calls": c["gammafns.scalar_calls"],
            "gammafns.self_s": selfs["gammafns"],
            "gammafns.ns_per_point": _ratio(c["gammafns.array_s"] * 1e9,
                                            c["gammafns.points"]),
            "acceleration.levin_calls": c["acceleration.levin_calls"],
            "acceleration.levin_terms": c["acceleration.levin_terms"],
            "acceleration.levin_self_s": self.name_self_s("levin_u"),
            "acceleration.sum_calls": c["acceleration.sum_calls"],
            "acceleration.accelerated_frac": _ratio(
                c["acceleration.accelerated"], c["acceleration.sum_calls"]),
            "acceleration.levin_per_sum": _ratio(
                c["acceleration.levin_in_sum"], c["acceleration.accelerated"]),
            "acceleration.self_s": selfs["acceleration"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.self_s": selfs["quadrature"],
            "integrals.integrate_calls": c["integrals.integrate_calls"],
            "integrals.self_s": selfs["integrals"],
            "integrals.tail_s": c["integrals.tail_s"],
            "integrals.truncation_X_mean": (float(np.mean(self.truncation_X))
                                            if self.truncation_X else 0.0),
            "bilateral.eval_calls": c["bilateral.eval_calls"],
            "bilateral.terms": c["bilateral.terms"],
            "bilateral.self_s": selfs["bilateral"],
            "qseries.logqpoch_array_calls": c["qseries.logqpoch_array_calls"],
            "qseries.logqpoch_array_points": c["qseries.logqpoch_array_points"],
            "qseries.logqpoch_array_factors": c["qseries.logqpoch_array_factors"],
            "qseries.logqpoch_useful_frac": _ratio(
                c["qseries.logqpoch_useful"], c["qseries.logqpoch_array_factors"]),
            "qseries.logqpoch_array_s": c["qseries.logqpoch_array_s"],
            "qseries.logqpoch_scalar_calls": c["qseries.logqpoch_scalar_calls"],
            "qseries.logqpoch_scalar_s": c["qseries.logqpoch_scalar_s"],
            "qseries.qpoch_inf_calls": c["qseries.qpoch_inf_calls"],
            "qseries.qpoch_inf_s": c["qseries.qpoch_inf_s"],
            "qseries.psi_calls": c["qseries.psi_calls"],
            "qseries.psi_terms": c["qseries.psi_terms"],
            "qseries.psi_self_s": self.name_self_s("eval_psi"),
            "qseries.self_s": selfs["qseries"],
            "qintegrals.quad_calls": c["qintegrals.quad_calls"],
            "qintegrals.panels": c["qintegrals.panels"],
            "qintegrals.truncation_X_max": max(self.qtruncation_X, default=0.0),
            "qintegrals.truncation_s": c["qintegrals.truncation_s"],
            "qintegrals.truncation_probes": c["qintegrals.truncation_probes"],
            "qintegrals.self_s": selfs["qintegrals"],
            "verify.self_s": selfs["verify"],
        }
        return {k: float(v) for k, v in m.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- boundary counts ------------------------------------------------------------

def _entering(parent: Optional[list], layer: str) -> bool:
    return parent is None or parent[0] != layer


def _gamma_hook(name):
    def hook(tr, parent, args, result, dur):
        if not _entering(parent, "gammafns"):
            return
        c = tr.counts
        c["gammafns.calls"] += 1
        z = args[0] if args else None
        if name in GAMMA_ARRAY_FUNCS and np.ndim(z) > 0:
            c["gammafns.points"] += np.size(z)
            c["gammafns.array_s"] += dur
        else:
            c["gammafns.scalar_calls"] += 1
    return hook


def _levin_hook(tr, parent, args, result, dur):
    c = tr.counts
    c["acceleration.levin_calls"] += 1
    c["acceleration.levin_terms"] += len(args[0])
    if parent is not None and parent[1] == "sum_one_sided":
        c["acceleration.levin_in_sum"] += 1


def _sum_hook(tr, parent, args, result, dur):
    tr.counts["acceleration.sum_calls"] += 1
    tr.counts["acceleration.accelerated"] += bool(result.accelerated)


def _quad_hook(tr, parent, args, result, dur):
    if not _entering(parent, "quadrature"):
        return
    tr.counts["quadrature.calls"] += 1
    if isinstance(result, tuple) and len(result) == 3:
        tr.counts["quadrature.panels"] += result[2]


def _integrate_hook(tr, parent, args, result, dur):
    tr.counts["integrals.integrate_calls"] += 1
    tr.truncation_X.append(float(result.truncation_X))


def _tail_hook(tr, parent, args, result, dur):
    tr.counts["integrals.tail_s"] += dur


def _eval_h_hook(tr, parent, args, result, dur):
    tr.counts["bilateral.eval_calls"] += 1
    tr.counts["bilateral.terms"] += result.terms_used


def _logqpoch_hook(tr, parent, args, result, dur):
    c = tr.counts
    cval, q = args[0], args[1]
    if np.ndim(cval) == 0:
        c["qseries.logqpoch_scalar_calls"] += 1
        c["qseries.logqpoch_scalar_s"] += dur
        return
    qs = sys.modules["rbeta.qseries"]
    eps = getattr(qs, "_QPROD_EPS", 1e-17)
    cap = getattr(qs, "_QPROD_MAX_FACTORS", 2_000_000)
    mag = np.abs(np.asarray(cval, dtype=complex)).ravel()
    lq = math.log(abs(complex(q)))
    c["qseries.logqpoch_array_calls"] += 1
    c["qseries.logqpoch_array_points"] += mag.size
    c["qseries.logqpoch_array_s"] += dur
    if mag.size == 0:
        return
    # the loop stops after the first factor count L with max|c| |q|^L < eps
    top = float(mag.max())
    loops = 1 if top < eps else min(cap, int(math.floor(math.log(eps / top) / lq)) + 1)
    with np.errstate(divide="ignore"):
        need = np.ceil(np.log(eps / mag) / lq)
    need = np.clip(np.nan_to_num(need, nan=0.0, posinf=0.0, neginf=0.0), 0, loops)
    c["qseries.logqpoch_array_factors"] += mag.size * loops
    c["qseries.logqpoch_useful"] += float(need.sum())


def _qpoch_inf_hook(tr, parent, args, result, dur):
    tr.counts["qseries.qpoch_inf_calls"] += 1
    tr.counts["qseries.qpoch_inf_s"] += dur


def _psi_hook(tr, parent, args, result, dur):
    tr.counts["qseries.psi_calls"] += 1
    tr.counts["qseries.psi_terms"] += result.terms_used


def _q_quadrature_hook(tr, parent, args, result, dur):
    tr.counts["qintegrals.quad_calls"] += 1
    tr.counts["qintegrals.panels"] += result.panels
    tr.qtruncation_X.append(float(result.truncation_X))


def _truncation_hook(tr, parent, args, result, dur):
    tr.counts["qintegrals.truncation_s"] += dur


_HOOKS = {
    **{n: _gamma_hook(n) for n in ("gamma", "log_gamma", "recip_gamma",
                                   "_lanczos_log", "pochhammer", "dilog",
                                   "gaussian_q_integral")},
    "levin_u": _levin_hook,
    "sum_one_sided": _sum_hook,
    "gauss_panels": _quad_hook,
    "gauss_panels_graded": _quad_hook,
    "tanh_sinh": _quad_hook,
    "integrate": _integrate_hook,
    "_tail_one_side": _tail_hook,
    "eval_H": _eval_h_hook,
    "log_qpoch_inf": _logqpoch_hook,
    "qpoch_inf": _qpoch_inf_hook,
    "eval_psi": _psi_hook,
    "q_quadrature": _q_quadrature_hook,
    "_geometric_truncation": _truncation_hook,
}
