"""Workload inputs for the rbeta benchmark, as a pure function of the seed.

A run executes a fixed list of batches.  A batch is what ``rbeta verify``
does for one suite seed: run each suite's jobs, then serialize the report.
Each workload has INPUT_SETS fixed batch lists; a run with seed s runs list
s mod INPUT_SETS, so every seed has golden records.

This module imports ``rbeta``; the caller puts the checkout's ``src`` first
on ``sys.path``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from rbeta.core import VerificationRecord
from rbeta.verify import (SuiteConfig, record_to_dict, report_to_json,
                          run_suite)

INPUT_SETS = 10

# About one q-beta batch in six has a qbeta-I_full or qbeta-I_d0 record whose
# quadrature truncates beyond X = 840 and takes 5-10 s, where the others take
# 0.1-0.3 s; such records take about half of q-moderate's time.  Every
# q-moderate input set therefore holds the same two of them, LONG_BATCHES,
# so that their cost is the same in every run, and ten other batches of its
# own.  LONG_TRUNCATION lists the long suite seeds among the candidates
# 1000*i + j up to each set's tenth other one; `python3 perfbench/worker.py
# --workload q-moderate --seed i --classify N` prints the truncation X of the
# first N candidates of set i.
LONG_BATCHES = (4, 5)
LONG_TRUNCATION = frozenset({
    4, 5, 1009, 2000, 2003, 3007, 4005, 6007, 7008, 8002, 8004,
    9000, 9005, 9007, 9012,
})


def _q_moderate_set(i: int) -> Tuple[int, ...]:
    """Ten suite seeds of set i without a long truncation, with one long
    batch first in each half."""
    short = [s for s in (1000 * i + j for j in range(20))
             if s not in LONG_TRUNCATION][:10]
    return (LONG_BATCHES[0], *short[:5], LONG_BATCHES[1], *short[5:])


# Per workload: the suites one batch runs, the suite seeds of each input set,
# and the layers it must exercise ("active") or should leave alone ("idle":
# a change to those layers is predicted not to move this workload).  Why each
# workload exists is stated in BENCHMARK.json.
WORKLOADS: Dict[str, Dict] = {
    "classical": {
        "suites": ("classical-core", "classical-beta"),
        "draws": 2,
        "suite_seeds": [tuple(1000 * i + j for j in range(11))
                        for i in range(INPUT_SETS)],
        "active": ("gammafns", "acceleration", "quadrature", "integrals",
                   "bilateral", "verify"),
        "idle": ("qseries", "qintegrals"),
    },
    "q-moderate": {
        "suites": ("q-core", "q-beta"),
        "draws": 1,
        "suite_seeds": [_q_moderate_set(i) for i in range(INPUT_SETS)],
        "active": ("qseries", "qintegrals", "quadrature", "verify"),
        "idle": ("gammafns", "acceleration", "integrals", "bilateral"),
    },
}


@dataclass(frozen=True)
class Batch:
    suite_seed: int
    suites: Tuple[str, ...]
    draws: int


def build_batches(workload: str, seed: int) -> List[Batch]:
    """The run's inputs: a pure function of (workload, seed)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    spec = WORKLOADS[workload]
    return [Batch(s, spec["suites"], spec["draws"])
            for s in spec["suite_seeds"][seed % INPUT_SETS]]


def run_batch(batch: Batch) -> Tuple[List[VerificationRecord], Dict[str, float]]:
    """Run one batch; returns its records and its timings in seconds: wall,
    summed record time and serialization."""
    records: List[VerificationRecord] = []
    serialize_s = 0.0
    t0 = time.perf_counter()
    for suite in batch.suites:
        report = run_suite(SuiteConfig(suite, seed=batch.suite_seed,
                                       draws_per_identity=batch.draws))
        ts = time.perf_counter()
        report_to_json(report)
        serialize_s += time.perf_counter() - ts
        records.extend(report.records)
    wall = time.perf_counter() - t0
    return records, {"wall_s": wall, "serialize_s": serialize_s,
                     "record_s": sum(r.runtime_ms for r in records) / 1e3}


def qbeta_truncation_X(batch: Batch) -> float:
    """Largest truncation X of the batch's q-beta quadratures (0 if none)."""
    import rbeta.qintegrals as qi
    import rbeta.verify as rv
    seen, inside = [0.0], []
    quad, family = qi.q_quadrature, rv.qbeta_family

    def probe(*args, **kwargs):
        res = quad(*args, **kwargs)
        if inside:
            seen.append(res.truncation_X)
        return res

    def within(*args, **kwargs):
        inside.append(True)
        try:
            return family(*args, **kwargs)
        finally:
            inside.pop()
    qi.q_quadrature, rv.qbeta_family = probe, within
    try:
        run_batch(batch)
    finally:
        qi.q_quadrature, rv.qbeta_family = quad, family
    return max(seen)


def record_key(rec: VerificationRecord) -> Dict:
    """The deterministic part of a record: everything but runtime_ms."""
    d = record_to_dict(rec)
    d.pop("runtime_ms")
    return d
