"""Identity registry: suite composition, per-record failure isolation, the
summary gaps and the one-thread record loop."""

import dataclasses
import json
import math
import threading
import time

import pytest

from rbeta import verify
from rbeta.core import Tolerance, VerificationRecord
from rbeta.verify import Identity, SuiteConfig, run_suite, suite_jobs


def _ids(*names):
    return [(n, n) for n in names]


def _qbeta(kind):
    iid = f"qbeta-{kind}"
    return [(iid, f"{iid}-0.4"), (iid, f"{iid}-0.7"),
            (f"{iid}-psi-representation", f"{iid}-psirep")]


# (identity id, rng tag) of one draw, in record order
SUITE_ORDER = {
    "classical-core": _ids(
        "cauchy-cosine-integral", "fourier-single-factor", "riemann-grid-sum",
        "grid-sum-p-invariance", "compact-support",
        "integral-series-representation", "sum-1h1-exp", "sum-1h1-exp-plus",
        "sum-1h1-unit", "sum-2h2-gauss", "sum-3h3-well-poised",
        "sum-4h4-very-well-poised", "sum-5h5-very-well-poised",
        "symmetry-transform", "gamma-reflection", "dilog-pair-identity",
        "gamma-duplication-instance"),
    "classical-beta": _ids(
        "beta-RamanujanM2", "beta-RamanujanM2Cos", "beta-M3Cos",
        "beta-M3Plain", "beta-M4Plain", "beta-M4VWP", "beta-M4VWPShifted",
        "beta-M5VWP", "beta-M5VWPShifted", "beta-M5VWPThird",
        "beta-M6Riemann", "grid-sum-alternating-identity",
        "degenerate-series-reduction", "barnes-vertical-line",
        "double-cosine-power-question"),
    "q-core": _ids(
        "qpoch-negative-dual", "sum-1psi1", "sum-6psi6",
        "jacobi-triple-product", "q-fourier-plain", "q-fourier-strip",
        "q-gaussian-integral", "abel-poisson-kernel", "qpoch-exponent-bound",
        "qpoch-ratio-monotone"),
    "q-beta": (_qbeta("I_full") + _qbeta("I_d0") + _qbeta("I_c0")
               + _qbeta("I_3psi6") + _qbeta("I_2psi6")
               + [("qbeta-I_full-gamma-form", "qbeta-I_full-gammaform"),
                  ("qbeta-I_d0-gamma-form", "qbeta-I_d0-gammaform")]
               + _ids("doubled-argument-beta", "doubled-argument-vs-shifted")),
    "limits": _ids(
        "basic-to-classical-limit", "q-binomial-ratio-limit",
        "qbeta-limit-constant", "q-fourier-classical-limit",
        "q-gamma-classical-limit", "qpoch-asymptotic-bound",
        "qpoch-asymptotic-shifted"),
}


def test_suite_composition():
    counts = {"classical-core": 34, "classical-beta": 30, "q-core": 20,
              "q-beta": 38, "limits": 14}
    assert verify.SUITE_NAMES == tuple(SUITE_ORDER)
    for suite, order in SUITE_ORDER.items():
        jobs = suite_jobs(suite, 2)
        assert len(jobs) == counts[suite]
        assert [d for d, _ in jobs] == [0] * len(order) + [1] * len(order)
        assert [(e.id, e.tag) for _, e in jobs] == order + order


def test_asymptotic_bound_record_can_fail():
    # lhs is the bound's violation against an rhs of 0
    entry = next(e for e in verify.IDENTITIES
                 if e.id == "qpoch-asymptotic-bound")
    assert entry.tol.rel == 0.0
    assert not VerificationRecord.compare(entry.id, {}, 1e-3, 0j,
                                          entry.tol).passed
    for seed in range(40):
        for draw in range(2):
            rec = verify._run_job(seed, (draw, entry))
            assert rec.passed, (seed, draw, rec.inputs, rec.lhs)


def test_record_clock_starts_after_its_rng(monkeypatch):
    # the first default_rng call of a process imports numpy.random's
    # generator machinery; runtime_ms bills the check, not that import
    calls = []
    rng_for, perf_counter = verify._rng_for, verify.time.perf_counter

    def spy_rng(*args):
        calls.append("rng")
        return rng_for(*args)

    def spy_clock():
        calls.append("clock")
        return perf_counter()

    def check(rng, *_):
        calls.append("check")
        return {}, 1.0, 1.0

    monkeypatch.setattr(verify, "_rng_for", spy_rng)
    monkeypatch.setattr(verify.time, "perf_counter", spy_clock)
    entry = Identity("spy", "classical-core", Tolerance(abs=1e-12), check)
    assert verify._run_job(0, (0, entry)).passed
    assert calls == ["rng", "clock", "check", "clock"]


def test_bad_draw_fails_only_its_record(monkeypatch):
    cfg = SuiteConfig(suite="classical-core", seed=3, draws_per_identity=1)
    normal = {r.identity_id: r for r in run_suite(cfg).records}

    def divide_by_zero(rng, *_):
        return {"x": float(rng.uniform())}, 1.0 / 0.0, 0j

    keep = [e for e in verify.IDENTITIES
            if e.id in ("gamma-reflection", "dilog-pair-identity")]
    monkeypatch.setattr(verify, "IDENTITIES", (
        keep[0], Identity("broken", "classical-core", Tolerance(abs=1e-12),
                          divide_by_zero), keep[1]))
    report = run_suite(cfg)
    assert (report.total, report.failed) == (3, 1)
    bad = report.records[1]
    assert bad.identity_id == "broken" and not bad.passed
    assert bad.inputs == {"error": "float division by zero",
                          "error_class": "ZeroDivisionError"}
    for rec in (report.records[0], report.records[2]):
        ref = normal[rec.identity_id]
        assert rec.passed
        assert (rec.inputs, rec.lhs, rec.rhs) == (ref.inputs, ref.lhs, ref.rhs)


def test_json_report_with_non_finite_numbers_is_strict_json(monkeypatch):
    # an error record's gaps are inf, and so is the lhs of a broken
    # monotone check: JSON has no token for them, so they are strings
    def raises(rng, *_):
        raise ValueError("bad draw")

    def not_monotone(rng, *_):
        return verify._monotone_record({"x": math.nan}, [0.1, 0.2])

    monkeypatch.setattr(verify, "IDENTITIES", (
        Identity("raises", "limits", Tolerance(abs=1e-2), raises),
        Identity("not-monotone", "limits", Tolerance(abs=1e-2), not_monotone)))
    report = run_suite(SuiteConfig(suite="limits", seed=0,
                                   draws_per_identity=1))

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    d = json.loads(verify.report_to_json(report), parse_constant=reject)
    first, second = d["records"]
    assert (first["abs_gap"], first["rel_gap"]) == ("inf", "inf")
    assert d["summary"]["max_abs_gap"] == "inf"
    assert second["lhs"]["re"] == "inf" and second["inputs"]["x"] == "nan"
    # record_to_dict, which perfbench keys its records on, keeps the floats
    assert verify.record_to_dict(report.records[0])["abs_gap"] == math.inf


@pytest.mark.parametrize("suite", ["classical-core", "limits"])
def test_summary_gaps_split_on_zero_targets(suite):
    # zero-target records have rel_gap 1 by construction; they are
    # summarized by max_abs_gap instead
    report = run_suite(SuiteConfig(suite=suite, seed=0, draws_per_identity=1))
    assert report.failed == 0
    assert report.max_rel_gap < 1
    zero = [r.abs_gap for r in report.records if r.rhs == 0]
    assert zero and report.max_abs_gap == max(zero)


def test_every_check_runs_on_the_calling_thread(monkeypatch):
    threads = []

    def spy(check):
        def run(*args):
            threads.append(threading.get_ident())
            return check(*args)
        return run

    monkeypatch.setattr(verify, "IDENTITIES", tuple(
        dataclasses.replace(e, check=spy(e.check)) for e in verify.IDENTITIES))
    report = run_suite(SuiteConfig(suite="limits", seed=0,
                                   draws_per_identity=2))
    assert len(threads) == report.total == 2 * len(suite_jobs("limits", 1))
    assert set(threads) == {threading.get_ident()}


def test_record_runtimes_add_up_to_at_most_the_wall_time():
    # each runtime_ms is its own record's cost, with no time spent waiting
    # on another record
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(suite="classical-beta", seed=0,
                                   draws_per_identity=1))
    wall_ms = (time.perf_counter() - t0) * 1e3
    assert 0 < sum(r.runtime_ms for r in report.records) <= wall_ms


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig(suite="limits", seed=-1)
    assert SuiteConfig(suite="limits", seed=0).seed == 0
