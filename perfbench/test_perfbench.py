"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ["RB_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads as W  # noqa: E402
from rbeta.verify import SuiteConfig, run_suite  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_inputs_are_a_pure_function_of_the_seed():
    for name in W.WORKLOADS:
        assert W.build_batches(name, 5) == W.build_batches(name, 5)
        assert W.build_batches(name, 5) != W.build_batches(name, 6)
        assert W.build_batches(name, 5) == W.build_batches(name, 5 + W.INPUT_SETS)
    batch = W.build_batches("q-moderate", 5)[0]

    def inputs(seed):
        report = run_suite(SuiteConfig("q-core", seed=seed, draws_per_identity=1))
        return [W.record_key(r)["inputs"] for r in report.records]
    assert inputs(batch.suite_seed) == inputs(batch.suite_seed)
    assert inputs(batch.suite_seed) != inputs(batch.suite_seed + 1)


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "records_per_s", "record_ms_p50", "record_ms_p90",
        "agree_digits_p10", "peak_rss_mb"}
    names = set(layertrace.Tracer().metrics()) | {
        "verify.records", "verify.overhead_s", "verify.serialize_s",
        "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == names


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_past_its_time_limit_is_reported_as_too_slow():
    # --seconds 1 allows the workload 3.5 s; a classical pass takes ~45 s
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "too slow" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_every_input_set_has_golden_records_for_each_batch():
    import worker
    for name in W.WORKLOADS:
        for i in range(W.INPUT_SETS):
            golden = worker.load_golden(name, i)
            assert golden is not None, (name, i)
            assert ({g["batch"] for g in golden}
                    == {b.suite_seed for b in W.build_batches(name, i)})


def test_q_moderate_input_sets_share_one_mix():
    sets = W.WORKLOADS["q-moderate"]["suite_seeds"]
    assert len(sets) == W.INPUT_SETS
    for seeds in sets:
        assert len(seeds) == len(set(seeds)) == len(sets[0])
        assert [s for s in seeds if s in W.LONG_TRUNCATION] == list(W.LONG_BATCHES)
        # one long batch in the first half, which the traced run covers
        assert seeds[0] == W.LONG_BATCHES[0]


def test_correct_needs_golden_and_unchanged_verdicts():
    import worker
    key = {"identity_id": "x", "inputs": {"a": 1.0},
           "lhs": {"re": 1.0, "im": 0.0}, "rhs": {"re": 1.0, "im": 0.0},
           "pass": True}
    missing = worker.compare_golden([key], None)
    assert not missing["golden"] and missing["unmatched"] == 1
    flipped = worker.compare_golden([key], [dict(key, **{"pass": False})])
    assert flipped["verdict_changes"] == 1 and flipped["golden_failing"] == 1
    drifted = worker.compare_golden(
        [key], [dict(key, lhs={"re": 2.0, "im": 0.0})])
    assert drifted["verdict_changes"] == 0
    assert drifted["max_lhs_drift"] == pytest.approx(0.5)


@pytest.fixture(scope="module")
def traced_batches():
    """One traced batch per workload: (tracer, records) by workload."""
    out = {}
    for name in W.WORKLOADS:
        # batch 1: a q-moderate input set starts with its long batch
        batch = W.build_batches(name, 0)[1]
        ref, _ = W.run_batch(batch)
        tracer = layertrace.Tracer(extra_modules=(W,))
        tracer.install()
        try:
            recs, _ = W.run_batch(batch)
        finally:
            tracer.uninstall()
        out[name] = (tracer, ref, recs)
    return out


def test_traced_records_are_bit_identical(traced_batches):
    for tracer, ref, recs in traced_batches.values():
        assert [W.record_key(r) for r in recs] == [W.record_key(r) for r in ref]


def test_uninstall_restores_every_binding(traced_batches):
    import rbeta.integrals
    assert not hasattr(rbeta.integrals.recip_gamma, "__wrapped__")
    assert not hasattr(W.run_suite, "__wrapped__")


def test_active_layers_have_calls_and_idle_layers_stay_idle(traced_batches):
    for name, (tracer, _, _) in traced_batches.items():
        calls = {layer: 0 for layer in layertrace.LAYERS}
        for span in tracer.spans:
            if span[2] in calls:
                calls[span[2]] += 1
        for layer in W.WORKLOADS[name]["active"]:
            assert calls[layer] > 0, (name, layer)
        selfs = tracer.layer_self_s()
        total = sum(selfs.values())
        for layer in W.WORKLOADS[name]["idle"]:
            assert selfs[layer] < 0.05 * total, (name, layer)


def test_self_time_shares_match_the_profile(traced_batches):
    def shares(name):
        selfs = traced_batches[name][0].layer_self_s()
        total = sum(selfs.values())
        return {k: v / total for k, v in selfs.items()}
    classical = shares("classical")
    assert classical["gammafns"] + classical["acceleration"] > 0.5
    assert shares("q-moderate")["qseries"] > 0.5


def test_logqpoch_computed_factors_match_the_loop():
    import numpy as np
    tracer = layertrace.Tracer()
    c = np.array([0.5, 1e-3, 0.9 + 0.1j])
    q = 0.8
    layertrace._logqpoch_hook(tracer, None, (c, q), None, 0.0)
    # replay the library's loop: it stops once every |c q^k| < 1e-17
    cur, loops = c.copy(), 0
    while True:
        loops += 1
        cur = cur * q
        if np.abs(cur).max() < 1e-17:
            break
    assert tracer.counts["qseries.logqpoch_array_factors"] == 3 * loops
    assert 0 < tracer.counts["qseries.logqpoch_useful"] < 3 * loops
