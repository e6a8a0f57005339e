"""scripts/bench_pairs.py: the pairwise summary behind a claimed gain."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


def test_summary_ratios_quartiles_and_wins():
    parent = [100.0, 104.0, 96.0, 100.0, 102.0]
    change = [130.0, 104.0, 125.0, 131.0, 128.0]
    s = summarize(parent, change, "higher")
    assert s["pairs"] == 5
    assert s["ratios"] == pytest.approx([1.3, 1.0, 125 / 96, 1.31, 128 / 102])
    # the tie in pair 1 counts for neither side
    assert s["change_wins"] == 4
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (100, 100, 102)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (125, 128, 130)
    assert s["parent_iqr"] == 2.0
    assert s["median_ratio"] == pytest.approx(1.28)
    # 4 of 5 wins is below nine tenths
    assert not s["gain"]
    assert summarize(parent[:1] + parent[2:], change[:1] + change[2:],
                     "higher")["gain"]


def test_summary_lower_is_better_and_the_spread_rule():
    parent = [10.0, 11.0, 9.0, 10.0]
    assert summarize(parent, [9.0, 10.0, 8.0, 9.0], "lower")["change_wins"] == 4
    # every pair better, but the medians differ by less than the parent's
    # interquartile range
    s = summarize(parent, [9.9, 10.9, 8.9, 9.9], "lower")
    assert s["change_wins"] == 4 and not s["gain"]
    s = summarize(parent, [5.0, 5.5, 4.5, 5.0], "lower")
    assert s["gain"] and s["median_ratio"] == 0.5
    assert not summarize(parent, [5.0, 5.5, 4.5, 5.0], "higher")["gain"]


def test_summary_of_one_pair_and_bad_input():
    s = summarize([2.0], [3.0], "higher")
    assert s["parent_iqr"] == 0.0 and s["gain"]
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "higher")


@pytest.mark.parametrize("traced_ok", [True, False])
def test_a_traced_run_that_is_not_correct_fails_the_comparison(
        monkeypatch, capsys, traced_ok):
    monkeypatch.setattr(bench_pairs, "_copy_ref", lambda ref, dst: None)
    monkeypatch.setattr(bench_pairs, "_copy_worktree", lambda dst: None)
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, seed, trace))
        return {"correct": traced_ok or trace == 0,
                "metrics": {n: {"value": 1.0} for n in names}}
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    code = bench_pairs.main(["REF", "--workload", "q-moderate", "--pairs", "2",
                             "--seed", "5"])
    assert code == (0 if traced_ok else 1)
    # two untraced pairs, then one traced run per side at the first seed
    assert [c for c in calls if c[2] == 1] == [("parent", 5, 1),
                                               ("change", 5, 1)]
    assert len(calls) == 6
    assert f"traced seed 5: correct parent={traced_ok}" in capsys.readouterr().out
