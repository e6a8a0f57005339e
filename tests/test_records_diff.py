"""scripts/records_diff.py: which record changes make it exit 1."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "records_diff.py"
_SPEC = importlib.util.spec_from_file_location("records_diff", _PATH)
records_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(records_diff)


def _report(**changes):
    record = {"identity_id": "abel-poisson-kernel", "inputs": {"gaps": [0.1]},
              "lhs": {"re": 1.0, "im": 0.0}, "rhs": {"re": 1.0, "im": 0.0},
              "abs_gap": 0.0, "rel_gap": 0.0, "tol": {"abs": 1e-8, "rel": 1e-6},
              "pass": True, "runtime_ms": 0.0}
    return {"summary": {}, "records": [{**record, **changes}]}


def test_changed_inputs_are_reported_and_fail(capsys):
    # perfbench matches golden records on inputs, so a moved input leaves the
    # record unmatched even when lhs, rhs and the verdict hold
    assert records_diff._diff_suite(
        "q-core", [_report()], [_report(inputs={"gaps": [0.2]})])
    out = capsys.readouterr().out
    assert "1 differ" in out
    assert "CHANGED inputs: abel-poisson-kernel (seed 0, record 0)" in out


def test_a_changed_lhs_alone_passes(capsys):
    assert not records_diff._diff_suite(
        "q-core", [_report()], [_report(lhs={"re": 1.0 + 1e-15, "im": 0.0})])
    assert "CHANGED" not in capsys.readouterr().out


def _fake_trees(monkeypatch, old_suites, new_suites):
    """Stand-ins for the suite list and the runner of two trees."""
    old, new = Path("ref/src"), Path("src")
    names = {old: old_suites, new: new_suites}

    def report(src, suite, seed):
        assert suite in names[src], (src, suite)
        return _report()

    monkeypatch.setattr(records_diff, "_suites", lambda src: names[src])
    monkeypatch.setattr(records_diff, "_report", report)
    return old, new


def test_a_suite_that_ref_lacks_is_new_and_passes(monkeypatch, capsys):
    old, new = _fake_trees(monkeypatch, ["q-core"], ["q-core", "q-new"])
    assert not records_diff._compare(old, new)
    out = capsys.readouterr().out
    assert "new suite q-new: 4 records" in out
    assert "CHANGED" not in out


def test_a_suite_missing_from_this_tree_fails(monkeypatch, capsys):
    old, new = _fake_trees(monkeypatch, ["q-core", "q-old"], ["q-core"])
    assert records_diff._compare(old, new)
    assert "CHANGED suite q-old: missing from this tree" in (
        capsys.readouterr().out)


def test_non_finite_numbers_read_in_both_forms(capsys):
    # reports write inf and nan as strings; older ones as Infinity and NaN
    old = _report(lhs={"re": math.inf, "im": 0.0}, rel_gap=math.inf,
                  inputs={"gaps": [-math.inf, math.nan]},
                  tol={"abs": math.inf, "rel": 1e-6})
    new = _report(lhs={"re": "inf", "im": 0.0}, rel_gap="inf",
                  inputs={"gaps": ["-inf", "nan"]},
                  tol={"abs": "inf", "rel": 1e-6})
    for a, b in ((old, new), (new, old)):
        ra, rb = a["records"][0], b["records"][0]
        assert records_diff._change(ra["lhs"], rb["lhs"]) == 0.0
        assert records_diff._digits(ra) == records_diff._digits(rb) == 0.0
        assert not records_diff._diff_suite("q-core", [a], [b])
        out = capsys.readouterr().out
        assert "0 differ" in out and "CHANGED" not in out
