"""scripts/records_diff.py: which record changes make it exit 1."""

import importlib.util
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
