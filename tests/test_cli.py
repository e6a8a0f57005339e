"""CLI surface: commands, exit codes, report files, determinism."""

import json

import pytest

from rbeta.cli import main
from rbeta.core import parse_complex, format_complex
from rbeta.verify import IDENTITIES, SuiteConfig, run_suite, report_to_dict


def run(args):
    import io
    import contextlib
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2i") == -2j
    assert parse_complex("0.3+0.7i") == 0.3 + 0.7j
    assert parse_complex("1-2j") == 1 - 2j
    assert parse_complex("i") == 1j
    with pytest.raises(ValueError):
        parse_complex("abc")


def test_format_parse_roundtrip(rng):
    for _ in range(40):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert parse_complex(format_complex(z, 17)) == z


def test_eval_h_terminating():
    code, out, _ = run(["eval-h", "--c", "-1", "--d", "2", "--z", "0.5"])
    assert code == 0
    # n in {-1, 0, 1}: 1 + (-1)/2*0.5 + (1)/(1)... direct: sum is small finite
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    direct = 1.0 + (-1.0) / 2.0 * 0.5 + (2.0 - 1.0) / (-1.0 - 1.0) / 0.5
    assert abs(val - direct) < 1e-12


def test_eval_h_closed_form():
    code, out, _ = run(["eval-h", "--c", "0.3", "--d", "1.7", "--z", "-1",
                        "--closed-form"])
    assert code == 0
    from rbeta.bilateral import HKind, closed_form_H
    want = closed_form_H(HKind.ONE_H1_MINUS_EXP, dict(a=0.3, b=1.7, t=0.0))
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val - want) < 1e-12 * abs(want)


def test_eval_h_conditional_z1_exit3():
    code, _, err = run(["eval-h", "--c", "0.3", "--d", "0.9", "--z", "1"])
    assert code == 3
    assert "z = 1" in err


def test_integrate_library_error_exit3():
    # w = 1 lies outside the q-integrand's annulus
    code, _, err = run(["integrate", "--a", "0.2", "--b", "0.5", "--q", "0.5",
                        "--w", "1.0"])
    assert code == 3
    assert "AnnulusViolation" in err


def test_eval_h_parse_error_exit2():
    code, _, _ = run(["eval-h", "--c", "x", "--d", "2", "--z", "1"])
    assert code == 2


def test_eval_psi_command():
    code, out, _ = run(["eval-psi", "--a", "0.2", "--b", "0.05", "--q", "0.5",
                        "--z", "0.4"])
    assert code == 0
    assert out.startswith("value:")


def test_integrate_ramanujan_unit():
    code, out, _ = run(["integrate", "--m", "2", "--a", "0,0", "--b", "0,0",
                        "--t", "0"])
    assert code == 0
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val - 1.0) < 1e-8


def test_integrate_beyond_support():
    code, out, _ = run(["integrate", "--m", "1", "--a", "0.6", "--b", "0.6",
                        "--t", "4.0"])
    assert code == 0
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val) < 1e-8


def test_integrate_weight_and_q():
    code, out, _ = run(["integrate", "--a", "0.2,0.3,0.4", "--b", "0.2,0.3,0.4",
                        "--t", "0", "--weight", "gm:3"])
    assert code == 0
    code, out, _ = run(["integrate", "--a", "2.2", "--b", "0.27", "--q", "0.5",
                        "--w", "1.0", "--t", "0.3"])
    assert code == 0


def test_integrate_mismatched_lengths_exit2():
    code, _, _ = run(["integrate", "--m", "2", "--a", "0,0,0", "--b", "0,0",
                      "--t", "0"])
    assert code == 2


def test_integrate_margin_exit3():
    code, _, _ = run(["integrate", "--m", "1", "--a", "-0.6", "--b", "-0.6",
                      "--t", "0"])
    assert code == 3


def test_verify_unknown_suite_exit2():
    code, _, _ = run(["verify", "--suite", "nope"])
    assert code == 2


def test_verify_writes_report(tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(["verify", "--suite", "limits", "--seed", "5",
                      "--draws", "1", "--out", str(out_path), "--quiet"])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["schema"] == 1
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["records"])
    rec = data["records"][0]
    assert set(rec) == {"identity_id", "inputs", "lhs", "rhs", "abs_gap",
                        "rel_gap", "tol", "pass", "runtime_ms"}


def test_verify_csv_format(tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(["verify", "--suite", "limits", "--seed", "5",
                      "--draws", "1", "--out", str(out_path),
                      "--format", "csv", "--quiet"])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("identity_id,inputs,lhs_re")
    assert len(lines) > 3


def test_verify_quiet_follows_format():
    code, out, _ = run(["verify", "--suite", "limits", "--seed", "5",
                        "--draws", "1", "--format", "csv", "--quiet"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("identity_id,inputs,lhs_re")
    # the header and one row per limits identity
    assert len(lines) == 1 + sum(e.suite == "limits" for e in IDENTITIES)
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_verify_negative_seed_exit2():
    code, out, err = run(["verify", "--suite", "limits", "--seed", "-1",
                          "--quiet"])
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


def test_verify_determinism():
    cfg = SuiteConfig(suite="q-core", seed=11, draws_per_identity=1)
    r1 = run_suite(cfg)
    r2 = run_suite(SuiteConfig(suite="q-core", seed=11, draws_per_identity=1))
    d1 = report_to_dict(r1)
    d2 = report_to_dict(r2)
    for rec in d1["records"] + d2["records"]:
        rec["runtime_ms"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # different seed changes draws
    r3 = run_suite(SuiteConfig(suite="q-core", seed=12, draws_per_identity=1))
    d3 = report_to_dict(r3)
    for rec in d3["records"]:
        rec["runtime_ms"] = 0.0
    assert json.dumps(d1, sort_keys=True) != json.dumps(d3, sort_keys=True)


def test_rb_threads_env(monkeypatch):
    monkeypatch.setenv("RB_THREADS", "1")
    cfg = SuiteConfig(suite="limits", seed=2, draws_per_identity=1)
    report = run_suite(cfg)
    assert report.failed == 0


def test_verify_io_failure_exit4(tmp_path):
    bad = tmp_path / "no_such_dir" / "report.json"
    code, _, err = run(["verify", "--suite", "limits", "--seed", "1",
                        "--draws", "1", "--out", str(bad), "--quiet"])
    assert code == 4
    assert "error writing report" in err


def test_verify_failed_rename_leaves_no_temp_file(tmp_path):
    # the temp file is written, then renaming it onto a directory fails
    out = tmp_path / "reports"
    out.mkdir()
    code, _, err = run(["verify", "--suite", "limits", "--seed", "1",
                        "--draws", "1", "--out", str(out), "--quiet"])
    assert code == 4
    assert "error writing report" in err
    assert list(tmp_path.glob("*.tmp.*")) == []
