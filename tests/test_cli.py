"""CLI surface: commands, exit codes, report files, determinism."""

import json
import tracemalloc

import pytest

from rbeta.bilateral import BilateralSeriesSpec, eval_H
from rbeta.cli import main
from rbeta.core import parse_complex, format_complex
from rbeta.errors import ConstraintViolation
from rbeta.integrals import IntegrandSpec, integrate
from rbeta.qintegrals import QIntegrandSpec, q_integrate
from rbeta.qseries import QSeriesSpec, eval_psi
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
    # forms that Python's complex() takes and the literals here do not use
    for text in ("1_000", "(1+2i)", "(3)", "2J"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_complex(text)


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


@pytest.mark.parametrize("literal", ["1e400", "1e400i", "1-1e400i", "-1e400"])
def test_non_finite_literal_exit2(literal):
    with pytest.raises(ValueError, match="not finite"):
        parse_complex(literal)
    code, _, err = run(["eval-h", f"--c={literal}", "--d", "1.5", "--z", "0.5"])
    assert code == 2
    assert "not finite" in err


@pytest.mark.parametrize("args,option", [
    (["eval-h", "--c", "-1e-3", "--d", "1.5", "--z", "0.5"], "--c"),
    (["eval-h", "--c", "0.3", "--d", "1.5", "--z", "-0.5+0.1i"], "--z"),
    (["integrate", "--a", "0.3", "--b", "0.4", "--t", "-1e-1"], "--t"),
])
def test_negative_literal_is_a_value(args, option):
    # argparse alone takes -1e-3 and -0.5+0.1i for options and exits 2
    k = args.index(option)
    joined = args[:k] + [f"{option}={args[k + 1]}"] + args[k + 2:]
    got = run(args)
    assert "expected one argument" not in got[2]
    assert got == run(joined)
    if args[0] == "integrate":
        assert got[0] == 0 and got[1].startswith("value: ")


def test_eval_psi_command():
    code, out, _ = run(["eval-psi", "--a", "0.2", "--b", "0.05", "--q", "0.5",
                        "--z", "0.4"])
    assert code == 0
    assert out.startswith("value:")


# README's eval-h, eval-psi and q-integral examples, each with the library
# call on the same spec
README_EXAMPLES = {
    "eval-h": (["eval-h", "--c", "0.3,0.4", "--d", "1.5,1.6", "--z", "1"],
               lambda: eval_H(BilateralSeriesSpec([0.3, 0.4], [1.5, 1.6], 1.0))),
    "eval-psi": (["eval-psi", "--a", "0.2", "--b", "0.05", "--q", "0.5",
                  "--z", "0.4"],
                 lambda: eval_psi(QSeriesSpec(0.5, [0.2], [0.05], 0.4))),
    "integrate": (["integrate", "--a", "2.2", "--b", "0.27", "--q", "0.5",
                   "--w", "1.0", "--t", "0.3"],
                  lambda: q_integrate(QIntegrandSpec(0.5, [2.2], [0.27], [1.0],
                                                     0.3))),
}


@pytest.mark.parametrize("name", README_EXAMPLES)
def test_readme_example_prints_the_library_value(name):
    args, route = README_EXAMPLES[name]
    code, out, _ = run(args)
    assert code == 0
    assert out.splitlines()[0] == f"value: {format_complex(route().value)}"


@pytest.mark.parametrize("name", README_EXAMPLES)
def test_tol_is_not_an_option_exit2(name):
    # each route fixes its own accuracy target
    code, out, err = run(README_EXAMPLES[name][0] + ["--tol", "1e-8"])
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("a,b,z", [("0,0.6", "0.3,0.2", "0.5"),
                                   ("0,0.6", "0,0.2", "0.2"),
                                   ("0.6", "0.3,0.7", "0.1")])
def test_eval_psi_left_side_outside_annulus_exit3(a, b, z):
    code, _, err = run(["eval-psi", "--a", a, "--b", b, "--q", "0.5", "--z", z])
    assert code == 3
    assert "OutsideAnnulus" in err


def test_eval_psi_overflow_exit3():
    # exit code 1 is for failed records: an overflow is a library error
    code, out, err = run(["eval-psi", "--a", "1e200,1e200", "--b", "0.5,0.5",
                          "--q", "0.5", "--z", "0.5"])
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: OverflowError: up side of psi series overflows at term 1"]


def test_integrate_complex_t_with_zero_b():
    code, out, _ = run(["integrate", "--q", "0.5", "--a", "2", "--b", "0",
                        "--w", "1", "--t", "0.3+0.2i"])
    assert code == 0
    from rbeta.qintegrals import QIntegrandSpec, q_fourier_closed
    want = q_fourier_closed(QIntegrandSpec(0.5, [2.0], [0.0], [1.0], 0.3 + 0.2j))
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val - want) <= 1e-8 * abs(want)


def test_integrate_ramanujan_unit():
    code, out, _ = run(["integrate", "--a", "0,0", "--b", "0,0", "--t", "0"])
    assert code == 0
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val - 1.0) < 1e-8


def test_integrate_beyond_support():
    code, out, _ = run(["integrate", "--a", "0.6", "--b", "0.6", "--t", "4.0"])
    assert code == 0
    val = parse_complex(out.splitlines()[0].split(": ")[1])
    assert abs(val) < 1e-8


@pytest.mark.parametrize("t", ["1e6", "1e300"])
@pytest.mark.parametrize("q_args", [[], ["--q", "0.5", "--w", "1"]],
                         ids=["classical", "q"])
def test_integrate_high_frequency_exit3_without_a_large_allocation(q_args, t):
    # both lattices take nodes in proportion to |t| (t = 1e300 once ended
    # in numpy's "Maximum allowed size exceeded"): past the node budget the
    # library raises before it allocates, and the CLI exits 3
    tracemalloc.start()
    try:
        code, out, err = run(["integrate", "--a", "2", "--b", "0.3",
                              "--t", t] + q_args)
        with pytest.raises(ConstraintViolation, match=r"frequency .* nodes"):
            if q_args:
                q_integrate(QIntegrandSpec(0.5, [2], [0.3], [1], float(t)))
            else:
                integrate(IntegrandSpec([2], [0.3], float(t)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("error: ConstraintViolation: frequency")
    assert err.count("\n") == 1
    assert peak < 20e6


def test_integrate_weight_and_q():
    code, out, _ = run(["integrate", "--a", "0.2,0.3,0.4", "--b", "0.2,0.3,0.4",
                        "--t", "0", "--weight", "gm:3"])
    assert code == 0
    code, out, _ = run(["integrate", "--a", "2.2", "--b", "0.27", "--q", "0.5",
                        "--w", "1.0", "--t", "0.3"])
    assert code == 0
    # an explicit --weight none is no weight
    code, out, _ = run(["integrate", "--a", "2.2", "--b", "0.27", "--q", "0.5",
                        "--w", "1.0", "--t", "0.3", "--weight", "none"])
    assert code == 0


@pytest.mark.parametrize("args", [
    # --w belongs to the q integrand, with or without the right count
    ["--a", "0.5", "--b", "0.5", "--w", "7,8"],
    ["--a", "0.5", "--b", "0.5", "--w", "7"],
    # the q integrand takes no trigonometric weight
    ["--a", "2.5", "--b", "0.3", "--q", "0.5", "--weight", "gm:2"],
])
def test_integrate_option_of_the_other_integrand_exit2(args):
    code, out, err = run(["integrate"] + args)
    assert code == 2
    assert out == ""
    assert "applies to" in err


def test_integrate_mismatched_lengths_exit2():
    code, _, _ = run(["integrate", "--a", "0,0,0", "--b", "0,0", "--t", "0"])
    assert code == 2


def test_integrate_margin_exit3():
    code, _, _ = run(["integrate", "--a", "-0.6", "--b", "-0.6", "--t", "0"])
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
