"""Command-line front end: evaluate series and integrals, run verification
suites, emit JSON/CSV reports.

Exit codes: 0 success / all records pass; 1 failed records; 2 argument,
parse or domain errors and ill-formed specs; 3 every other library error
(divergence, constraint, annulus, pole, overflow, ...); 4 report I/O
failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from .core import format_complex, parse_complex, parse_complex_list
from .errors import ConstraintViolation, DomainError, IllFormedSpec, RBetaError
from .bilateral import (BilateralSeriesSpec, HKind, classify, closed_form_H,
                        eval_H)
from .qseries import QSeriesSpec, eval_psi
from .integrals import IntegrandSpec, integrate, weight_gm
from .qintegrals import QIntegrandSpec, q_integrate
from .verify import SuiteConfig, run_suite, report_to_text, write_report

_USAGE_ERRORS = (ValueError, IllFormedSpec, DomainError)


class _Parser(argparse.ArgumentParser):
    """Takes an argument that starts with "-" and a digit or "." for a
    value, so --c -1e-3 and --z -0.5+0.1i parse as --c=-1e-3 does;
    argparse's own rule knows only -N and -N.N.  Subcommand parsers inherit
    the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rbeta",
        description="bilateral series, Ramanujan-type integrals, and "
                    "identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval-h", help="evaluate a bilateral series")
    ev.add_argument("--c", required=True, help="numerator parameters, comma separated")
    ev.add_argument("--d", required=True, help="denominator parameters, comma separated")
    ev.add_argument("--z", required=True, help="argument (complex, a+bi)")
    ev.add_argument("--closed-form", action="store_true",
                    help="use a matching summation theorem instead of summing")

    ep = sub.add_parser("eval-psi", help="evaluate a bilateral basic series")
    ep.add_argument("--a", required=True, help="upper parameters, comma separated")
    ep.add_argument("--b", required=True, help="lower parameters, comma separated")
    ep.add_argument("--q", required=True, help="base, 0 < |q| < 1")
    ep.add_argument("--z", required=True, help="argument (complex)")

    ig = sub.add_parser("integrate", help="evaluate a Ramanujan-type integral")
    ig.add_argument("--a", required=True, help="a parameters, comma separated")
    ig.add_argument("--b", required=True, help="b parameters, comma separated")
    ig.add_argument("--t", default="0", help="frequency (complex allowed for q integrands)")
    ig.add_argument("--weight", default="none",
                    help="trigonometric weight: none or gm:<order>")
    ig.add_argument("--q", help="base: switches to the q-deformed integrand")
    ig.add_argument("--w", help="q-integrand w parameters, comma separated")

    vf = sub.add_parser("verify", help="run a named verification suite")
    vf.add_argument("--suite", required=True)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--draws", type=int, default=2,
                    help="draws per identity")
    vf.add_argument("--out", help="report output path")
    vf.add_argument("--format", choices=("json", "csv"), default="json")
    vf.add_argument("--quiet", action="store_true")
    return ap


def _cmd_eval_h(args) -> int:
    c = parse_complex_list(args.c)
    d = parse_complex_list(args.d)
    z = parse_complex(args.z)
    spec = BilateralSeriesSpec(c, d, z)
    cls = classify(spec)
    if args.closed_form:
        value = _matching_closed_form(spec)
        print(f"value: {format_complex(value)}")
        print("est_error: 0 (closed form)")
        print(f"class: {cls.kind.value}")
        return 0
    sv = eval_H(spec)
    print(f"value: {format_complex(sv.value)}")
    print(f"est_error: {sv.est_error:.3e}")
    print(f"class: {cls.kind.value}")
    print(f"terms: {sv.terms_used}")
    return 0


def _matching_closed_form(spec: BilateralSeriesSpec) -> complex:
    if spec.p == 1 and spec.q == 1:
        a, b = spec.c[0], spec.d[0]
        if spec.z == -1:
            return closed_form_H(HKind.ONE_H1_MINUS_EXP, {"a": a, "b": b, "t": 0})
        if spec.z == 1:
            return closed_form_H(HKind.ONE_H1_PLUS_EXP, {"a": a, "b": b, "t": 0})
    if spec.p == 2 and spec.q == 2 and spec.z == 1:
        return closed_form_H(HKind.GAUSS_2H2,
                             {"a": spec.c[0], "b": spec.c[1],
                              "c": spec.d[0], "d": spec.d[1]})
    raise ConstraintViolation(
        "no closed form matches this spec (supported: single-pair series at "
        "+-1, equal-pair series at 1)")


def _cmd_eval_psi(args) -> int:
    spec = QSeriesSpec(parse_complex(args.q), parse_complex_list(args.a),
                       parse_complex_list(args.b), parse_complex(args.z))
    sv = eval_psi(spec)
    print(f"value: {format_complex(sv.value)}")
    print(f"est_error: {sv.est_error:.3e}")
    print(f"terms: {sv.terms_used}")
    return 0


def _parse_weight(text: str):
    text = text.strip().lower()
    if text in ("", "none", "1"):
        return ()
    if text.startswith("gm:"):
        return weight_gm(int(text[3:]))
    raise ValueError(f"unknown weight spec {text!r} (use none or gm:<order>)")


def _cmd_integrate(args) -> int:
    a = parse_complex_list(args.a)
    b = parse_complex_list(args.b)
    t = parse_complex(args.t)
    if args.q is not None:
        if _parse_weight(args.weight):
            raise ValueError("--weight applies to classical integrands only (drop --q)")
        w = parse_complex_list(args.w) if args.w else (1.0,) * len(a)
        spec = QIntegrandSpec(parse_complex(args.q), a, b, w, t)
        res = q_integrate(spec)
    else:
        if args.w is not None:
            raise ValueError("--w applies to q integrands only (give --q)")
        if t.imag != 0:
            raise ValueError("classical integrands need real t")
        spec = IntegrandSpec(a, b, t.real, _parse_weight(args.weight))
        res = integrate(spec)
    print(f"value: {format_complex(res.value)}")
    print(f"est_error: {res.est_error:.3e}")
    print(f"panels: {res.panels}")
    print(f"truncation_X: {res.truncation_X:.2f}")
    return 0


def _cmd_verify(args) -> int:
    try:
        config = SuiteConfig(suite=args.suite, seed=args.seed,
                             draws_per_identity=args.draws,
                             format=args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(config)
    if not args.quiet:
        for rec in report.records:
            mark = "PASS" if rec.passed else "FAIL"
            print(f"{mark} {rec.identity_id}: rel_gap={rec.rel_gap:.3e} "
                  f"abs_gap={rec.abs_gap:.3e} ({rec.runtime_ms:.0f} ms)")
        print(f"summary: {report.passed}/{report.total} passed, "
              f"max rel gap {report.max_rel_gap:.3e} (nonzero targets), "
              f"max abs gap {report.max_abs_gap:.3e} (zero targets)")
    if args.out:
        try:
            write_report(report, args.out)
        except OSError as exc:
            print(f"error writing report: {exc}", file=sys.stderr)
            return 4
    elif args.quiet:
        # a CSV report ends in a newline of its own
        print(report_to_text(report).rstrip("\n"))
    return 0 if report.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval-h":
            return _cmd_eval_h(args)
        if args.command == "eval-psi":
            return _cmd_eval_psi(args)
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RBetaError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
