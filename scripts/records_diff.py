"""Compare this checkout's verification records with those of a git ref.

    python3 scripts/records_diff.py REF

Extracts REF's ``src`` with ``git archive`` into a temporary directory and
runs each tree's suites at seeds 0-3, draws 2 (``rbeta verify --quiet``),
with ``runtime_ms`` zeroed.  For each suite it prints the
summaries and the records that differ in any field but ``runtime_ms``,
with the fields that differ, the largest relative lhs change
over the records with a nonzero ``rhs`` and the largest relative rhs change.
The lhs of a record whose ``rhs`` is 0 is roundoff, so its largest absolute
lhs change is printed on a line of its own.  Over the records with a nonzero
``rhs`` it prints how many lost more than half a digit of agreement,
min(14, -log10 ``rel_gap``), and the worst change of those digits per
identity that lost any.  A suite that only this checkout has is run and
printed as ``new suite S: N records``.  The exit code is 1 on any change of a
verdict, of a record's tolerance or ``inputs``, or of the record ids or their
order, or on a suite of REF that this checkout lacks, else 0; each such
record or suite is printed as a ``CHANGED`` line.  A change of ``inputs``
counts because perfbench matches records to its golden ones on ``inputs``,
so such a record goes unmatched and the run is not ``correct``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
DRAWS = 2


def _suites(src: Path):
    """The suite names of the tree whose package is at src."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from rbeta.verify import SUITE_NAMES; print(*SUITE_NAMES)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    return out.stdout.split()


def _report(src: Path, suite: str, seed: int):
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "rbeta.cli", "verify", "--suite", suite,
         "--seed", str(seed), "--draws", str(DRAWS), "--quiet"],
        env=env, capture_output=True, text=True)
    # exit 1 only says that some record failed
    if out.returncode not in (0, 1):
        raise SystemExit(f"{src}: verify --suite {suite} --seed {seed} "
                         f"exited {out.returncode}\n{out.stderr}")
    report = json.loads(out.stdout)
    for rec in report["records"]:
        rec["runtime_ms"] = 0.0
    return report


# the Infinity and NaN tokens of older reports, as the strings reports write
_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def _text(v) -> str:
    """v as JSON text with inf and nan in the string form."""
    return json.dumps(json.loads(json.dumps(v), parse_constant=_NON_FINITE.get),
                      sort_keys=True)


def _same(old, new) -> bool:
    # compared as JSON text, so that nan equals nan
    return _text(old) == _text(new)


def _change(old, new, relative: bool = True) -> float:
    # float() reads inf and nan in both forms: the strings that reports
    # write, and the floats of older reports' Infinity and NaN tokens
    a = complex(float(old["re"]), float(old["im"]))
    b = complex(float(new["re"]), float(new["im"]))
    if a == b:
        return 0.0
    d = abs(b - a)
    if not math.isfinite(d):
        return math.inf
    return d / abs(a) if relative and a != 0 else d


def _digits(rec) -> float:
    """Agreement digits min(14, -log10 rel_gap) of a record."""
    gap = float(rec["rel_gap"])
    if not math.isfinite(gap):
        return 0.0
    return 14.0 if gap <= 0 else min(14.0, -math.log10(gap))


def _diff_suite(suite: str, old_runs, new_runs) -> bool:
    """Print one suite's differences; True when ids, order, a verdict, a
    tolerance or the inputs changed."""
    changed = []
    summaries = []
    broken = []
    lhs_max = rhs_max = zero_lhs_max = 0.0
    total = 0
    digit_change = {}
    lost = 0
    for seed, old_report, new_report in zip(SEEDS, old_runs, new_runs):
        if not _same(old_report["summary"], new_report["summary"]):
            summaries.append(seed)
        old, new = old_report["records"], new_report["records"]
        if [r["identity_id"] for r in old] != [r["identity_id"] for r in new]:
            broken.append(f"seed {seed}: record ids or order differ")
            continue
        total += len(new)
        for i, (ro, rn) in enumerate(zip(old, new)):
            zero_target = ro["rhs"] == {"re": 0.0, "im": 0.0}
            if not zero_target:
                d = _digits(rn) - _digits(ro)
                iid = rn["identity_id"]
                digit_change[iid] = min(digit_change.get(iid, d), d)
                lost += d < -0.5
            fields = [k for k in sorted(ro.keys() | rn.keys())
                      if not _same(ro.get(k), rn.get(k))]
            if not fields:
                continue
            where = f"{rn['identity_id']} (seed {seed}, record {i})"
            changed.append(f"{where}: {', '.join(fields)}")
            if ro["pass"] != rn["pass"]:
                broken.append(f"verdict {ro['pass']} -> {rn['pass']}: {where}")
            if not _same(ro["tol"], rn["tol"]):
                broken.append(f"tol {ro['tol']} -> {rn['tol']}: {where}")
            if not _same(ro["inputs"], rn["inputs"]):
                broken.append(f"inputs: {where}")
            if zero_target:
                zero_lhs_max = max(zero_lhs_max, _change(
                    ro["lhs"], rn["lhs"], relative=False))
            else:
                lhs_max = max(lhs_max, _change(ro["lhs"], rn["lhs"]))
            rhs_max = max(rhs_max, _change(ro["rhs"], rn["rhs"]))
    print(f"{suite}: {total} records, {len(changed)} differ, "
          f"{len(summaries)} of {len(old_runs)} summaries differ, "
          f"max rel lhs change {lhs_max:.3g} (nonzero rhs), "
          f"max rel rhs change {rhs_max:.3g}")
    print(f"  zero-rhs records: max abs lhs change {zero_lhs_max:.3g}")
    print(f"  agreement digits min(14, -log10 rel_gap): {lost} records lost "
          f"more than 0.5; worst change per identity that lost any:")
    for iid, d in digit_change.items():
        if d < 0:
            print(f"    {iid}: {d:+.3f}")
    for seed in summaries:
        print(f"  differs: summary (seed {seed})")
    for where in changed:
        print(f"  differs: {where}")
    for what in broken:
        print(f"  CHANGED {what}")
    return bool(broken)


def _compare(old_src: Path, new_src: Path) -> bool:
    """Run and diff the suites of the trees at old_src (REF) and new_src;
    True when a suite of REF is missing here or _diff_suite finds a change.
    A suite that only this tree has is run and counted, not compared."""
    old_suites, new_suites = _suites(old_src), _suites(new_src)
    common = [s for s in new_suites if s in old_suites]
    added = [s for s in new_suites if s not in old_suites]
    jobs = ([(old_src, suite, seed) for suite in common for seed in SEEDS]
            + [(new_src, suite, seed) for suite in new_suites
               for seed in SEEDS])
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(jobs, pool.map(lambda job: _report(*job), jobs)))
    bad = False
    for suite in common:
        bad |= _diff_suite(suite, [runs[old_src, suite, s] for s in SEEDS],
                           [runs[new_src, suite, s] for s in SEEDS])
    for suite in added:
        n = sum(len(runs[new_src, suite, s]["records"]) for s in SEEDS)
        print(f"new suite {suite}: {n} records")
    for suite in old_suites:
        if suite not in new_suites:
            print(f"CHANGED suite {suite}: missing from this tree")
            bad = True
    return bad


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", argv[0], "src"],
            capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        return 1 if _compare(Path(tmp) / "src", ROOT / "src") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
