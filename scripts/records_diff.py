"""Compare this checkout's verification records with those of a git ref.

    python3 scripts/records_diff.py REF

Extracts REF's ``src`` with ``git archive`` into a temporary directory and
runs every suite at seeds 0-3, draws 2 on both trees (``rbeta verify
--quiet``), with ``runtime_ms`` zeroed.  For each suite it prints the
summaries and the records that differ in any field but ``runtime_ms``,
with the fields that differ, the largest relative lhs change
over the records with a nonzero ``rhs`` and the largest relative rhs change.
The lhs of a record whose ``rhs`` is 0 is roundoff, so its largest absolute
lhs change is printed on a line of its own.  Over the records with a nonzero
``rhs`` it prints how many lost more than half a digit of agreement,
min(14, -log10 ``rel_gap``), and the worst change of those digits per
identity that lost any.  The exit code is 1 on any change of a verdict, of a
record's tolerance or ``inputs``, or of the record ids or their order, else 0;
each such record is printed as a ``CHANGED`` line.  A change of ``inputs``
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


def _suites():
    sys.path.insert(0, str(ROOT / "src"))
    from rbeta.verify import SUITE_NAMES
    return SUITE_NAMES


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


def _same(old, new) -> bool:
    # compared as JSON text, so that nan equals nan
    return json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True)


def _change(old, new, relative: bool = True) -> float:
    a = complex(old["re"], old["im"])
    b = complex(new["re"], new["im"])
    if a == b:
        return 0.0
    d = abs(b - a)
    if not math.isfinite(d):
        return math.inf
    return d / abs(a) if relative and a != 0 else d


def _digits(rec) -> float:
    """Agreement digits min(14, -log10 rel_gap) of a record."""
    gap = rec["rel_gap"]
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


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    suites = _suites()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = (Path(tmp) / "src", ROOT / "src")
        jobs = [(tree, suite, seed) for tree in trees for suite in suites
                for seed in SEEDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(lambda job: _report(*job), jobs))
    per_tree = len(suites) * len(SEEDS)
    bad = False
    for k, suite in enumerate(suites):
        span = slice(k * len(SEEDS), (k + 1) * len(SEEDS))
        bad |= _diff_suite(suite, runs[:per_tree][span], runs[per_tree:][span])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
