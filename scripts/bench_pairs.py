"""Compare this checkout with a git ref on one perfbench workload, in pairs.

    python3 scripts/bench_pairs.py REF --workload classical --pairs 10 --seed 20

Copies REF (``git archive``) and this checkout's working tree (the files
``git ls-files`` lists, tracked or untracked but not ignored) into fresh
temporary directories, so both sides start from equal bytecode caches.
Pair i runs ``perfbench/run.py --workload W --seed SEED+i --trace 0`` once
on each side, one run at a time, the parent first on even i and the change
first on odd i.  For each end-to-end metric of ``BENCHMARK.json`` it prints
each pair's ratio change/parent, each side's median and quartiles, and how
many pairs the change won (ties count for neither).  A gain is claimable
when the change wins at least nine tenths of the pairs and the medians
differ, in the metric's better direction, by more than the parent's
interquartile range.  After the pairs each side runs once more with
``--trace 1`` at SEED: the tracer wraps the library's functions and the
callbacks handed between them, so a result that depends on the unwrapped
objects shows up as a traced run that is not ``correct``.  Every run's ``correct`` flag is printed with it; the exit code is 1 if any run,
traced or not, was not ``correct``, else 0.  ``--out FILE`` writes the runs,
the traced flags and the summary as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def summarize(parent: Sequence[float], change: Sequence[float],
              better: str) -> Dict:
    """Pairwise summary of one metric: parent[i] and change[i] are pair i's
    values, ``better`` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, nonempty lists of paired values")
    sign = 1.0 if better == "higher" else -1.0
    ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    out = {"pairs": len(parent), "ratios": ratios, "change_wins": wins}
    for side, vals in (("parent", parent), ("change", change)):
        q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                       if len(vals) > 1 else (vals[0],) * 3)
        out.update({f"{side}_median": med, f"{side}_q1": q1, f"{side}_q3": q3})
    out["parent_iqr"] = out["parent_q3"] - out["parent_q1"]
    out["median_ratio"] = (out["change_median"] / out["parent_median"]
                           if out["parent_median"] else float("nan"))
    out["gain"] = (wins >= 0.9 * len(parent)
                   and sign * (out["change_median"] - out["parent_median"])
                   > out["parent_iqr"])
    return out


def _copy_ref(ref: str, dst: Path) -> None:
    data = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dst)


def _copy_worktree(dst: Path) -> None:
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, names.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst / name)


def _run(tree: Path, workload: str, seed: int, seconds: int,
         trace: int = 0) -> Dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py --seed {seed} --trace {trace} "
                         f"exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _value(result: Dict, name: str) -> float:
    m = result["metrics"][name]
    return m["value"] if isinstance(m, dict) else m


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--out", type=Path, help="write runs and summary as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        _copy_ref(args.ref, trees["parent"])
        _copy_worktree(trees["change"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                res = _run(trees[side], args.workload, seed,
                           spec["run_seconds"])
                pair[side] = res
                runs.append({"side": side, "seed": seed,
                             "correct": res.get("correct"),
                             "metrics": {n: _value(res, n) for n, _ in metrics}})
            print(f"pair {i} seed {seed}: "
                  + " ".join(f"{n} {_value(pair['change'], n) / _value(pair['parent'], n):.3f}"
                             if _value(pair["parent"], n) else f"{n} -"
                             for n, _ in metrics)
                  + f"  correct parent={pair['parent'].get('correct')}"
                  f" change={pair['change'].get('correct')}", flush=True)
        traced = {side: _run(trees[side], args.workload, args.seed,
                             spec["run_seconds"], trace=1).get("correct")
                  for side in ("parent", "change")}
        print(f"traced seed {args.seed}: correct parent={traced['parent']}"
              f" change={traced['change']}", flush=True)

    summary = {}
    for name, better in metrics:
        vals = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                for side in ("parent", "change")}
        s = summary[name] = summarize(vals["parent"], vals["change"], better)
        print(f"{name} ({better} is better): parent median {s['parent_median']:.4g}"
              f" [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}], change median "
              f"{s['change_median']:.4g} [{s['change_q1']:.4g}, {s['change_q3']:.4g}],"
              f" ratio {s['median_ratio']:.3f}, change wins {s['change_wins']} of "
              f"{s['pairs']}, gain {'yes' if s['gain'] else 'no'}")
    if args.out:
        args.out.write_text(json.dumps({"ref": args.ref, "workload": args.workload,
                                        "runs": runs, "traced_correct": traced,
                                        "summary": summary},
                                       indent=1) + "\n", encoding="utf-8")
    ok = all(r["correct"] for r in runs) and all(traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
