"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

Prints one JSON object as its last line.  Modes:
  --setup-only    import rbeta, build the inputs, exit (timed from outside)
  --trace 0       one pass over the inputs
  --trace 1       the first half of the inputs, untraced and then traced
  --write-golden  run one pass and store its records as the input set's golden
  --classify N    largest q-beta truncation X of suite seeds 1000*seed + j, j < N
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"


def _import_rbeta():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rbeta
    if Path(rbeta.__file__).resolve().parent != (SRC / "rbeta").resolve():
        sys.exit(f"rbeta imported from {rbeta.__file__}, not from {SRC}")
    return rbeta


def run_pass(batches, run_batch):
    """Run every batch once; returns (records, per-batch timings)."""
    records, timings = [], []
    for b in batches:
        recs, tm = run_batch(b)
        tm["records"] = len(recs)
        records.extend(recs)
        timings.append(tm)
    return records, timings


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics.  Records differ in cost by three decades, so a
    single order statistic near a gap between cost clusters jumps with the
    draws; the weighted average does not."""
    from scipy.special import betainc  # here, so --setup-only skips it
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        return math.nan
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    w = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(w @ xs)


def agree_digits(records):
    """-log10(rel_gap) capped at 16, over records with a nonzero rhs."""
    out = []
    for r in records:
        if complex(r.rhs) == 0:
            continue
        gap = r.rel_gap
        out.append(16.0 if gap <= 1e-16 else max(0.0, -math.log10(gap)))
    return out


# -- golden records -------------------------------------------------------------

def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.jsonl.gz"


def _read_golden(workload):
    path = golden_path(workload)
    if not path.exists():
        return []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def load_golden(workload, input_set):
    """The input set's golden records, or None if none are stored."""
    records = [r for r in _read_golden(workload) if r["input_set"] == input_set]
    return records or None


def write_golden(workload, input_set, batches, W):
    """Run one pass and store its records as the input set's golden."""
    kept = [r for r in _read_golden(workload) if r["input_set"] != input_set]
    fields = ("identity_id", "inputs", "lhs", "rhs", "pass")
    new = []
    for b in batches:
        for rec in W.run_batch(b)[0]:
            k = W.record_key(rec)
            new.append({"input_set": input_set, "batch": b.suite_seed,
                        **{f: k[f] for f in fields}})
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in
                    sorted(kept + new, key=lambda r: r["input_set"]))
    buf = io.BytesIO()
    # mtime 0 and no file name: the same records give the same bytes
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
        gz.write(lines.encode("utf-8"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    tmp = golden_path(workload).with_suffix(".tmp")
    tmp.write_bytes(buf.getvalue())
    tmp.replace(golden_path(workload))
    return len(new)


def compare_golden(keys, golden):
    """Verdict changes, unmatched records, the golden's own failing verdicts
    and the largest relative lhs drift over nonzero golden lhs values."""
    if golden is None:
        return {"golden": False, "verdict_changes": 0, "unmatched": len(keys),
                "golden_failing": 0, "max_lhs_drift": 0.0,
                "changed": set(range(len(keys)))}
    by_key = {}
    for g in golden:
        by_key[(g["identity_id"], json.dumps(g["inputs"], sort_keys=True))] = g
    changes, unmatched, drift, changed = 0, 0, 0.0, set()
    for i, k in enumerate(keys):
        g = by_key.get((k["identity_id"], json.dumps(k["inputs"], sort_keys=True)))
        if g is None:
            unmatched += 1
            changed.add(i)
            continue
        if g["pass"] != k["pass"]:
            changes += 1
            changed.add(i)
        glhs = complex(g["lhs"]["re"], g["lhs"]["im"])
        lhs = complex(k["lhs"]["re"], k["lhs"]["im"])
        if glhs != 0 and math.isfinite(abs(glhs)):
            drift = max(drift, abs(lhs - glhs) / abs(glhs))
    unmatched += max(0, len(golden) - len(keys))
    return {"golden": True, "verdict_changes": changes, "unmatched": unmatched,
            "golden_failing": sum(1 for g in golden if not g["pass"]),
            "max_lhs_drift": drift, "changed": changed}


# -- modes ----------------------------------------------------------------------

def untraced(batches, W):
    """One pass over the inputs and the end-to-end metrics."""
    records, timings = run_pass(batches, W.run_batch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sum(t["wall_s"] for t in timings)
    ms = [r.runtime_ms for r in records]
    digits = agree_digits(records)
    metrics = {
        "records_per_s": len(records) / wall,
        "record_ms_p50": hd_quantile(ms, 0.5),
        "record_ms_p90": hd_quantile(ms, 0.9),
        "agree_digits_p10": hd_quantile(digits, 0.1),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"records_per_s": len(records), "record_ms_p50": len(ms),
               "record_ms_p90": len(ms), "agree_digits_p10": len(digits),
               "peak_rss_mb": 1}
    return records, metrics, samples, wall


def traced(batches, W):
    """An untraced reference pass, then a traced pass of the same inputs;
    returns the reference records, whether the traced ones are
    bit-identical, and the per-layer metrics."""
    import layertrace
    ref_records, ref_timings = run_pass(batches, W.run_batch)
    tracer = layertrace.Tracer(extra_modules=(W,))
    tracer.install()
    try:
        tr_records, tr_timings = run_pass(batches, W.run_batch)
    finally:
        tracer.uninstall()
    identical = ([W.record_key(r) for r in tr_records]
                 == [W.record_key(r) for r in ref_records])
    metrics = tracer.metrics()
    wall = sum(t["wall_s"] for t in ref_timings)
    metrics["verify.records"] = float(len(ref_records))
    metrics["verify.overhead_s"] = wall - sum(t["record_s"] for t in ref_timings)
    metrics["verify.serialize_s"] = sum(t["serialize_s"] for t in ref_timings)
    metrics["trace.overhead_frac"] = sum(t["wall_s"] for t in tr_timings) / wall - 1.0
    extra = {"spans": len(tracer.spans), "bindings": tracer.bindings,
             "batches": len(batches), "computed": list(layertrace.COMPUTED)}
    return ref_records, identical, metrics, extra


def classify(W, workload, seed, count):
    spec = W.WORKLOADS[workload]
    for j in range(count):
        batch = W.Batch(1000 * seed + j, spec["suites"], spec["draws"])
        t0 = time.perf_counter()
        x = W.qbeta_truncation_X(batch)
        print(json.dumps({"suite_seed": batch.suite_seed, "qbeta_truncation_X": x,
                          "wall_s": time.perf_counter() - t0}), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--classify", type=int, metavar="N")
    args = ap.parse_args(argv)

    rbeta = _import_rbeta()
    import workloads as W
    if args.workload not in W.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    if args.classify is not None:
        classify(W, args.workload, args.seed, args.classify)
        return 0
    batches = W.build_batches(args.workload, args.seed)
    input_set = args.seed % W.INPUT_SETS
    if args.setup_only:
        print(json.dumps({"batches": len(batches)}))
        return 0

    if args.write_golden:
        written = write_golden(args.workload, input_set, batches, W)
        print(json.dumps({"written": written, "input_set": input_set}))
        return 0

    out = {"stamp": {"rbeta": rbeta.__version__, "numpy": np.__version__},
           "input_set": input_set}
    golden = load_golden(args.workload, input_set)
    if args.trace:
        batches = batches[:(len(batches) + 1) // 2]
        records, identical, metrics, extra = traced(batches, W)
        if golden is not None:
            seeds = {b.suite_seed for b in batches}
            golden = [g for g in golden if g["batch"] in seeds]
        out.update(metrics=metrics, trace=extra, identical=identical)
    else:
        records, metrics, samples, wall = untraced(batches, W)
        out.update(metrics=metrics, samples=samples, wall_s=wall)
    keys = [W.record_key(r) for r in records]
    gold = compare_golden(keys, golden)
    failed = sum(1 for i, r in enumerate(records)
                 if not r.passed or i in gold["changed"])
    out.update(
        attempted=len(records), failed=failed,
        record_failures=sum(1 for r in records if not r.passed),
        failing_ids=sorted({r.identity_id for r in records if not r.passed}),
        golden={k: v for k, v in gold.items() if k != "changed"})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
