"""rbeta benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classical --seed 3 --seconds 45 --trace 0

Run from the root of a checkout that holds ``src/rbeta``.  Each run starts
fresh interpreters pinned to one thread (RB_THREADS and the BLAS/OpenMP
thread counts set to 1):

* ``setup_s`` is the median wall time of several fresh interpreters that
  import rbeta and build the workload's inputs, after one untimed start that
  fills the bytecode cache;
* ``--trace 0`` runs the workload's batches once, untraced, and reports the
  end-to-end metrics; ``--trace 1`` runs the first half of them once
  untraced and once traced and reports the per-layer metrics.

The work is fixed by the seed; ``--seconds`` is the time it was sized to
take, and a run whose workload takes more than TIME_LIMIT_FACTOR times that
(or would end past HARD_LIMIT_S) is stopped and reported as too slow.

Human-readable lines come first; the last line is the JSON result.  The
exit code is 0 only when a result was produced; it is 3 for a run stopped
as too slow.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_STARTS = 7
HARD_LIMIT_S = 170.0
TIME_LIMIT_FACTOR = 3.5


class TooSlow(Exception):
    pass


def load_spec():
    """Workload names and metric units, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_env():
    env = dict(os.environ)
    for var in ("RB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, env, deadline, limit=HARD_LIMIT_S):
    """Run the worker; raises TooSlow once it runs past ``limit`` seconds or
    the run's deadline (the worker is then killed and waited for)."""
    timeout = max(1.0, min(limit, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise TooSlow(f"worker {' '.join(args)} stopped after "
                      f"{timeout:.1f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(common, env, deadline):
    run_worker(common + ["--setup-only"], env, deadline)
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        run_worker(common + ["--setup-only"], env, deadline)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description="rbeta benchmark run")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rbeta" / "__init__.py").is_file():
        print(f"no rbeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "cpu": cpu_model(), "loadavg_start": list(os.getloadavg())}
    env = pinned_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")

    setup_s = None
    try:
        if not args.trace:
            setup_s = measure_setup(common, env, deadline)
        res = run_worker(common + ["--trace", str(args.trace)], env, deadline,
                         TIME_LIMIT_FACTOR * args.seconds)
    except TooSlow as exc:
        print(f"too slow: {exc}; the workload is sized to take about "
              f"{args.seconds} s", file=sys.stderr)
        return 3
    stamp.update(res["stamp"])
    print("stamp " + json.dumps(stamp, sort_keys=True))

    attempted, failed = res["attempted"], res["failed"]
    gold = res["golden"]
    print(f"records: attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.4g} fraction), failing verdicts "
          f"{res['record_failures']} {res['failing_ids']}")
    if gold["golden"]:
        print(f"golden (input set {res['input_set']}): "
              f"{gold['verdict_changes']} verdict changes, "
              f"{gold['unmatched']} unmatched records, "
              f"{gold['golden_failing']} failing in the golden, "
              f"max relative lhs drift {gold['max_lhs_drift']:.3g}")
    else:
        print(f"golden: none stored for input set {res['input_set']}")

    if args.trace:
        print(f"traced records bit-identical to untraced: {res['identical']}")
        print("trace " + json.dumps(res["trace"], sort_keys=True))
        listed, values = spec["per_layer"], res["metrics"]
        samples = {}
    else:
        print(f"workload wall time {res['wall_s']:.2f} s")
        listed = spec["end_to_end"]
        values = dict(res["metrics"], setup_s=setup_s)
        samples = dict(res["samples"], setup_s=SETUP_STARTS)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    for name, m in metrics.items():
        count = f" ({samples[name]} samples)" if name in samples else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{count}")

    correct = bool(gold["golden"] and gold["verdict_changes"] == 0
                   and gold["unmatched"] == 0
                   and failed <= gold["golden_failing"]
                   and res.get("identical", True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
