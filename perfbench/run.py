"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload revise_serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (perfbench/worker.py) with numpy/BLAS threads pinned to 1.  With
--trace 0 the last line of output is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with --trace 1 the worker installs
timing wrappers on the package and the JSON carries the per-layer metrics,
and the spans are written to perfbench/out/.

Times are CPU times of the single-threaded worker: on a shared virtual
machine the wall clock also counts time the host takes the CPU away,
which swings far more than the program does.  setup_s is the median over
three fresh processes of the CPU time from process start to the first
timed operation: two that only set up, and the measured worker itself.

Exits 2 without a result when the package source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("revise_serve", "verify_battery", "roundtrip")
SETUP_ONLY_PROCESSES = 2
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Start a worker; return its CPU seconds and wall seconds up to "ready",
    and its RESULT line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    ready_s, cpu_s, result = None, 0.0, ""
    try:
        for line in proc.stdout:
            if line.startswith("ready ") and ready_s is None:
                ready_s = perf_counter() - t0
                cpu_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = line[len("RESULT "):]
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return cpu_s, ready_s, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "choicerev", "__init__.py")):
        print("perfbench: src/choicerev is missing from this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups, walls = [], []
        if not args.trace:
            for _ in range(SETUP_ONLY_PROCESSES):
                cpu_s, wall_s, _ = run_worker(common + ["--setup-only"], deadline)
                setups.append(cpu_s)
                walls.append(wall_s)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cpu_s, wall_s, line = run_worker(common + extra, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(cpu_s)
    walls.append(wall_s)
    res = json.loads(line)

    attempted, failed = res["attempted"], res["failed"]
    values = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"layers {', '.join(res['layers'])}")
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6f}")
    print(f"  op_p50_ms over {attempted} samples; op_tail_ms is "
          f"p{round(res['tail_q'] * 100)} with {res['beyond_tail']} samples beyond it")
    print(f"  setup cpu s: {', '.join(f'{s:.3f}' for s in setups)}  wall s: "
          f"{', '.join(f'{s:.3f}' for s in walls)}  warmup_s {res['warmup_s']:.3f}")
    print(f"  loop wall {res['loop_wall_s']:.2f} s, busy cpu {res['loop_busy_s']:.2f} s")
    if args.trace:
        print(f"  spans kept {res['spans_kept']} dropped {res['spans_dropped']} "
              f"in {res['trace_file']}")
    for kind, st in res["per_kind"].items():
        print(f"  kind {kind:<16} n {st['n']:>8}  p25 {st['p25_ms']:.4f}  "
              f"p50 {st['p50_ms']:.4f}  p75 {st['p75_ms']:.4f} ms")
    print("  counters " + json.dumps(res["counters"], sort_keys=True))
    print("  env " + json.dumps(res["env"], sort_keys=True))
    for err in res["errors"] + res["oracle_failures"]:
        print("  FAIL " + err.rstrip().replace("\n", "\n       "))
    for name, m in metrics.items():
        print(f"  {name:<62} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
