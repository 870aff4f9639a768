"""One workload in one fresh process: set up, run the timed loop, check.

Started by run.py, never by hand.  Protocol on standard output:

    ready <cpu_s>        after set-up, just before the first timed operation,
                         with the process's CPU time since it started
    RESULT {...}         the last line, after the oracle

With --setup-only the process exits right after printing "ready"; run.py
uses such processes to take several set-up samples per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from array import array
from time import perf_counter, thread_time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    n = len(sorted_values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def load_choicerev():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import choicerev

    where = os.path.realpath(choicerev.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise ImportError(f"choicerev imported from {where}, not from this checkout")
    return choicerev


def process_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_loop(w, seconds: float, tracer):
    """Closed loop, one client: whole cycles until time is up and the window is done.

    Each operation is timed in the thread's CPU time.  Operations are
    single-threaded and CPU-bound, so this is their latency on an idle
    host; wall-clock time on a shared virtual machine also counts the
    time the host gives the CPU to someone else.  A full garbage collection
    runs before each cycle, outside the timings, so that the garbage the
    benchmark itself makes (inputs, kept results) is not collected inside
    an operation.
    """
    lat = array("d")
    kinds: list[str] = []
    kind_of = array("b")
    failed, errors = 0, []
    root = tracer.name_id(f"{w.name}.op") if tracer else None
    i = cycle = 0
    t_start = perf_counter()
    while True:
        batch = w.ops(cycle)
        gc.collect()
        for kind, key, call in batch:
            if tracer:
                tracer.request = i
                tracer.active = True
            t0 = thread_time()
            try:
                result = tracer.call(root, call, (), {}) if tracer else call()
            except Exception:
                t1 = thread_time()
                result = None
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {i} ({kind}): {traceback.format_exc(limit=3)}")
            else:
                t1 = thread_time()
            if tracer:
                tracer.active = False
            lat.append(t1 - t0)
            if kind not in kinds:
                kinds.append(kind)
            kind_of.append(kinds.index(kind))
            if result is not None:
                w.record(i, kind, key, result)
            i += 1
            if tracer and i == w.window:
                tracer.snapshot()
        cycle += 1
        if perf_counter() - t_start >= seconds and i >= w.window:
            break
    return lat, kinds, kind_of, failed, errors, perf_counter() - t_start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cr = load_choicerev()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    w.setup()
    t0 = thread_time()
    w.warmup()
    warmup_s = thread_time() - t0
    gc.collect()
    gc.freeze()
    print(f"ready {process_cpu_s():.6f}", flush=True)
    if args.setup_only:
        return 0

    lat, kinds, kind_of, failed, errors, wall_s = run_loop(w, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(lat)
    busy = sum(lat)

    oracle_fails = w.oracle()
    counters = w.counters()

    ordered = sorted(lat)
    per_kind = {}
    for k, name in enumerate(kinds):
        vals = sorted(v for v, kk in zip(lat, kind_of) if kk == k)
        per_kind[name] = {"n": len(vals), "p25_ms": quantile(vals, 0.25) * 1e3,
                          "p50_ms": quantile(vals, 0.5) * 1e3,
                          "p75_ms": quantile(vals, 0.75) * 1e3}
    result = {
        "workload": w.name,
        "attempted": attempted,
        "failed": failed + len(oracle_fails),
        "errors": errors,
        "oracle_failures": oracle_fails[:10],
        "oracle_failure_count": len(oracle_fails),
        "ops_per_s": attempted / busy,
        "op_p50_ms": quantile(ordered, 0.5) * 1e3,
        "op_tail_ms": quantile(ordered, w.tail) * 1e3,
        "tail_q": w.tail,
        "beyond_tail": attempted - int(w.tail * attempted),
        "peak_rss_mb": peak_rss_mb,
        "warmup_s": warmup_s,
        "loop_wall_s": wall_s,
        "loop_busy_s": busy,
        "per_kind": per_kind,
        "counters": counters,
        "layers": list(w.layers),
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "choicerev": cr.__version__,
        },
    }
    if tracer:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            per_layer = json.load(fh)["per_layer"]
        extra = {
            "operators.warmup_s": warmup_s,
            "synthesis.artifact_bytes": counters.get("synthesis.artifact_bytes", 0),
            "trace.ops_per_s": attempted / busy,
        }
        result["per_layer"] = tracing.per_layer_metrics(tracer, per_layer, extra)
        result["spans_kept"] = tracer.kept
        result["spans_dropped"] = tracer.dropped
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{w.name}-seed{args.seed}.csv.gz")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
