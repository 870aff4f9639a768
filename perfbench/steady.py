"""Steadiness harness: repeat workloads over seeds and summarize each metric.

    python3 perfbench/steady.py --workloads roundtrip --seeds 1-10 \
        --out perfbench/out/steady-a.json
    python3 perfbench/steady.py --workloads roundtrip --seeds 1-10 \
        --compare perfbench/out/steady-a.json

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the interquartile distance as a share of the median.  A spread above a
third of the metric's bound is flagged as unsteady; setup_s is exempt
from the spread check.  With --compare it also checks that each median is
not worse than the earlier set's by more than the bound, and that every
exact counter is identical seed by seed.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counters = next(json.loads(l.split("counters ", 1)[1]) for l in lines
                    if l.startswith("  counters "))
    return {"seed": seed, "result": result, "counters": counters}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values)}
    return out


def main() -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    spec = bench["end_to_end"]
    before = json.load(open(args.compare)) if args.compare else {}
    record, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds)
            r = run["result"]
            print(f"{workload} seed {seed}: correct {r['correct']} attempted "
                  f"{r['attempted']} failed {r['failed']}  " + "  ".join(
                      f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()),
                  flush=True)
            ok &= r["correct"]
            runs.append(run)
        summary = summarize(runs, spec)
        record[workload] = {"runs": runs, "summary": summary}
        print(f"== {workload}: {len(runs)} runs of {args.seconds} s")
        for m in spec:
            s = summary[m["name"]]
            limit = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or s["spread"] <= limit else "  UNSTEADY"
            ok &= not flag
            line = (f"  {m['name']:<12} median {s['median']:12.4f} {m['unit']:<4} "
                    f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.4f} "
                    f"(bound/3 {limit:.4f}){flag}")
            old = before.get(workload, {}).get("summary", {}).get(m["name"])
            if old:
                change = s["median"] / old["median"] - 1
                worse = change if m["better"] == "lower" else -change
                line += f"  vs earlier {change:+.4f}"
                if worse > m["bound"]:
                    line += "  REGRESSED"
                    ok = False
            print(line)
        if before.get(workload):
            earlier = {r["seed"]: r["counters"] for r in before[workload]["runs"]}
            for run in runs:
                if run["seed"] in earlier and earlier[run["seed"]] != run["counters"]:
                    print(f"  counters differ on seed {run['seed']}: "
                          f"{earlier[run['seed']]} vs {run['counters']}")
                    ok = False
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print("steady: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
