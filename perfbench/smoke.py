"""Smoke test of the benchmark itself: a seconds-long run of each workload.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, runs run.py with --trace 0 and
--trace 1 and asserts that the last line is the result object, that it
names every end-to-end (or per-layer) metric with its unit, and that
nothing failed (failed_frac == 0).  Then checks that run.py refuses to
produce a result in a directory holding only BENCHMARK.json and
perfbench/.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond: bool, message: str) -> None:
    if not cond:
        print("smoke: FAIL " + message)
        sys.exit(1)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where}: metric names or units differ: "
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()), f"{where}: non-numeric value")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            check(result["failed"] == 0 and result["correct"],
                  f"{where}: failed_frac {result['failed'] / result['attempted']}\n"
                  + proc.stdout)
            print(f"smoke: {where}: {result['attempted']} ops, "
                  f"{len(want)} metrics, failed_frac 0")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0, "run.py exited 0 without the package source")
    check(not last[0].startswith("{"), "run.py printed a result without the package source")
    print(f"smoke: without src/ run.py exits {proc.returncode} and prints no result")
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
