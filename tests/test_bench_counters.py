"""The benchmark's exact counters for seed 1, in process.

Runs the counter window (the first cycle) of verify_battery and
roundtrip from `perfbench/workloads.py` alone, without the timed loop,
and pins the counters a benchmark run must repeat: a change that moves
a verdict, a skipped-instance count or a round-trip artifact fails here,
not only in the benchmark.
"""


def _window_counters(workload):
    """Whole cycles until the window is done, as the benchmark runs them."""
    workload.setup()
    i = cycle = 0
    while i < workload.window:
        for kind, key, call in workload.ops(cycle):
            workload.record(i, kind, key, call())
            i += 1
        cycle += 1
    return workload.counters()


def test_verify_battery_counters_seed_1(workloads):
    counters = _window_counters(workloads.VerifyBattery(1))
    assert counters["operators.instances_checked"] == 16332704
    assert counters["operators.instances_skipped"] == 1961160
    assert counters["window_ops"] == 12


def test_roundtrip_counters_seed_1(workloads):
    counters = _window_counters(workloads.Roundtrip(1))
    assert counters["synthesis.artifact_digest"] == "7936ed783da6eb8f"
    assert counters["synthesis.artifact_bytes"] == 3194852
    assert counters["window_ops"] == 25
