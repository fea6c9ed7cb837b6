#!/usr/bin/env python3
"""Self-check for the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that
  * a --trace 0 run prints every end-to-end metric BENCHMARK.json names, with
    its unit, as a finite number, and passes its correctness gate;
  * a --trace 1 run does the same for every per-layer metric (its traced
    repetitions must decide exactly as its untraced ones, or the gate fails);
  * a run whose correctness check fails (--inject-fault: a tripped runtime
    monitor on the serve workloads, a drifting repetition on paper_grid) is
    reported as failed -- "correct": false, failed > 0, no metrics, a
    non-zero exit -- and not as a number.
Exits non-zero on the first violated expectation.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, inject_fault=False):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny"]
    if inject_fault:
        command.append("--inject-fault")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            assert code == 0 and result["correct"], f"{label}: exit {code}, {result}"
            assert result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}"
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), \
                f"{label}: metrics {sorted(set(metrics) ^ set(declared[trace]))} differ"
            for name, unit in declared[trace].items():
                value = metrics[name]["value"]
                assert metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]}"
                assert isinstance(value, (int, float)) and math.isfinite(value), \
                    f"{label}: {name} = {value!r}"
                if trace == 0:
                    assert value > 0, f"{label}: {name} = {value}"
            print(f"ok   {label}: {len(metrics)} metrics, {result['attempted']} decisions")

        code, result = run(workload, 0, inject_fault=True)
        assert code != 0, f"{workload} injected fault: exit 0"
        assert not result["correct"] and result["failed"] >= 1 and not result["metrics"], \
            f"{workload} injected fault reported as {result}"
        print(f"ok   {workload} --inject-fault: reported failed "
              f"({result['failed']} of {result['attempted']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"selftest FAILED: {error}", file=sys.stderr)
        sys.exit(1)
