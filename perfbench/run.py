#!/usr/bin/env python3
"""Repository benchmark: build the rmwp_perfbench binary, run one workload, check it.

    python3 perfbench/run.py --workload serve_vt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds the
rmwp_perfbench binary (and the rmwp libraries from src/) into .bench_build/perfbench; later
calls only re-run the incremental build.  The workload runs in its own
process.  The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  A run that fails its correctness gate prints
"correct": false with no metrics and exits 1; a build or set-up failure
prints no result and exits 2.  Every run also prints (and stores under
.bench_build/runs/) a raw record: host facts, the seed and every
repetition's values next to the summaries.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rmwp_perfbench"
WORKLOADS = ("serve_vt", "islands_burst", "paper_grid")
# A run must end within 180 s (the first one in a checkout may also build);
# leave room for the incremental build check and reporting.
RUN_TIMEOUT_S = 160.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally.  Returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        step = ["cmake", "--build", str(BUILD), "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "kernel": os.uname().release,
        "python": sys.version.split()[0],
    }


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def gate(record, trace):
    """Return the list of reasons the run is not correct (empty when it is)."""
    problems = list(record.get("failures", []))
    if not record.get("correct"):
        problems.append("rmwp_perfbench reported an incorrect run")
        return problems
    metrics = record.get("metrics", {})
    for name, unit in declared_metrics(trace).items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"metric {name} missing")
        elif metric.get("unit") != unit:
            problems.append(f"metric {name} has unit {metric.get('unit')}, expected {unit}")
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"metric {name} is not a finite number")
    if record.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few hundred decisions per repetition (self-check)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="make the first timed repetition fail its correctness check")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S:.0f} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "attempted": 0, "failures": ["rmwp_perfbench printed no result"]}
    if proc.returncode != 0:
        record.setdefault("failures", []).append(f"rmwp_perfbench exited with {proc.returncode}")
        record["correct"] = False

    problems = gate(record, args.trace)
    correct = not problems
    attempted = max(1, int(record.get("attempted", 0)))
    failed = int(record.get("failed", 0))
    if not correct:
        failed = max(failed, 1)

    record["host"] = host_facts()
    record["gate_problems"] = problems
    runs = ROOT / ".bench_build" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    raw_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(raw_path, "w") as f:
        json.dump(record, f, indent=1)
    print("raw: " + json.dumps(record, separators=(",", ":")))
    for problem in problems:
        log(f"FAILED: {problem}")

    metrics = {}
    if correct:
        declared = declared_metrics(args.trace)
        metrics = {name: {"value": record["metrics"][name]["value"], "unit": unit}
                   for name, unit in declared.items()}
        for name, metric in metrics.items():
            log(f"{args.workload:>13} {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
