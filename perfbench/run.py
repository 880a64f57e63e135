#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which pulls in the repository's
libraries) under .bench_build/perfbench, runs the benchmark program, and checks
that the metrics it reports are exactly the ones BENCHMARK.json names:
its end_to_end list with --trace 0, its per_layer list with --trace 1.
The last stdout line is the JSON result; nothing is printed as a
result when the build, the run, the output check or the metric check
fails, and the exit code is then non-zero. Trace files go to
.bench_build/perfbench/traces/.

--self-test runs the runner's own unit checks (workload generator
determinism, the percentile rule) and a short run of every workload in
both modes, checking each reports exactly the metrics BENCHMARK.json
names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("long_prompt", "chat_mixed", "encoder_sdf")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serve_engine.hpp")):
        fail("repository sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time: a no-op when nothing changed, and it picks up
    # targets added or renamed since the build directory was made.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def git_provenance():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode:
            return "unknown", "0"
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "0"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (stdout text, parsed result)."""
    sha, dirty = git_provenance()
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", trace_dir, "--git", sha, "--dirty", dirty]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: runner exited with {proc.returncode}", 3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: last output line is not JSON", 3)
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"{workload}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, unit mismatch {units})", 3)
    if not result["correct"] or result["attempted"] < 1:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: output check failed", 3)
    return proc.stdout, result


def self_test():
    build()
    if subprocess.run([RUNNER, "--self-test"], timeout=RUN_TIMEOUT_S).returncode:
        fail("runner self-test failed", 3)
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_workload(workload, 1, 2, trace)
            print(f"ok   {workload} --trace {trace}: reports exactly the "
                  f"{len(result['metrics'])} metrics BENCHMARK.json names, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    print("perfbench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    build()
    out, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
