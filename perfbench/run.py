#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload, or all.

    python3 perfbench/run.py --workload <replay|serve-tcp|broker-mt|cold-tier|all>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--inject <below_reserve|tally_mismatch>]

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that builds
the pdm library from the repository root. Build output goes to the directory
named by CARGO_TARGET_DIR (relative paths are taken from the repository root),
or to .bench_build. Build logs go to standard error; standard output is the
benchmark's report, whose last line is the JSON result. The exit code is the
benchmark's: non-zero when a correctness check failed or the build failed.
With --workload all the workloads run one after another and the last line
folds their results together, each metric named "<workload>.<metric>".
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay", "serve-tcp", "broker-mt", "cold-tier"]


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "pdm_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(cmake_dir, "pdm_perfbench")


def commit_id():
    # Only this tree's own repository: git would otherwise search the parent
    # directories and could report an unrelated one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_all(binary, argv, extra):
    """Runs every workload; prints their reports and one folded result line."""
    at = argv.index("all")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        args = argv[:at] + [workload] + argv[at + 1:]
        proc = subprocess.run([binary] + args + extra, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][workload + "." + name] = metric
        code = code or proc.returncode or (0 if result["correct"] else 1)
    print(json.dumps(total))
    return code


def main(argv):
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    extra = ["--work_dir", work_dir, "--commit", commit_id()]
    sys.stdout.flush()
    if "all" in argv:
        return run_all(binary, argv, extra)
    return subprocess.run([binary] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
