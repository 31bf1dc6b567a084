#!/usr/bin/env python3
"""Builds and runs the simulator's host-time benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last line of standard output is the JSON
      summary {"correct", "attempted", "failed", "metrics"}.
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]
      Every workload in turn, end-to-end metrics printed by name and unit;
      exits nonzero when any correctness gate failed.
  python3 perfbench/run.py --selftest
      Short runs of every workload: gates, seeds, metric names and units,
      span nesting.
  python3 perfbench/run.py --compare SET [SET]
      Median and quartiles of result documents (.bench_out/*.json); refuses
      sets measured on different builds or hosts.

The repository's own build (the top-level CMakeLists.txt, default settings)
is configured into $CARGO_TARGET_DIR/neve (default .bench_build/neve) with
perfbench/ added to it, and only the benchmark and the src/ libraries it
links are built. Results and span logs go to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_tables", "fuzz_campaign", "smp_ipi", "migrate_chaos"]
BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 900


def run_timeout(seconds):
    """Wall-time limit of one run: set-up, the measured loop and, traced, the
    per-layer probes."""
    return 120 + 2 * seconds


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    build_root = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_dir = os.path.join(build_root, "neve")
    jobs = str(min(4, os.cpu_count() or 1))
    hook = os.path.join(HERE, "add_to_build.cmake")
    steps = [["cmake", "-S", ROOT, "-B", build_dir,
              "-DCMAKE_PROJECT_neve_INCLUDE=" + hook],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run(argv, timeout):
    """Runs the benchmark binary with its stdout passed through."""
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="SET")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.compare):
        parser.error("one of --workload, --selftest, --compare is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    common = ["--root", ROOT, "--out", os.path.join(ROOT, ".bench_out")]
    if args.selftest:
        return run([binary, "--selftest", "--root", ROOT], SELFTEST_TIMEOUT_S)
    if args.compare:
        return run([binary, "--compare"] + args.compare, run_timeout(0))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        rc = run([binary, "--workload", workload, "--seed", str(args.seed),
                  "--seconds", f"{args.seconds:g}", "--trace", args.trace] +
                 common, run_timeout(args.seconds))
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
