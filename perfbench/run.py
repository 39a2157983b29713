#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload place_btc_k16 --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (which pulls in the library from the
repository root) in .bench_build/perfbench, then runs the driver on one
workload. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The exit code is the driver's, or 1 when the build
fails. --out PATH also writes every metric's repetition statistics and the
host record as JSON. See perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["place_btc_k16", "replay_optx_k64", "sim_omniledger_k16",
             "sim_wan_churn_k16"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure and build the driver; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Serializes builds of concurrent runs in one checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for command in (
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "perfbench_driver",
                 "-j", jobs]):
            subprocess.run(command, stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    command = [driver, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--workdir={workdir}"]
    if args.out:
        command.append(f"--out={os.path.abspath(args.out)}")
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
