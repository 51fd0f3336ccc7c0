#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

    python3 perfbench/run.py --workload paper-window --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0 --record runs/

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Each workload runs in its own process; its report
is printed, and the last line of standard output is the JSON result of the
(last) workload. `--record DIR` also saves each JSON result as
DIR/<workload>-seed<seed>-trace<t>.json, the layout compare.py reads
(only for runs that exit 0).
Exits non-zero if the build fails or any workload fails or mismatches its
oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-window", "cluster-ingest", "serve-hot"]


def build():
    """Build the release binary; return its path (exits on failure)."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; keep stdout for the report.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, args, workload):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    # A failed run's result line is not a measurement; never record it.
    if args.record and proc.returncode == 0 and lines and lines[-1].startswith("{"):
        os.makedirs(args.record, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.record, name), "w") as f:
            f.write(lines[-1] + "\n")
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", help="directory to save each JSON result in")
    args = p.parse_args()
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failed = [w for w in workloads if run_one(binary, args, w) != 0]
    if failed:
        sys.exit(f"perfbench: failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
