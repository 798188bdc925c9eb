#!/usr/bin/env python3
"""Builds the USEP benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-fig4|serve-city|delta-session \
        --seed N --seconds S --trace 0|1

The benchmark binary is built with `cargo build --release --offline`
into `$CARGO_TARGET_DIR` (default `.bench_build`). Journals go to a
scratch directory under `.bench_work/` that is removed afterwards. The
last line of standard output is the result line; everything the build
prints goes to standard error. Exits non-zero, without a result line,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("solve-fig4", "serve-city", "delta-session")


def filesystem(path):
    """Names the filesystem holding `path`."""
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = subprocess.run(
            [
                os.path.join(target, "release", "usep-perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work-dir", work,
                "--journal-fs", filesystem(work),
            ],
            cwd=ROOT,
            env=env,
            timeout=170,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
