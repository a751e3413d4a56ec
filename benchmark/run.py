#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

W is one of paper-table2, torus-hotspot-replay, campaign-remote. The
script builds the benchmark crate in release mode (into $CARGO_TARGET_DIR,
default .bench_build/), runs it in a fresh process with a fresh work
directory under .bench_work/, prints a provenance line and the binary's
output, and ends with the result object as the last line of standard
output. Any build or run failure exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-table2", "torus-hotspot-replay", "campaign-remote")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    """Standard output of `cmd` run in the repository root, or None."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args):
    rev = capture(["git", "rev-parse", "HEAD"])
    status = capture(["git", "status", "--porcelain"]) if rev else None
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": bool(status) if rev else None,
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in (manifest, os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"missing {os.path.relpath(needed, ROOT)}: run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target_dir, "release", "nbti-noc-benchmark")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    if done.returncode != 0:
        fail(f"run failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result object: {lines[-1]}")

    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
