#!/usr/bin/env python3
"""Builds the whole-campaign benchmark from source and runs it once.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: soc_hunt and baseline_matrix, the set listed in BENCHMARK.json;
cva6_deep and fabric_solve also run by name (src/workload.rs says why
they are not in that set).

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository's crates. It is built in release
mode into $CARGO_TARGET_DIR (perfbench/target when unset), then run with
the given arguments. The last line of standard output is the run's JSON
result; build output goes to standard error. A traced run (--trace 1)
also writes its spans to perfbench/out/spans-<workload>.tsv.

--self-test runs the benchmark's own unit tests (percentile rule,
span self-time, failure accounting).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def cargo(env, *args):
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if argv == ["--self-test"]:
        return cargo(env, "test")
    if cargo(env, "build", "--quiet") != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "symbfuzz-perfbench")
    out = os.path.join(HERE, "out")
    return subprocess.run([exe, *argv, "--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
