#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); scratch data and traces go to `.perfbench-out`.
The benchmark's stdout (whose last line is the JSON result) passes
through unchanged; build output goes to stderr. Exits non-zero, printing
no result, if either build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: `{' '.join(cmd)}` failed with code {done.returncode}")


def main():
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    # The shipped server, built the way the workspace ships it.
    build(["-p", "betalike-server", "--bin", "betalike-serve"], target)
    # The benchmark, a package of its own next to this script.
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "betalike-perfbench"),
        "--serve-bin",
        os.path.join(release, "betalike-serve"),
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
