#!/usr/bin/env python3
"""Build the `tfd` CLI and the benchmark from source, then run the benchmark.

    python3 perfbench/run.py --workload jsonl-events --seed 1 --seconds 30 --trace 0

Run from the root of the repository. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`); the benchmark's own files go to `.perfbench_work`.
All other arguments are passed to the benchmark binary; see README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target

    builds = [
        # The CLI and daemon under test, from the repository's workspace.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "tfd-cli", "--bin", "tfd"],
        # The benchmark, a package of its own.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--tfd", os.path.join(release, "tfd")]
    return subprocess.run(cmd + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
