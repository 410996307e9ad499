#!/usr/bin/env python3
"""Builds modpeg's benchmark and the `modpeg` CLI from source, then runs
one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both binaries are built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root). The benchmark's last
line of standard output is its JSON result; the exit code is the
benchmark's, or 1 when a build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "modpeg-cli"],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last line
        # of standard output.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "modpeg-perfbench"), *sys.argv[1:],
           "--cli", os.path.join(release, "modpeg"), "--root", ROOT]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
