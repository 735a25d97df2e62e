#!/usr/bin/env python3
"""Build rome-server and the perfbench load generator from source, then run
one benchmark.

    python3 perfbench/run.py --workload hbm4_lines --seed 1 --seconds 10 --trace 0

Run from the repository root. Both binaries are built into one target
directory, $CARGO_TARGET_DIR or else `target`, passed to cargo as
`--target-dir`; build output goes to stderr, so the last stdout line is the
benchmark's result object. Any other arguments are passed to `perfbench run`.
"""

import os
import subprocess
import sys


def main() -> int:
    for needed in ("Cargo.toml", "crates/server/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    # perfbench is a workspace of its own, so without an explicit target
    # directory its build would land in perfbench/target instead.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--target-dir", target]
    for extra in (["-p", "rome-server", "--bin", "rome-server"],
                  ["--manifest-path", "perfbench/Cargo.toml"]):
        done = subprocess.run(build + extra, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return done.returncode
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), "run",
               "--server", os.path.join(release, "rome-server"),
               "--out", os.path.join(".perfbench")] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
