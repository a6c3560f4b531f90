#!/usr/bin/env python3
"""Build the Atlas benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <hub-steady|hub-drift|advise-whatif> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own next to this script; it is
built in release mode (into $CARGO_TARGET_DIR when set) and then run with
the same arguments. Its last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "atlas-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
