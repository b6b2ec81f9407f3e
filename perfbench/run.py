#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build output goes to standard error; the
last line of standard output is the run's JSON result (see NOTES.md). Exits
non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/mrpa.exe", "./perfbench/perfbench.exe"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release"] + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
