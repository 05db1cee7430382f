#!/usr/bin/env python3
"""Build and run the PQUIC benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Builds perfbench/pbench.exe with dune (build output goes to stderr, the
dune cache is off so nothing is written outside the checkout), then runs
it with the given arguments. The program's stdout passes through; its
last line is the result JSON. Exits non-zero, printing no result, when
the build fails -- e.g. in a directory holding only the benchmark.
The run itself has no timeout: a slow build of the program under test
should report a slow figure, not be killed.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display=quiet", "./perfbench/pbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
