#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-mic --seed 1 --seconds 20 --trace 0

The Go build cache, the perfbench binary and traced-run artifacts all live
under .bench_build/ in the current directory, so the benchmark reads and
writes nothing outside the checkout. The benchmark's standard output (report
lines, then one JSON result line) and exit code are passed through
unchanged; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=src, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
