#!/usr/bin/env python3
"""Build the perfbench Go package from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary live under
$CARGO_TARGET_DIR (default .bench_build) in the working directory, so the
build reads and writes nothing outside it. Arguments are passed through to
the binary, whose last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    gobin = shutil.which("go")
    if gobin is None:
        print("run.py: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run([gobin, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        r = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
