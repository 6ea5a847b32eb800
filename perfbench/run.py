#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload stream|rr|secure|forward \
        --seed N --seconds S --trace 0|1

It builds the Go program in perfbench/ against the checkout's own
source (the module replaces bsd6 with ..), keeping the Go build cache,
module cache and binary under .bench_build/, then runs it with the
given arguments and passes its output and exit code through.  The last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; the first build in a fresh checkout compiles everything
RUN_TIMEOUT = 170  # seconds


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    # The program under test is the checkout itself; without it there is
    # nothing to measure.
    for need in ("go.mod", os.path.join("internal", "core"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a bsd6 checkout: %s is missing" % need)

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOMODCACHE": os.path.join(out, "go-mod"),
        "GOPATH": os.path.join(out, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               timeout=BUILD_TIMEOUT, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except OSError as e:
        fail("cannot run go: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    args = [binary, "--out", os.path.join(out, "perfbench-results")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
