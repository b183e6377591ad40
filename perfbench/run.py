#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gemm-q32-warm --seed 1 --seconds 10 --trace 0

The program is built into .bench_build/perfbench with the Go build cache
and temporary files kept there too, so nothing outside the checkout is
written. All arguments are passed to the program, whose last line of
output is the JSON result. Build failures and timeouts exit non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for d in ("gocache", "gotmp", "gopath"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def run_child(cmd, timeout, **kw):
    """Run cmd, killing it if it outlives timeout; return its exit code."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    os.makedirs(BUILD, exist_ok=True)
    code = run_child(
        ["go", "build", "-o", BINARY, "."],
        BUILD_TIMEOUT_S,
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
    )
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    return run_child([BINARY] + sys.argv[1:], RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
