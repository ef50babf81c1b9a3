#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload influx-loop --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with
the Go build cache kept there too, and then run with the given
arguments. Its last line of standard output is the result JSON; traced
runs write their spans under <build dir>/traces. Exits non-zero, without
a result, if the build fails.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build_dir, "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOENV": "off",
    })
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    except OSError as e:
        print(f"perfbench: cannot run the go toolchain: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, *sys.argv[1:], "--out", os.path.join(build_dir, "traces")]
    proc = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
