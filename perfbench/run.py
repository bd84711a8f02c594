#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload records-light --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench binary (see main.go). The binary,
the Go build cache, spill files, result files and spans all live under the
build directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
checkout root. Nothing outside the checkout is written. The exit code is the
benchmark's; a failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "config", "tmp", "results")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOTMPDIR=dirs["tmp"],
        GOENV="off",
        XDG_CONFIG_HOME=dirs["config"],  # the go command's telemetry counters
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, *sys.argv[1:]]
    if sys.argv[1:2] != ["compare"]:
        args += ["--tmp", dirs["tmp"], "--out", dirs["results"]]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
