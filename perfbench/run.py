#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 30 --trace 0

The script builds the Go program in perfbench/ against the repository's
sources and runs it with the given arguments. Every file the build and
the run leave behind goes under .bench_build/ in the repository root:
the Go build cache, the binary and the traced run's spans. The program
prints its metrics; the last line of its output is the result object.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    # Everything the go command writes stays under .bench_build; it uses
    # the installed toolchain, fetches nothing (the module has no
    # dependencies outside the repository) and needs no C compiler.
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"], env["XDG_CACHE_HOME"]):
        os.makedirs(d, exist_ok=True)
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: run from the repository root (no go.mod here)\n")
        return 2
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
