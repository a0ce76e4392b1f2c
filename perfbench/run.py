#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

The script builds perfbench/ (a Go module that imports the repository's
packages through a relative replace directive) into .bench_build/, with the
Go build cache, temporary files and module cache kept inside .bench_build/
as well, then runs the binary with the same arguments. The binary prints the
result object as the last line of standard output. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOTMPDIR": os.path.join(build, "go-tmp"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOWORK": "off",
    })
    for d in ("go-cache", "go-tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=bench_dir, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Go's flag package accepts the driver's --name value form as is.
    args = [binary] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
