#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload lr3-train-mono --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare base.jsonl head.jsonl

The Go program is built from source with every Go cache, temporary file
and output kept under .perfbench/ in the current checkout. Arguments are
passed through unchanged; the program's exit code is returned. A failed
build exits with code 2 and prints no result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    state = os.path.join(root, ".perfbench")
    binary = os.path.join(state, "bin", "perfbench")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(state, "gocache"),
        "GOPATH": os.path.join(state, "gopath"),
        "GOMODCACHE": os.path.join(state, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(state, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed:\n" + build.stdout, file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
