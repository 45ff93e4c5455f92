#!/usr/bin/env python3
"""Build and run the prfpga benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, then runs it
with the given arguments. The last line of standard output is the
result object; build output goes to standard error. Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
