#!/usr/bin/env python3
"""Build the campaign benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a standalone Cargo
package over the repository's crates) in release mode, then runs the
`perfbench` binary for one workload in a fresh process and passes its
output through; the last stdout line is the JSON result. Build output
goes to stderr. Cargo's target directory is `$CARGO_TARGET_DIR` when set,
`perfbench/target` otherwise; the run's scratch files live under it and
are removed when the run ends.

`XR_*` variables are removed from the benchmark's environment, so no
knob of the program can change what is measured.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["replicated-grid", "many-points", "long-sessions"]
# The build may compile the whole workspace; a run must end well inside
# the three minutes one measurement is allowed.
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run(command, timeout, **kwargs):
    """Runs `command`, killing it and waiting for it on timeout."""
    with subprocess.Popen(command, **kwargs) as process:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            print(f"run.py: {command[0]} timed out after {timeout} s", file=sys.stderr)
            return 1
        return process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = {key: value for key, value in os.environ.items() if not key.startswith("XR_")}
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"run.py: the benchmark build failed (exit {code})", file=sys.stderr)
        return 1
    bench = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--grids", os.path.join(HERE, "grids"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    sys.stdout.flush()
    return run(bench, RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
