#!/usr/bin/env python3
"""Builds the WARLOCK benchmark and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `warlockd` (the repository's server, release profile) and the
benchmark crate in this directory, both into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark binary. Its last stdout line is
the result object; build output goes to stderr. Work files (rendered
warehouse configs, traces) go to `.bench_work/`. Exits non-zero without
printing a result when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_OVERRIDES = ("WARLOCK_PARALLELISM", "WARLOCK_CHUNK_SIZE", "WARLOCK_KERNEL")
RUN_TIMEOUT_S = 170


def cargo_build(target_dir, args, cwd):
    command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(command, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def main():
    for var in ENV_OVERRIDES:
        if var in os.environ:
            print(f"run.py: refusing to run with {var} set", file=sys.stderr)
            return 2
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    if not cargo_build(target_dir, ["--manifest-path", manifest], ROOT):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    if not cargo_build(target_dir, ["-p", "warlock", "--bin", "warlockd"], ROOT):
        print("run.py: building warlockd failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--warlockd", os.path.join(release, "warlockd"),
        "--workdir", os.path.join(ROOT, ".bench_work"),
    ]
    # A session of its own, so a timeout also takes down the warlockd
    # the benchmark spawned.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
