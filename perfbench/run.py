#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark.

    python3 perfbench/run.py --workload construct|serve-wire|store-cycle \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark package
(perfbench/Cargo.toml) and the `spanner-serve` binary from source, offline
and in release mode, into $CARGO_TARGET_DIR (default `.bench_build`), then
runs the workload. Build output goes to standard error; the last line of
standard output is the JSON result. Snapshots live in a temporary directory
under `.bench_build/perfbench-work` that is removed afterwards; the span
files of traced runs are kept in `.bench_build/perfbench-spans`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("construct", "serve-wire", "store-cycle")
# A run measures for --seconds plus set-up and verification; anything
# near this limit means the program hung.
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    manifest = os.path.join("perfbench", "Cargo.toml")
    for needed in ("Cargo.toml", os.path.join("crates", "serve"), manifest):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "spanner-serve", "--bin", "spanner-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    work = os.path.join(".bench_build", "perfbench-work", f"{args.workload}-{os.getpid()}")
    spans = os.path.join(".bench_build", "perfbench-spans")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "spanner-serve"),
        "--work-dir", work,
    ]
    sys.stdout.flush()
    # Own process group, so a hung run takes the server it started with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        if os.path.isdir(work):
            os.makedirs(spans, exist_ok=True)
            for name in os.listdir(work):
                if name.startswith("spans-"):
                    os.replace(os.path.join(work, name), os.path.join(spans, name))
            shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
