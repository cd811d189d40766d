#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 blinkbench/run.py --workload train_mix --seed 1 --seconds 20 --trace 0

Run from the root of the source tree. The build goes to $CARGO_TARGET_DIR
when set, else .bench_build; sockets and trace files go to <build>/run.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the
run's set-up fails. Every process the run starts is stopped and waited for
before this script exits, and no socket file is left behind.
"""

import argparse
import fcntl
import glob
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("train_mix", "search_grid", "serve_routed")
RUN_TIMEOUT_S = 170


def lanes():
    return max(1, min(4, os.cpu_count() or 1))


def build(bench_dir, build_dir):
    """Configures once and builds the benchmark and the worker daemon."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "blinkbench",
             "example_serve_daemon", "-j", str(lanes())],
            stdout=sys.stderr, check=True)


def stop_group(pgid):
    """Kills whatever is left in the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and reaps what it started (the finally
    # block below runs on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1

    # Unix socket paths are capped near 100 bytes: keep them relative.
    out_dir = os.path.relpath(os.path.join(build_dir, "run"))
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, BLINKML_NUM_THREADS=str(lanes()))
    cmd = [os.path.join(build_dir, "blinkbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker", os.path.join(build_dir, "blinkml", "example_serve_daemon"),
           "--out", out_dir]
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 1
    finally:
        stop_group(child.pid)
        child.wait()
        for sock in glob.glob(os.path.join(out_dir, "*.sock")):
            os.unlink(sock)
    return rc


if __name__ == "__main__":
    sys.exit(main())
