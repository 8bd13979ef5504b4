#!/usr/bin/env python3
"""Run one benchmark workload: build the benchmark from source, run it,
and pass its output through.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of stdout is the result
object ({"correct", "attempted", "failed", "metrics"}); the line before
it holds the details (raw and probe-scaled values, the output digest).
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cli-session", "dse-sweep", "serve-warm"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    # The benchmark pins every REPRO_* setting itself; drop the caller's.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Dune's shared cache lives outside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def build_dir():
    # A harness may name the build directory (relative to the root).
    return os.environ.get("CARGO_TARGET_DIR") or "_build"


def build(env):
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a full checkout" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir(),
           "--profile", "release", "--display", "quiet",
           "perfbench/bin/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)
    exe = os.path.join(ROOT, build_dir(), "default", "perfbench", "bin",
                       "main.exe")
    if not os.path.exists(exe):
        fail("build produced no %s" % exe)
    return exe


def run(exe, args, env):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: a timeout stops the benchmark and its daemon.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGTERM)
        try:
            p.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(out)
        fail("run failed (exit %d)" % p.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = ap.parse_args()
    env = clean_env()
    run(build(env), args, env)


if __name__ == "__main__":
    main()
