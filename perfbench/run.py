#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe from source with dune (shared dune cache off,
so nothing is written outside the checkout), runs it from the checkout
root, and relays its output. The last line of output is the result
object; a build failure or a failed correctness check exits non-zero
without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not installed")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be 1..60")
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("benchmark exited with %d" % p.returncode, p.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stdout)
        fail("benchmark printed no result", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
        sys.stderr.write(p.stdout)
        fail("malformed or incorrect result", 1)
    sys.stdout.write(p.stdout)


if __name__ == "__main__":
    main()
