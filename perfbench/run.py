#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static_uniform --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune (the first run builds the whole
library stack from source), then runs it with the same arguments.  The
last line of standard output is the run's JSON result.  The exit code is
non-zero, and no result is printed, when the sources are missing or do
not build; it is non-zero after the result when an answer was wrong.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run_timeout_s(seconds):
    """Seconds a run may take: its set-ups, checks and probes take
    well under a minute beside the measured phases, which take
    --seconds."""
    return 60 + 3 * seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.exit("perfbench: %s not found; run from the root of a full checkout" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)

    # Any integer names a seed; the program takes a non-negative OCaml int.
    seed = args.seed % (1 << 62)
    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(cmd, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %g s" % timeout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
