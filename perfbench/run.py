#!/usr/bin/env python3
"""Build the SGL engine benchmark from source and run one workload.

    python3 perfbench/run.py --workload battle-10k --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The engine library and the harness are
built with CMake into .bench_build/perfbench; run outputs (span files,
per-layer tables, scratch world directories) go to .bench_build/out.
The last line of standard output is the JSON result. See README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("battle-10k", "serve-durable")
# A run takes 2 to 4 s per --seconds on a 4-vCPU host, set-ups and checks
# included (a traced run times two passes of half the work each, so it is
# not twice as long); past this many seconds per --seconds it is taken to
# hang. At --seconds 20 that is 170 s.
RUN_SECONDS_PER_SECOND = 8.5


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    # Flush the build's dirty pages now, so their writeback does not land
    # in the timed loop (serve-durable fsyncs its checkpoints).
    os.sync()
    return os.path.join(build_dir, "sgl_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "simulation.h")):
        sys.exit("run.py: the engine sources (src/) are not beside perfbench/")
    try:
        binary = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")

    out = os.path.join(ROOT, ".bench_build", "out", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    timeout = RUN_SECONDS_PER_SECOND * max(1, args.seconds)
    # Turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the harness as it does when the harness overruns.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {timeout:.0f} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
