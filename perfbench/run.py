#!/usr/bin/env python3
"""The yac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `yac_perfbench` and `yacd`
from the checkout's sources into `.bench_build/` (a clean build takes about
a minute on 4 cores; later runs only re-check it), then runs the workload
in a fresh `yac_perfbench` process, so no cache, arena, metrics registry or
peak-RSS figure carries over between runs. The workloads and metrics are
listed in BENCHMARK.json at the root of the repository.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
it give the host fingerprint, the resolved SIMD engine and every metric
with its unit; a traced run also writes its spans as Chrome trace JSON
under `.bench_build/out/`. `--smoke 1` runs seconds-long sizes of the
workload (used by perfbench/test_smoke.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_report", "sharded_screen", "cpi_exact", "opt_search")
# Whole-run limit for the workload process: set-up plus the measured
# seconds stay far below it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring yac_perfbench and yacd up to date."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no yac sources at %s (missing %s)" % (ROOT, needed))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "yac_perfbench", "yacd", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "yac_perfbench"),
            os.path.join(BUILD_DIR, "yac_tools", "yacd"))


def run_workload(binary, yacd, args):
    out_dir = os.path.join(BUILD_DIR, "out", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--smoke", str(args.smoke),
               "--yacd", yacd, "--out-dir", out_dir]
    # Its own process group, so a timeout also stops yacd workers.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_TIMEOUT_S))
    finally:
        # A harness that died mid-campaign may leave workers behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(out_dir, "sharded_state"),
                      ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    binary, yacd = build()
    print("perfbench: build checked in %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    for line in run_workload(binary, yacd, args):
        print(line)


if __name__ == "__main__":
    main()
