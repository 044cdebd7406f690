#!/usr/bin/env python3
"""Build and run one workload of the test-cell benchmark.

    python3 perfbench/run.py --workload lot_clean --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload service_steady ... --unchecked

Run from the root of a source tree. The library and the driver are built
from source into $CARGO_TARGET_DIR (default .bench_build) with the default
tier-1 configuration (RelWithDebInfo, SIGTEST_CHECKED=ON, telemetry compiled
in and off at run time); --unchecked builds a Release SIGTEST_CHECKED=OFF
tree instead, on which the service workloads are expected to abort (see
NOTES.md, "Known defect"). Build output goes to stderr; the driver's report,
ending in one JSON line, goes to stdout. Per-run result files land in
<target>/results. Exits non-zero, printing no result, when the tree cannot
be built or the run fails.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lot_clean", "lot_faulted", "service_steady", "service_recal")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout, env):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(unchecked):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no source tree at %s: the benchmark builds the library from"
             " source and must run from the root of a checkout" % ROOT)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build")
    name = "perfbench-release-unchecked" if unchecked else \
        "perfbench-relwithdebinfo"
    build_dir = os.path.join(target, name)
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(target, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        config = ["-DCMAKE_BUILD_TYPE=Release", "-DSIGTEST_CHECKED=OFF"] \
            if unchecked else ["-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                               "-DSIGTEST_CHECKED=ON"]
        run_logged(["cmake", "-S", ROOT, "-B", build_dir,
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(HERE, "build.cmake")] + config,
                   BUILD_TIMEOUT_S, env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                "perfbench_driver", "perfbench_selftest"],
               max(60, BUILD_TIMEOUT_S - (time.monotonic() - started)), env)
    return target, os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the helpers' self-test")
    ap.add_argument("--unchecked", action="store_true",
                    help="use a Release SIGTEST_CHECKED=OFF build")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    target, bin_dir = build(args.unchecked)
    selftest = subprocess.run([os.path.join(bin_dir, "perfbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-test failed")
    if args.selftest:
        return 0

    started = time.monotonic()
    cmd = [os.path.join(bin_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target, "results")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_BUDGET_S)
    if code != 0:
        fail("driver exited with status %d after %.1f s"
             % (code if code >= 0 else 128 - code,
                time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
