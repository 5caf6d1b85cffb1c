#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the program's libraries and the benchmark from source into
.bench_build/perfbench (incrementally; the first build takes a minute or
so), then runs one workload. Build logs go to stderr, so the last line
of stdout is the benchmark's JSON result. Traced runs also write their
per-request spans to .bench_build/spans-<workload>.tsv. The exit status
is the benchmark's: 0 only when every checked output was correct.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("loopback-silo", "loopback-silo-bursts", "integrated-silo", "model")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (CMakeLists.txt missing)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def parse(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if key == "--selftest":
            opts["selftest"] = True
            continue
        if not key.startswith("--"):
            fail("unexpected argument " + key)
        try:
            opts[key[2:]] = next(it)
        except StopIteration:
            fail("missing value for " + key)
    return opts


def main():
    opts = parse(sys.argv[1:])
    if opts.get("selftest"):
        return subprocess.call([build("perfbench_test")], cwd=ROOT)
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail("--%s is required" % key)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %s (one of %s)" % (opts["workload"], ", ".join(WORKLOADS)))
    binary = build("perfbench")
    cmd = [binary, "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"],
           "--golden", os.path.join(HERE, "golden_model.txt")]
    if opts["trace"] == "1":
        cmd += ["--spans-out", os.path.join(ROOT, ".bench_build",
                                            "spans-%s.tsv" % opts["workload"])]
    try:
        return subprocess.call(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
