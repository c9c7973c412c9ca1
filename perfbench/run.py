#!/usr/bin/env python3
"""Build and run the lkmm-herd benchmark.

    python3 perfbench/run.py --workload sweep-scale --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The first call builds the driver
(perfbench/CMakeLists.txt) from the repository sources into
.bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr; the driver's report goes to stdout and its last
line is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")
WORKLOADS = ["sweep-scale", "sweep-small-cat", "serve-mixed", "fuzz-isolated"]
# A run measures for --seconds; set-up, known-answer checks and the
# traced layer pass come on top.  Kill a driver that overruns this.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "base", "json.cc")):
        sys.exit("perfbench: repository sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", "perfbench", "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(ROOT, BUILD, "perfbench")


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--workdir", WORK]
    # Own process group, so a timeout also reaps forked sandboxes and
    # serve workers.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("perfbench: driver timed out")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if child.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        sys.exit(child.returncode)

    result = json.loads(lines[-1])
    want = contract_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit("perfbench: driver metrics do not match BENCHMARK.json")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
