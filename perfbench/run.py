#!/usr/bin/env python3
"""End-to-end benchmark of the HMC-Sim 2.0 simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mutex_sweep, gups, stream_triad, chain_batch (see README.md).
The first run configures and builds the simulator and the benchmark from
source into .bench_build/ (a RelWithDebInfo build, the repository's
default build type); later runs only rebuild what changed. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records where the result came
from: commit, dirty flag, build type, compiler, core count, seed and the
workload's parameters. A copy of both goes to .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("mutex_sweep", "gups", "stream_triad", "chain_batch")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; the log goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(root, *args):
    try:
        proc = subprocess.run(["git", "-C", root, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root, build_dir, args, params):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    commit = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    build(build_dir)

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "hmcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--plugins", os.path.join(build_dir, "plugins")]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"hmcbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    params = None
    for line in lines[:-1]:
        if line.startswith("PARAMS "):
            params = json.loads(line[len("PARAMS "):])
        else:
            print(line)
    prov = provenance(root, build_dir, args, params)
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print("# provenance " + json.dumps(prov))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
