#!/usr/bin/env python3
"""Benchmark entry point.

Builds the perfbench workload binary from the checkout's own sources
(into .bench_build/perfbench), runs one workload in its own process and
prints the result:

    python3 perfbench/run.py --workload city_batch --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it describes the
host. A full record of the run (host, arguments, result, the binary's
informational lines) is also written under .bench_results/ for
perfbench/compare.py. The exit code is non-zero when the build fails,
the binary fails, or an output check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("city_batch", "campus_wire", "city_perturb")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "mechanism.h")):
        log("perfbench: the library sources (src/) are not in this checkout")
        return None
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, "perfbench")


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the library and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def pmu_available():
    """A hardware PMU is exposed when the kernel lists a core PMU event
    source (x86 "cpu", arm "armv8_pmuv3*", ...) and perf events are not
    forbidden outright."""
    devices = "/sys/bus/event_source/devices"
    try:
        names = os.listdir(devices)
        with open("/proc/sys/kernel/perf_event_paranoid") as f:
            paranoid = int(f.read().strip())
    except (OSError, ValueError):
        return False
    core = [n for n in names if n == "cpu" or "pmu" in n]
    return bool(core) and paranoid < 3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def host_descriptor():
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pmu": pmu_available(),
        "build_type": build_type(),
        "commit": commit(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    os.makedirs(WORK, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK]
    started = time.time()
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stdout.write(run.stdout)
        log(f"perfbench: {args.workload} exited {run.returncode} "
            "without a result")
        return 3

    for line in lines[:-1]:
        print(line)
    host = host_descriptor()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "host": host,
        "result": result,
        "log": lines[:-1],
    }
    out_dir = os.path.join(RESULTS, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime(started))}"
            f"-{os.getpid()}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    if run.returncode != 0 or not result.get("correct"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
