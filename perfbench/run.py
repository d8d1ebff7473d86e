#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
arbmis libraries, the arbmis_serve daemon and the arbbench program into
.bench_build/ (Release); later runs only re-check the build. The workload
runs in its own process; its scratch files live under .bench_build/work/
and are removed afterwards. A traced run also writes its spans to
.bench_build/traces/<workload>-seed<N>.jsonl.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The exit code is 0 only when every op
passed its correctness check.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# glibc malloc settings of the workload process and the daemon it starts:
# one arena, never return freed heap memory to the kernel, and serve every
# block below 32 MiB from the heap. Freed memory then stays mapped in the
# process, so the ops after the warm-up reuse pages that are already faulted
# in instead of first-touching fresh ones. On a VM whose host reclaims the
# guest's free pages (virtio free page reporting), a first touch costs a
# host fault whose price changes with the host's load; this keeps that cost
# out of the timed ops (see the traced run's os.minor_faults). With one
# arena the daemon's peak RSS no longer depends on which connection thread
# happened to allocate first.
MALLOC_TUNABLES = ("glibc.malloc.arena_max=1:"
                   "glibc.malloc.trim_threshold=4294967296:"
                   "glibc.malloc.mmap_threshold=33554432")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


SPEC = load_spec()


def build():
    for needed in ("src/CMakeLists.txt", "tools/arbmis_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "arbbench", "arbmis_serve_daemon"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 4)


def to_result(line, section, fill_missing):
    """Turns arbbench's last line into the benchmark's result line: adds
    each metric's unit from BENCHMARK.json and reports a per-layer metric
    the workload does not measure (its layer is bypassed) as 0. Returns None
    when the line breaks the format."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return None
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None
    units = {m["name"]: m["unit"] for m in section}
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(units))
    missing = sorted(set(units) - set(measured))
    if unknown or (missing and not fill_missing):
        print(f"perfbench: unknown metrics {unknown}, missing {missing}",
              file=sys.stderr)
        return None
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in measured.values()):
        return None
    raw["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                      for name, unit in units.items()}
    return raw


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    traced = args.trace == "1"
    section = SPEC["per_layer" if traced else "end_to_end"]

    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(CMAKE_DIR, "arbbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir,
               "--daemon", os.path.join(CMAKE_DIR, "arbmis_serve")]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]

    # Own process group, so that nothing the workload started can outlive it.
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.strip().splitlines()
    result = to_result(lines[-1], section, traced) if lines else None
    if result is None:
        sys.stderr.write(out)
        fail(f"{args.workload} exited {proc.returncode} without a valid result",
             proc.returncode or 6)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
