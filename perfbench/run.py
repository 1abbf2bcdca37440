#!/usr/bin/env python3
"""The moatsim benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the moatsim library, the
moatsim CLI and the moatbench driver into .bench_build/ (first run only;
later runs rebuild incrementally), pins the environment the measured
processes see, runs one workload through moatbench, and prints context
lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (from a separate traced pass). The
exit status is 0 only when every result byte matched the direct path.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("matrix-sweep", "coattack-cold", "serve-mixed")
# Every run must end within 180 s; leave room to report and clean up.
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

# The store knobs the library reads from the environment, pinned so a
# stray setting in the caller's shell cannot change what is measured.
# The trace store stays on at its default bound; the result store is
# configured explicitly by each workload (off for the reference CLI
# runs, in-memory for the in-process sweeps, a shard directory for the
# daemon). MOATSIM_JOBS is read by nothing today; it is cleared so a
# future reader cannot pick up a caller's value.
PINNED_ENV = {
    "MOATSIM_TRACE_STORE": "1",
    "MOATSIM_TRACE_STORE_BYTES": str(1 << 30),
}
CLEARED_ENV = ("MOATSIM_RESULT_STORE", "MOATSIM_RESULT_STORE_EPOCH",
               "MOATSIM_JOBS")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    return args


def declared_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_logged(argv, log, timeout):
    with open(log, "a") as out:
        try:
            rc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            fail("timed out: %s (see %s)" % (" ".join(argv), log))
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("failed: %s (see %s)" % (" ".join(argv), log))


def build(jobs, deadline):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no moatsim sources next to perfbench/ (expected "
             "CMakeLists.txt and src/ at the repository root)")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   log, deadline - time.monotonic())
    run_logged(["cmake", "--build", BUILD, "-j", str(jobs), "--target",
                "moatbench", "moatsim_cli"],
               log, deadline - time.monotonic())


def toolchain():
    """Compiler and build type of the build; refuses unfit builds."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(),
        "CMAKE_EXE_LINKER_FLAGS"))
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing to measure a '%s' build" % (build_type or "unset"))
    if "-fsanitize" in flags or "-O0" in flags.split():
        fail("refusing to measure a sanitizer or -O0 build (%s)" % flags)
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {"compiler": version, "build_type": build_type,
            "cxx_flags": flags.strip()}


def measured_env():
    env = dict(os.environ)
    for key in CLEARED_ENV:
        env.pop(key, None)
    env.update(PINNED_ENV)
    return env


def run_workload(args, jobs, deadline):
    workdir = os.path.join(BUILD, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argv = [os.path.join(BUILD, "moatbench"), "run",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--jobs", str(jobs),
            "--moatsim", os.path.join(BUILD, "moatsim", "moatsim")]
    log = os.path.join(workdir, "moatbench.log")
    # Own process group: a timeout takes down the daemon children too.
    with open(log, "w") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env=measured_env(),
                                stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            out = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if out is None:
        fail("moatbench timed out (see %s)" % log)
    if proc.returncode != 0 or not out.strip():
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("moatbench failed with status %d" % proc.returncode)
    report = json.loads(out.strip().splitlines()[-1])
    ref = os.path.join(workdir, "reference.jsonl")
    if os.path.isfile(ref):
        with open(ref, "rb") as f:
            report["context"]["reference_sha256"] = hashlib.sha256(
                f.read()).hexdigest()
    spans = os.path.join(BUILD, "spans", args.workload)
    for name in os.listdir(workdir):
        if name.startswith("spans") and name.endswith(".jsonl"):
            os.makedirs(spans, exist_ok=True)
            shutil.move(os.path.join(workdir, name),
                        os.path.join(spans, name))
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def main():
    start = time.monotonic()
    args = parse_args()
    if os.environ.get("MOATSIM_FAULTS"):
        fail("refusing to run with MOATSIM_FAULTS armed")
    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if args.trace else end_to_end
    cpus = len(os.sched_getaffinity(0))
    jobs = max(1, min(4, cpus))

    build(jobs, start + BUILD_TIMEOUT_S)
    tools = toolchain()
    report = run_workload(args, jobs, time.monotonic() + DEADLINE_S)

    problems = list(report["problems"])
    metrics = {}
    for name, unit in wanted.items():
        got = report["metrics"].get(name)
        if got is None or got["unit"] != unit or not math.isfinite(
                got["value"]):
            problems.append("metric %s missing or malformed: %r" % (name, got))
            continue
        metrics[name] = got
    attempted, failed = report["attempted"], report["failed"]
    context = dict(report["context"])
    context.update(tools)
    context.update({"nproc": cpus, "workers": jobs, "seed": args.seed,
                    "error_rate": failed / attempted if attempted else 1.0,
                    "env": PINNED_ENV, "env_cleared": list(CLEARED_ENV)})
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                              args.trace))
    for key, value in context.items():
        print("  %s: %s" % (key, json.dumps(value)))
    if not args.trace:
        for name, m in report["metrics"].items():
            print("  %-16s %.6g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("  PROBLEM: " + p)
    correct = failed == 0 and attempted > 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
