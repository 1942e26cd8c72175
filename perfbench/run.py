#!/usr/bin/env python3
"""Host-time benchmark of the COMET reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 25 --trace 0

(`--workload all` runs the four workloads in turn.)

Builds the benchmark binary from source (perfbench/CMakeLists.txt, which
builds the repository's comet_core with the repository's own flags) into
.bench_build/, runs one workload, checks every simulated output against a pin
for (workload, seed) -- or, for an unpinned seed, against a run of the same
stream at another thread count -- and prints one JSON result as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full record (host, compiler and flags,
source fingerprint, per-metric median/quartiles/samples, value class,
checks) is written to .bench_results/. Exits non-zero, naming the workload,
on any digest or simulated-value mismatch.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_decode", "serve_prefill", "cluster_skew", "sim_sweep")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# The program's thread setting for timed runs. One thread: on shared
# virtual machines the wake-up latency of parked threads swings several-fold
# between host states with no code cause, so multi-threaded host time is not
# steady enough to gate on (see README.md).
TIMED_THREADS = 1
# Pins are made at PIN_THREADS, a different count from the timed runs, so a
# pin also checks the thread contract (output bits never depend on threads).
# An unpinned seed is checked against a fresh num_threads = 1 process.
PIN_THREADS = 2
REFERENCE_THREADS = 1


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once and builds incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources here: run from the root of a checkout "
             "that holds CMakeLists.txt and src/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = build_jobs()
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: " + log_path + ")", 3)


def run_binary(args):
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(args), 4)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.stderr.write(proc.stderr)
        fail("benchmark binary printed no result (exit %d): %s"
             % (proc.returncode, " ".join(args)), 4)
    try:
        return json.loads(lines[-1]), proc.returncode, proc.stderr
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("benchmark binary printed malformed JSON", 4)


def host_record(threads):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, flags = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "compile_commands.json")) as f:
            commands = json.load(f)
        entry = next(c for c in commands
                     if os.sep + "src" + os.sep in c["file"]
                     and "perfbench" not in c["file"])
        parts = entry["command"].split()
        compiler = subprocess.run([parts[0], "--version"], text=True,
                                  stdout=subprocess.PIPE).stdout.splitlines()[0]
        flags = " ".join(p for p in parts[1:]
                         if p.startswith(("-O", "-m", "-f", "-D", "-W",
                                          "-std", "-g")))
    except (OSError, StopIteration, ValueError, IndexError):
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        git_sha = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "flags": flags,
        "git_sha": git_sha,
        "source_sha256": source_fingerprint(),
        "threads": threads,
    }


def source_fingerprint():
    """sha256 over the program and benchmark sources (a checkout without
    .git has no sha of its own)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def compare_checks(workload, got, want, source):
    """Returns error strings for every simulated value that differs."""
    errors = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            errors.append(f"{workload}: {key} = {got.get(key)} but the "
                          f"{source} has {want.get(key)}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pin file (the self-test passes a wrong one)")
    args = parser.parse_args()

    if args.workload == "all":
        code = 0
        for workload in WORKLOADS:
            argv = [a if a != "all" else workload for a in sys.argv[1:]]
            code = subprocess.run([sys.executable, __file__] + argv).returncode \
                or code
        sys.exit(code)

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(TIMED_THREADS)]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(RESULTS_DIR, stem + ".trace.json")
        cmd += ["--trace-out", trace_file]
    result, code, stderr = run_binary(cmd)
    errors = list(result["errors"])
    if code != 0 and not errors:
        errors.append(f"benchmark binary exited with {code}: "
                      f"{stderr.strip()}")

    # Simulated outputs: the pin for (workload, seed), else a run of the
    # same stream at another thread count (the thread contract makes it
    # bit-identical).
    with open(args.pins) as f:
        pins = json.load(f)
    pin = pins.get(args.workload, {}).get(str(args.seed))
    if pin is not None:
        source = f"pin for seed {args.seed}"
        want = pin
    else:
        source = f"num_threads = {REFERENCE_THREADS} reference run"
        reference, ref_code, ref_err = run_binary(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--check-only", "--threads", str(REFERENCE_THREADS)])
        if ref_code != 0:
            errors.append(f"{args.workload}: reference run failed: "
                          f"{ref_err.strip()}")
        want = reference["checks"]
    errors += compare_checks(args.workload, result["checks"], want, source)

    # The benchmark tests itself: every named metric, once, well named, in
    # the declared unit, with a finite value.
    expected = expected_metrics(args.trace)
    by_name = {m["name"]: m for m in result["metrics"]}
    if len(by_name) != len(result["metrics"]):
        errors.append(f"{args.workload}: a metric is emitted twice")
    for spec in expected:
        m = by_name.get(spec["name"])
        if not NAME_RE.match(spec["name"]):
            errors.append(f"bad metric name {spec['name']!r}")
        if m is None:
            errors.append(f"{args.workload}: metric {spec['name']} missing")
        elif m["unit"] != spec["unit"]:
            errors.append(f"{args.workload}: {spec['name']} unit "
                          f"{m['unit']} != {spec['unit']}")
        elif m["value"] is None or not math.isfinite(m["value"]):
            errors.append(f"{args.workload}: {spec['name']} is not finite")
    extra = set(by_name) - {s["name"] for s in expected}
    if extra:
        errors.append(f"{args.workload}: unexpected metrics {sorted(extra)}")

    correct = not errors
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(TIMED_THREADS),
        "correct": correct,
        "errors": errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checked_against": source,
        "checks": result["checks"],
        "metrics": result["metrics"],
        "trace_file": trace_file,
    }
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for m in result["metrics"]:
        print(f"{args.workload} {m['name']} = {m['value']:.6g} {m['unit']} "
              f"[{m['class']}] median {m['median']:.6g} "
              f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n={m['samples']}")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {s["name"]: {"value": by_name[s["name"]]["value"],
                                "unit": s["unit"]}
                    for s in expected if s["name"] in by_name},
    }
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
