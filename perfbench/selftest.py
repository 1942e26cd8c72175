#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is used
    once;
  * every workload, untraced and traced, exits 0 with correct = true and
    emits every named metric (run.py fails a run that misses one);
  * every traced self time is >= 0 (the binary fails a run whose replay
    overcounts its step);
  * a deliberately wrong pin makes the command fail and name the workload.
Short runs: the numbers it produces are not measurements.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
RESULTS = os.path.join(ROOT, ".bench_results")
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, last, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names),
          "metric names match [A-Za-z0-9_.-]+")
    check(len(names) == len(set(names)), "metric names are unique")

    # Every workload run.py knows, including serve_prefill, which is not in
    # BENCHMARK.json (see README.md) but stays runnable by hand.
    for name in ("serve_decode", "serve_prefill", "cluster_skew", "sim_sweep"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, last, err = run(["--workload", name, "--seed", "1",
                                   "--seconds", "3", "--trace", str(trace)])
            ok = code == 0
            if ok:
                line = json.loads(last)
                ok = (line["correct"] and line["failed"] == 0 and
                      set(line["metrics"]) == {m["name"] for m in spec[kind]})
            check(ok, f"{name} --trace {trace}: correct, every "
                      f"{kind} metric emitted" + ("" if ok else ": " + err))

    # A wrong pin must fail the command and name the workload.
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as f:
        pins = json.load(f)
    for workload, key in (("serve_decode", "ttft_us.p99"),
                          ("sim_sweep", "sim_digest")):
        wrong = json.loads(json.dumps(pins))
        wrong.setdefault(workload, {}).setdefault("1", {})[key] = "0x0p+0"
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, "wrong_pins.json")
        with open(path, "w") as f:
            json.dump(wrong, f)
        code, last, err = run(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               "--pins", path])
        check(code != 0 and workload in err and
              json.loads(last)["correct"] is False,
              f"a wrong {workload} pin ({key}) fails the command")

    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
