#!/usr/bin/env python3
"""Regenerates perfbench/pins.json: the simulated outputs of one pass of
every workload for a range of seeds, computed at run.PIN_THREADS (2, a
different thread count from the timed runs' 1, so a pin also checks the
thread contract).

    python3 perfbench/make_pins.py --seeds 0-31

Run it from the root of a checkout after `perfbench/run.py` has built the
binary. Only a change that is meant to move simulated outputs may
regenerate pins, and it must say so.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (same directory)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run.build()
    pins = {}
    for workload in run.WORKLOADS:
        pins[workload] = {}
        for seed in range(first, last + 1):
            result, code, stderr = run.run_binary(
                ["--workload", workload, "--seed", str(seed), "--check-only",
                 "--threads", str(run.PIN_THREADS)])
            if code != 0:
                sys.exit(f"{workload} seed {seed} failed: {stderr}")
            pins[workload][str(seed)] = result["checks"]
            print(workload, seed, file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
