#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks, with short traced runs of every workload:
  * the same seed gives identical inputs and identical exact counts;
  * cache.hit_ratio is exactly 0 on curve_tick;
  * greeks.legs_per_request is exactly 4 on greeks_book;
  * a new seed changes the inputs;
  * BINOPT_OCL_COMPUTE_UNITS=3 in the environment is cleared and leaves
    device_curve on one compute unit: the process runs no compute-unit
    threads (a one-unit device runs work-groups inline on the service
    worker, three units would start three threads), and the exact counts
    do not change.
Exits non-zero on the first failed check.
"""
import json
import os
import sys

import run

# Counts that depend only on the seed, never on timing.
EXACT = [
    "finance.lattice_nodes",
    "ocl.barriers_executed",
    "ocl.work_items_executed",
    "ocl.work_groups_executed",
    "ocl.kernels_enqueued",
    "ocl.global_bytes_per_option",
    "ocl.host_bytes_per_option",
    "greeks.legs_per_request",
]
SECONDS = 2
RATE = 40000


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def exact(result):
    return {name: result["metrics"][name]["value"] for name in EXACT}


def traced(workload, seed, env=None):
    result = run.run_driver(workload, seed, SECONDS, 1, RATE, env=env, echo=False)
    check(result["correct"] and result["exit_code"] == 0, f"{workload} seed {seed}: parity")
    return result


def main():
    run.build()
    for spec in run.load_spec()["workloads"]:
        w = spec["name"]
        a, b, c = traced(w, 7), traced(w, 7), traced(w, 8)
        check(a["input_digest"] == b["input_digest"], f"{w}: same seed, same inputs")
        check(exact(a) == exact(b), f"{w}: same seed, same exact counts {exact(a)}")
        check(a["input_digest"] != c["input_digest"], f"{w}: new seed, new inputs")
        if w == "curve_tick":
            check(a["metrics"]["cache.hit_ratio"]["value"] == 0.0, f"{w}: cache.hit_ratio == 0")
        if w == "greeks_book":
            check(a["metrics"]["greeks.legs_per_request"]["value"] == 4.0,
                  f"{w}: greeks.legs_per_request == 4")
        if w == "device_curve":
            env = dict(os.environ, BINOPT_OCL_COMPUTE_UNITS="3")
            d = traced(w, 7, env=env)
            check(d["cleared_env"] >= 1, f"{w}: BINOPT_OCL_COMPUTE_UNITS cleared")
            check(exact(d) == exact(a), f"{w}: knob in env, same exact counts")
            check(d["metrics"]["harness.threads"]["value"] == a["metrics"]["harness.threads"]["value"],
                  f"{w}: knob in env, no compute-unit threads "
                  f"(threads {json.dumps(d['metrics']['harness.threads']['value'])})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
