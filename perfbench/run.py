#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs workloads.

Usage (from the repository root):

    python3 perfbench/run.py --quote-rate 40000 [--workload NAME|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own driver process, so peak RSS belongs to one
workload. With --trace 0 the result carries every end-to-end metric listed
in BENCHMARK.json; with --trace 1 every per-layer metric. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero on any parity mismatch or failed run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def hermetic_env():
    """The caller's environment without any BINOPT_* runtime knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("BINOPT_")}


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        # A cache left by a checkout at another path: start the build afresh.
        shutil.rmtree(BUILD, ignore_errors=True)
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_driver"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace, quote_rate, env=None, echo=True):
    """Runs one workload in its own process; returns the driver's JSON."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--quote-rate", str(quote_rate)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S,
                          env=hermetic_env() if env is None else env)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
    sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: driver exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def select(result, metric_specs):
    """The metrics BENCHMARK.json names, with their declared units."""
    out = {}
    for spec in metric_specs:
        name = spec["name"]
        if name not in result["metrics"]:
            raise RuntimeError(f"{result['workload']}: driver reported no metric {name}")
        metric = result["metrics"][name]
        if metric["unit"] != spec["unit"]:
            raise RuntimeError(f"{name}: unit {metric['unit']} != {spec['unit']}")
        out[name] = {"value": metric["value"], "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quote-rate", type=float, required=True,
                        help="fixed offered rate of quote_stream, in quotes/s")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        if any(w not in names for w in workloads):
            raise RuntimeError(f"unknown workload {args.workload}; have {', '.join(names)}")
        seconds = args.seconds or spec["run_seconds"]
        metric_specs = spec["per_layer" if args.trace else "end_to_end"]
        build()
        results = [run_driver(w, args.seed, seconds, args.trace, args.quote_rate)
                   for w in workloads]
        selected = [select(r, metric_specs) for r in results]
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2

    for r, metrics in zip(results, selected):
        print(f"== {r['workload']}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} failed_share={r['failed_share']:.6g} "
              f"latency_samples={r['metrics']['harness.latency_samples']['value']:.0f}")
        for name, m in metrics.items():
            print(f"   {name:<40} {m['value']:>18.6f} {m['unit']}")
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results)
    if len(results) == 1:
        metrics = selected[0]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r, sel in zip(results, selected) for name, m in sel.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
