#!/usr/bin/env python3
"""BigDansing benchmark: builds the driver from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload hai_fd_batch --seed 1 --seconds 10 \
        --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer
ones. A readable summary goes to standard error. `--workload all` runs every
workload in turn and prints one metric per line.

Run from the root of the repository. Build output, inputs and span logs go
to .bench_build/ there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
              "perfbench_driver"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def driver_env():
    # The program reads BD_* variables (kernels, threads, faults, obs); the
    # benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("BD_")}


def run_driver(workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=driver_env(), timeout=DRIVER_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return None
    if proc.returncode != 0:
        log("perfbench: driver exited with %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_for(spec, raw, trace):
    attempted, failed, share, walls = stats.summarize_ops(raw["ops"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        metrics = stats.per_layer(raw, stats.load_spans(raw["spans_file"]),
                                  [m["name"] for m in declared])
    else:
        metrics = stats.end_to_end(raw)
    if set(metrics) != {m["name"] for m in declared}:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ {m["name"] for m in declared}))
    units = {m["name"]: m["unit"] for m in declared}
    summary = ["%s seed=%d rows=%d workers=%d attempted=%d failed=%d "
               "failed_op_share=%g" % (raw["workload"], raw["seed"],
                                       raw["rows"], raw["workers"], attempted,
                                       failed, share)]
    rows = {op["kind"]: op["rows"] for op in raw["ops"]}
    for kind, values in sorted(walls.items()):
        p50 = stats.percentile(values, 50)
        line = "  %s: n=%d p50=%.4fs (%.0f rows/s)" % (kind, len(values), p50,
                                                      rows[kind] / p50)
        pct = stats.tail_percentile(len(values))
        if pct is not None:
            line += " p%g=%.4fs" % (pct, stats.percentile(values, pct))
        summary.append(line)
    summary.append("  quality: residual=%.4g precision=%.4g recall=%.4g" % (
        raw["quality"]["residual"], raw["quality"]["precision"],
        raw["quality"]["recall"]))
    for msg in raw["check_failures"]:
        summary.append("  check failed: " + msg)
    return {
        "correct": failed == 0 and not raw["check_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": units[m["name"]]}
                    for m in declared},
    }, summary


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    names = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    workloads = names if args.workload == "all" else (args.workload,)
    for workload in workloads:
        raw = run_driver(workload, args.seed, args.seconds, args.trace)
        if raw is None:
            return 1
        result, summary = result_for(spec, raw, args.trace)
        for line in summary:
            log(line)
        if args.workload == "all":
            for name, m in result["metrics"].items():
                print("%s %s %.6g %s" % (workload, name, m["value"],
                                         m["unit"]))
            print("%s failed_op_share %g ratio" % (
                workload, result["failed"] / result["attempted"]))
        else:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
