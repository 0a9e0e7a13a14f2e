#!/usr/bin/env python3
"""Open-loop pose-serving benchmark: build, self-test, run one workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the FUSE library and the harness from source with CMake into
.bench_build (or $CARGO_TARGET_DIR when set), runs the harness self-tests,
then runs the harness on the workload described in perfbench/workloads.json.
Prints the harness's report line and, last, one JSON result line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics.  Exits non-zero, without a result line, when the build,
the self-tests or the run fail, or when the metrics do not match the names
BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd, env):
    """Runs a build step; shows its output only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        log(f"command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.returncode == 0


def build(bdir):
    # ccache would write outside the checkout; compile directly.
    env = dict(os.environ, CCACHE_DISABLE="1")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        ok = run_quiet(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], env)
        if not ok:
            if os.path.exists(cache):
                os.remove(cache)
            return False
    return run_quiet(["cmake", "--build", bdir, "-j", BUILD_JOBS, "--target",
                      "perfbench_harness", "perfbench_selftest"], env)


def selftest(bdir):
    proc = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("harness self-tests failed")
    return proc.returncode == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    if not args.selftest and args.workload not in cfg["workloads"]:
        log(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(cfg['workloads'])}")
        return 2

    bdir = build_dir()
    t0 = time.monotonic()
    if not build(bdir):
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    if not selftest(bdir):
        return 1
    if args.selftest:
        log("self-tests passed")
        return 0

    w = cfg["workloads"][args.workload]
    cmd = [os.path.join(bdir, "perfbench_harness"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--sessions", str(w["sessions"]),
           "--arrival", w["arrival"],
           "--input", w["input"],
           "--label-every", str(w["label_every"]),
           "--light-fps", str(w["light_fps"]),
           "--slo-fps", str(w["slo_fps"]),
           "--ladder-floor", str(w["ladder_floor_fps"]),
           "--scratch", os.path.join(bdir, "run")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    want = declared_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
