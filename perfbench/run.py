#!/usr/bin/env python3
"""Builds and runs the apujoin benchmark on the `threads` backend.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark into the build directory (`$CARGO_TARGET_DIR`
when set, else `.bench_build`); later calls rebuild only what changed. Each
call then runs the self-test of the benchmark's arithmetic and one
measurement, whose last stdout line is the JSON result. Build output goes
to stderr. Run records (host fingerprint, metrics, spans of the traced run)
are written under `<build dir>/runs/`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["phj_uniform", "shj_skew_u64", "fk_groupby", "service_small"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, capture=False):
    """Runs `cmd` in its own process group and returns (code, stdout).

    If this script is stopped first (SIGTERM, Ctrl-C), the whole group, e.g.
    a build's compilers, is killed and reaped before the script exits.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    """Configures (once) and builds; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd)[0] != 0:
            return False
    return run(["cmake", "--build", build_dir, "-j", jobs])[0] == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not os.path.exists(os.path.join(ROOT, "src", "coproc",
                                        "pipeline_runner.h")):
        print("perfbench: no apujoin sources next to perfbench/; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run([os.path.join(build_dir, "perfbench_selftest")])[0] != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    code, out = run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", runs], capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return code

    # The driver's metric table must be the one BENCHMARK.json declares.
    result = json.loads(out.strip().splitlines()[-1])
    want = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(result['metrics']))}, "
              f"extra {sorted(set(result['metrics']) - set(want))}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
