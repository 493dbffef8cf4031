#!/usr/bin/env python3
"""Sim-backend golden check: the paper figures must stay bit-identical.

Re-runs each figure/table bench on `--backend=sim` at REPRO_SCALE=0.01 and
byte-compares its stdout and its `--json` record against the files committed
under tests/golden/. The sim backend is deterministic (virtual time), so any
difference is a change in the timing model, the step profiles, the work units
a kernel reports or the order of its hash-table calls.

Usage:
  tools/sim_goldens.py --bin-dir build            # check (the CTest)
  tools/sim_goldens.py --bin-dir build --update   # regenerate the goldens

Regenerate only through --update, and only for a change that is meant to
move the figures; say which goldens moved and why in CHANGES.md.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "golden")
SCALE = "0.01"

# (golden name, binary, extra flags). fig23 groupby/filter with --fuse=auto
# are the figure runs that reach the fused p4g kernel; fig24 is the one that
# runs the wide and dict-string kernels on both hash-table layouts.
CASES = [
    ("fig03_time_breakdown", "fig03_time_breakdown", []),
    ("fig04_step_costs", "fig04_step_costs", []),
    ("fig05_pl_ratios_shj", "fig05_pl_ratios_shj", []),
    ("fig06_pl_ratios_phj", "fig06_pl_ratios_phj", []),
    ("fig07_costmodel_dd", "fig07_costmodel_dd", []),
    ("fig08_costmodel_pl", "fig08_costmodel_pl", []),
    ("fig09_monte_carlo", "fig09_monte_carlo", []),
    ("fig10_shared_vs_separate", "fig10_shared_vs_separate", []),
    ("fig11_alloc_block_size", "fig11_alloc_block_size", []),
    ("fig12_allocators", "fig12_allocators", []),
    ("fig13_uniform_scaling", "fig13_uniform_scaling", []),
    ("fig14_skew_scaling", "fig14_skew_scaling", []),
    ("fig15_selectivity", "fig15_selectivity", []),
    ("fig16_basicunit", "fig16_basicunit", []),
    ("fig19_out_of_core", "fig19_out_of_core", []),
    ("fig20_latch_micro", "fig20_latch_micro", []),
    ("tab03_step_granularity", "tab03_step_granularity", []),
    ("grouping_divergence", "grouping_divergence", []),
    ("fig23_groupby_fused", "fig23_pipeline",
     ["--plan=groupby", "--fuse=auto"]),
    ("fig23_filter_fused", "fig23_pipeline", ["--plan=filter", "--fuse=auto"]),
    ("fig24_scenarios", "fig24_scenarios", []),
]


def run_case(bin_dir, binary, flags, json_path):
    """Runs one bench; returns (stdout bytes, json bytes)."""
    env = dict(os.environ)
    env.pop("REPRO_FULL", None)
    env["REPRO_SCALE"] = SCALE
    cmd = [os.path.join(bin_dir, binary), "--backend=sim",
           "--json=" + json_path] + flags
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode,
            proc.stderr.decode(errors="replace")))
    with open(json_path, "rb") as f:
        return proc.stdout, f.read()


def show_diff(name, want, got, limit=40):
    lines = list(difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        "golden/" + name, "run/" + name, lineterm="", n=1))
    for line in lines[:limit]:
        print("    " + line)
    if len(lines) > limit:
        print("    ... (%d more diff lines)" % (len(lines) - limit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True,
                    help="build directory holding the bench binaries")
    ap.add_argument("--update", action="store_true",
                    help="rewrite tests/golden/ from this build")
    args = ap.parse_args()

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    failed = []
    with tempfile.TemporaryDirectory(prefix="sim_goldens_") as tmp:
        for name, binary, flags in CASES:
            out, js = run_case(args.bin_dir, binary, flags,
                               os.path.join(tmp, name + ".json"))
            status = "wrote" if args.update else "ok"
            for ext, got in ((".out", out), (".json", js)):
                path = os.path.join(GOLDEN_DIR, name + ext)
                if args.update:
                    with open(path, "wb") as f:
                        f.write(got)
                    continue
                if not os.path.exists(path):
                    print("MISSING %s (run with --update)" % path)
                    failed.append(name + ext)
                    status = "FAIL"
                    continue
                with open(path, "rb") as f:
                    want = f.read()
                if want != got:
                    print("DIFF %s%s" % (name, ext))
                    show_diff(name + ext, want, got)
                    failed.append(name + ext)
                    status = "FAIL"
            print("%-6s %s" % (status, name))
    if failed:
        print("%d golden file(s) differ: %s" % (len(failed), " ".join(failed)))
        return 1
    print("%d case(s) %s" % (len(CASES),
                             "regenerated" if args.update else "identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
