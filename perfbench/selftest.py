"""Self-test of the benchmark's trace and checks.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, runs two traced repeats at the default seed (each also
compared against the stored reference outputs) and checks that

- the counts repeat exactly: the program is deterministic, so a count that
  drifts means the trace is wrong;
- the per-layer self times sum to the traced wall time within 5%;
- on ``plate_plastic_twoway``, factorization plus assembly cover at least
  80% of the wall time, the split the solver's profile shows;

and that ``BENCHMARK.json`` names the workloads and metrics that
``run.py`` reports, with the same units.

Exits with 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
import tracer
import workloads

EXACT_COUNTS = ("sparse_linalg.factor_calls", "transient.newton_iters", "assembly.calls",
                "transient.stagger_passes", "sparse_linalg.fill_ratio",
                "constitutive.plastic_qp_frac")
SELF_SUM_TOL = 0.05
PLASTIC_SPLIT_MIN = 0.80


def traced_repeat(runner):
    tr = tracer.Tracer()
    tr.install()
    try:
        r = runner.attempt(workloads.DEFAULT_SEED,
                           lambda scenario, history, wall_s:
                           tracer.layer_metrics(tr, wall_s, scenario, history))
    finally:
        tr.uninstall()
    if r is None:
        raise RuntimeError(runner.errors[-1])
    return r.layers, r.wall_s, tr.missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    scenarios = run.import_program()
    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    report({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
           "BENCHMARK.json lists workloads of workloads.py")
    report({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches run.py")
    report({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER,
           "BENCHMARK.json per_layer matches tracer.py")

    for name in args.workload or list(workloads.WORKLOADS):
        runner = run.Runner(scenarios, workloads.WORKLOADS[name])
        (a, wall_a, missing), (b, _, _) = traced_repeat(runner), traced_repeat(runner)
        report(not missing, f"{name}: every traced function found {missing or ''}")
        for key in EXACT_COUNTS:
            report(a[key] == b[key], f"{name}: {key} repeats exactly ({a[key]!r}, {b[key]!r})")
        frac = a["trace.self_sum_frac"]
        report(abs(frac - 1.0) <= SELF_SUM_TOL,
               f"{name}: layer self times sum to {frac:.4f} of the traced wall time")
        if name == "plate_plastic_twoway":
            covered = (a["sparse_linalg.factor_s"]
                       + 1e-3 * a["assembly.ms_per_call"] * a["assembly.calls"]) / wall_a
            report(covered >= PLASTIC_SPLIT_MIN,
                   f"{name}: factorization + assembly cover {covered:.1%} of wall time "
                   f"(>= {PLASTIC_SPLIT_MIN:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
