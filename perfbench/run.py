"""Benchmark of the coupled solver, from config text to written outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process, one client, closed loop: each repeat starts after the previous
one has finished. A repeat drives the path ``chemoplast.cli.main`` uses:
``load_config`` -> ``build_scenario`` -> ``run_scenario`` (->
``analytic_comparison`` -> ``write_analytic_comparison``). Repeats with the
seeded inputs run until ``--seconds`` have passed (at least ``MIN_REPEATS``
of them). Every repeat's outputs are checked (see ``workloads.check``); at
the default seed they are also compared against the stored reference
outputs, and every run starts with one untimed repeat at the default seed
for that comparison, which also lets lazy imports and caches fill before
timing. A repeat that raises or fails a check counts as failed.

Every end-to-end timing is scaled to a fixed host speed (see
``calibration``): a fixed NumPy/SciPy kernel is timed between the repeats,
and a repeat's times are multiplied by ``calibration.REF_S`` over the mean
kernel time just before and after it. The unscaled repeat times and the
kernel times are printed on the ``notes`` line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- ``wall_s``: median seconds of a repeat, from config text to all outputs;
- ``setup_s``: median seconds of ``load_config`` + ``build_scenario`` (mesh,
  boundary conditions, probe location), taken in every repeat and in
  ``SETUP_PER_REPEAT`` set-up-only passes after it;
- ``step_ms_p50`` / ``step_ms_p90``: milliseconds per committed time step,
  dt halvings included, pooled over the repeats. A repeat's first step is
  left out: its sample also holds ``transient.run``'s own set-up
  (``precompute``, the dof map, probe location, lumped masses), which
  ``wall_s`` and the traced ``assembly.precompute_s`` cover;
- ``peak_rss_mb``: peak resident memory of the fresh process after the
  untimed first repeat, read before the kernel allocates anything.

With ``--trace 1`` it reports the per-layer metrics (``tracer.PER_LAYER``) of
traced repeats, which alternate with untraced ones so that the tracing
overhead is measured too; per-layer times are not scaled. Lines before
the last give the environment, the sample counts, ``fail_frac`` (failed /
attempted repeats; also in the ``failed`` and ``attempted`` fields) and,
where it applies, the closed-form error ``analytic_err``: these two are never
timed and can be zero, so they are not among the end-to-end metrics.

``--write-reference`` reruns the default seed and stores its final fields.
"""
from __future__ import annotations

import os

# SuperLU is single-threaded; pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_REPEATS = 3            # timed repeats per run, even if --seconds is short
SETUP_PER_REPEAT = 10      # extra set-up-only passes after each timed repeat

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms_p50": "ms",
                    "step_ms_p90": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import the solver from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chemoplast" / "__init__.py").is_file():
        raise ImportError(f"no chemoplast package under {src}")
    sys.path.insert(0, str(src))
    import chemoplast
    if Path(chemoplast.__file__).resolve().parent != (src / "chemoplast").resolve():
        raise ImportError(f"chemoplast imported from {chemoplast.__file__}, not {src}")
    from chemoplast import scenarios
    return scenarios


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed, factor):
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit(), "seed": seed, "load_factor": factor}


@dataclass
class Repeat:
    """Timings and results of one run from config text to written outputs;
    it keeps no reference to the run's mesh, fields or history."""
    wall_s: float
    setup_s: float
    step_s: list             # seconds per committed step after the first
    analytic_err: float | None
    layers: dict | None      # per-layer metrics, if ``inspect`` was given


def run_repeat(scenarios, workload, seed, out_dir, inspect=None):
    """Run and check one repeat; raises on any failure. ``inspect(scenario,
    history, wall_s)``, if given, returns the repeat's per-layer metrics.
    Garbage left by earlier repeats is collected before the clock starts."""
    text = workload.config_text(seed)
    step_s = []
    last = [0.0]

    def progress(step_no, record, fields):
        now = time.perf_counter()
        step_s.append(now - last[0])
        last[0] = now

    gc.collect()
    t0 = time.perf_counter()
    scenario = scenarios.build_scenario(scenarios.load_config(text))
    t1 = last[0] = time.perf_counter()
    history, fields = scenarios.run_scenario(scenario, output_dir=out_dir, progress=progress)
    rows = None
    if workload.analytic:
        rows = scenarios.analytic_comparison(scenario, fields)
        scenarios.write_analytic_comparison(rows, out_dir / "analytic_comparison.csv")
    t2 = time.perf_counter()
    err = workloads.check(workload, history, fields, rows, out_dir, seed)
    layers = inspect(scenario, history, t2 - t0) if inspect is not None else None
    return Repeat(t2 - t0, t1 - t0, step_s[1:], err, layers)


class Runner:
    """Runs repeats of one workload and counts the attempted and failed ones."""

    def __init__(self, scenarios, workload):
        self.scenarios = scenarios
        self.workload = workload
        self.out_dir = OUT_ROOT / workload.name
        self.attempted = 0
        self.errors = []

    def attempt(self, seed, inspect=None):
        """One repeat; a failure is recorded and returns None."""
        self.attempted += 1
        try:
            return run_repeat(self.scenarios, self.workload, seed, self.out_dir, inspect)
        except Exception as err:  # any failure of the program counts against it
            self.errors.append(f"{type(err).__name__}: {err}")
            print(f"repeat failed: {type(err).__name__}: {err}", file=sys.stderr)
            return None


def _setup_only(scenarios, text):
    gc.collect()
    times = []
    for _ in range(SETUP_PER_REPEAT):
        t0 = time.perf_counter()
        scenarios.build_scenario(scenarios.load_config(text))
        times.append(time.perf_counter() - t0)
    return times


def measure(runner, seed, seconds, peak_rss_mb):
    """Untraced repeats for ``seconds``, each between two kernel runs;
    returns (end-to-end metrics, notes)."""
    done, setups, steps, kernels = [], [], [], [calibration.kernel()]
    text = runner.workload.config_text(seed)
    t_start = time.perf_counter()
    while len(kernels) <= MIN_REPEATS or time.perf_counter() - t_start < seconds:
        r = runner.attempt(seed)
        extra = _setup_only(runner.scenarios, text) if r is not None else []
        kernels.append(calibration.kernel())
        if r is None:
            continue
        f = calibration.scale(kernels[-2], kernels[-1])
        done.append((r, f))
        setups += [f * s for s in [r.setup_s] + extra]
        steps += [f * s for s in r.step_s]
    if not done:
        return {}, {}
    p50, p90 = 1e3 * np.percentile(steps, [50, 90])
    metrics = {
        "wall_s": statistics.median(f * r.wall_s for r, f in done),
        "setup_s": statistics.median(setups),
        "step_ms_p50": float(p50),
        "step_ms_p90": float(p90),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"repeats": len(done), "step_samples": len(steps),
             "steps_beyond_p90": sum(1 for s in steps if 1e3 * s > p90),
             "setup_samples": len(setups),
             "unscaled_wall_s": statistics.median(r.wall_s for r, _ in done),
             "repeat_wall_s": [round(r.wall_s, 4) for r, _ in done],
             "kernel_s": [round(k, 4) for k in kernels]}
    if done[0][0].analytic_err is not None:
        notes["analytic_err"] = statistics.median(r.analytic_err for r, _ in done)
    return metrics, notes


def measure_traced(runner, seed, seconds):
    """Untraced and traced repeats, alternating, for ``seconds`` (at least two
    of each); returns (per-layer metrics, notes). Each per-layer value is the
    median over the traced repeats."""
    tr = tracer.Tracer()
    walls = {False: [], True: []}
    traced = []

    def inspect(scenario, history, wall_s):
        m = tracer.layer_metrics(tr, wall_s, scenario, history)
        m["scenarios.output_bytes"] = float(sum(
            (runner.out_dir / name).stat().st_size for name in runner.workload.outputs()))
        return m

    t_start = time.perf_counter()
    attempted_before = runner.attempted
    while runner.attempted - attempted_before < 4 or time.perf_counter() - t_start < seconds:
        for trace_on in (False, True):
            if trace_on:
                tr.clear()
                tr.install()
            try:
                r = runner.attempt(seed, inspect if trace_on else None)
            finally:
                tr.uninstall()
            if r is not None:
                walls[trace_on].append(r.wall_s)
                if trace_on:
                    r.layers["analytic.err"] = r.analytic_err or 0.0
                    traced.append(r.layers)
    if not walls[False] or not traced:
        return {}, {}
    wall_plain, wall_traced = statistics.median(walls[False]), statistics.median(walls[True])
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    notes = {"traced_repeats": len(traced), "untraced_repeats": len(walls[False]),
             "traced_wall_s": wall_traced, "untraced_wall_s": wall_plain,
             "not_traced": tr.missing}
    return {k: metrics[k] for k in tracer.PER_LAYER}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    try:
        scenarios = import_program()
    except ImportError as err:
        print(f"error: cannot import the solver: {err}", file=sys.stderr)
        return 2

    if args.write_reference:
        config = scenarios.load_config(workload.config_text(workloads.DEFAULT_SEED))
        _, fields = scenarios.run_scenario(scenarios.build_scenario(config),
                                           output_dir=OUT_ROOT / workload.name)
        workloads.write_reference(workload, fields)
        print(f"wrote {workloads.reference_path(workload)}")
        return 0

    runner = Runner(scenarios, workload)
    # untimed, at the default seed: every run compares the program's outputs
    # against the stored reference
    runner.attempt(workloads.DEFAULT_SEED)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics, notes = measure_traced(runner, seed, args.seconds)
        units = {k: tracer.PER_LAYER[k][0] for k in metrics}
    else:
        metrics, notes = measure(runner, seed, args.seconds, peak_rss_mb)
        units = END_TO_END_UNITS
    attempted, failed = runner.attempted, len(runner.errors)

    env = environment(seed, workloads.load_factor(seed))
    print("env " + json.dumps(env))
    print("notes " + json.dumps(notes))
    print(f"workload {workload.name}: fail_frac {failed / attempted:.4f} "
          f"({failed}/{attempted} repeats, reference outputs checked)")
    for err in runner.errors:
        print(f"  failure: {err}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:14.6g} {units[k]}")
    if "analytic_err" in notes:
        print(f"  {'analytic_err':40s} {notes['analytic_err']:14.6g} ratio")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
