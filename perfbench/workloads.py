"""The benchmark scenarios, their seeded inputs and their output checks.

Each workload is an acceptance-suite config (see ``tests/test_acceptance.py``)
shortened so that one repeat takes a few seconds on a 2-core machine while
the mesh, and so the per-call cost of every layer, keeps its acceptance size.
The seed reaches the program only through the generated config text: it
scales the load magnitude (``u_bar`` or ``p``) by a factor in
[0.98, 1.02].

The plastic plate is the changing-matrix path (plastic return, a second
stagger pass, two-way drift); the elastic one-way plate the constant-matrix
path (``K_uu`` and ``K_cc`` never change, one Newton iteration a step); the
hole validation has the largest matrix and is the only one that uses the
``analytic`` layer. Between them they reach every layer of the solver. The
particle run of criterion 9 (annulus mesh, flux loading) is not among them:
it was steady, but a fourth workload does not fit runs long enough for the
plastic plate's four-second repeats in the benchmark's time budget.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-6
DRIFT_TOL = 1e-8          # criterion 5: conservation drift per step
ANALYTIC_TOL = 0.10       # criterion 6: relative error on the hole boundary

# Plastic two-way plate (criterion 5), cut to 8 steps: 6 elastic ones of 2-3
# Newton iterations, then 2 that flow plastically, with 5-6 iterations and a
# second stagger pass each. Of the 7 timed steps (the first is left out) 5
# are elastic, of which 3-4 take 3 iterations, and 2 plastic, so the median
# falls inside the 3-iteration steps and p90 inside the plastic ones rather
# than on the edge between two groups. Whether a plastic step takes 5
# iterations or 6 depends on the seed's load factor; seeds 0-9 all have at
# least one 6-iteration step among the two. A faster ramp or a lower yield
# stress would reach plastic flow sooner, but the first step then needs a dt
# halving.
PLATE_PLASTIC = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.0065
material.preset = steel_table1
material.sigma_y0 = 80e6
loading.kind = displacement
loading.u_bar = {load!r}
loading.t_ramp_hat = 0.004
concentration.insulated = on
concentration.initial_hat = 0.3
coupling.mode = twoway
plasticity.enabled = on
solver.dt_hat = 2e-4
solver.t_end_hat = 0.0016
"""

# Elastic one-way plate (criterion 8), cut to 40 steps: K_uu and K_cc never
# change, and every step takes one Newton iteration.
PLATE_ELASTIC = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.008
material.preset = steel_table1
loading.kind = displacement
loading.u_bar = {load!r}
loading.t_ramp_hat = 0.25
concentration.initial_hat = 0.0
coupling.mode = oneway
plasticity.enabled = off
solver.dt_hat = 0.02
solver.t_end_hat = 0.8
"""

# Traction-loaded insulated plate with the closed-form comparison (criterion
# 6), cut to 10 steps; the error stays near criterion 6's full-length value.
# The first step takes 3 Newton iterations and the 9 timed ones 1 each, so
# that a 30 s run has about ten step times beyond p90.
HOLE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.005
material.preset = steel_table1
loading.kind = traction
loading.p = {load!r}
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = off
solver.dt_hat = 5e-4
solver.t_end_hat = 0.005
"""


class CheckFailed(AssertionError):
    """A repeat's outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    base_load: float
    insulated: bool = False       # conservation drift is checked
    plastic: bool = False         # plastic flow must be present
    analytic: bool = False        # closed-form comparison is run and checked
    max_newton_per_step: int = 0  # 0 = unchecked

    def config_text(self, seed):
        return self.template.format(load=self.base_load * load_factor(seed))

    def outputs(self):
        names = ["probes.csv", "final.vtk", "effective_config.txt"]
        return names + (["analytic_comparison.csv"] if self.analytic else [])


WORKLOADS = {w.name: w for w in (
    Workload("plate_plastic_twoway", PLATE_PLASTIC, 4.33e-4, insulated=True, plastic=True),
    Workload("plate_elastic_oneway", PLATE_ELASTIC, 8e-4, max_newton_per_step=2),
    Workload("hole_validation", HOLE, 100e6, insulated=True, analytic=True),
)}


def load_factor(seed):
    return 0.98 + 0.04 * random.Random(seed).random()


def analytic_error(rows):
    """Criterion 6's measure: the largest relative error of sigma_h and c at
    beta = 0, pi/4, pi/2, plus whether sigma_h is monotone and c ordered
    along the hole boundary."""
    by_angle = {round(r["beta"], 6): r for r in rows}
    errs = []
    for beta in (0.0, round(math.pi / 4, 6), round(math.pi / 2, 6)):
        r = by_angle[beta]
        errs.append(abs(r["sigma_h_fe"] - r["sigma_h_exact"]) / abs(r["sigma_h_exact"]))
        errs.append(abs(r["c_fe"] - r["c_exact"]) / abs(r["c_exact"]))
    sh = np.array([r["sigma_h_fe"] for r in rows])
    cc = np.array([r["c_fe"] for r in rows])
    return max(errs), bool(np.all(np.diff(sh) > 0)), bool(np.all(np.diff(cc) > 0))


def final_arrays(fields):
    return {"u": fields.u, "c": fields.c, "sigma": fields.states.sigma,
            "eps_p_eq": fields.states.eps_p_eq}


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check(workload, history, fields, rows, out_dir, seed):
    """Seed-independent physics and output checks of one repeat, plus the
    stored reference at the default seed. Returns the analytic error (or
    None). Raises CheckFailed on the first violated check."""
    for name in workload.outputs():
        path = Path(out_dir) / name
        _require(path.is_file() and path.stat().st_size > 0, f"{name} missing or empty")
    n_probe_rows = len((Path(out_dir) / "probes.csv").read_text().splitlines()) - 1
    n_samples = sum(len(s) for s in history.samples)
    _require(n_probe_rows == n_samples,
             f"probes.csv has {n_probe_rows} rows for {n_samples} samples")
    records = history.records
    _require(len(records) > 0, "no committed steps")

    if workload.insulated:
        tot = np.array([r["total_concentration"] for r in records])
        drift = float(np.max(np.abs(np.diff(tot))) / tot[0]) if tot.size > 1 else 0.0
        _require(drift <= DRIFT_TOL, f"conservation drift {drift:.2e} > {DRIFT_TOL:.0e}/step")
    if workload.plastic:
        _require(records[-1]["max_eps_p_eq"] > 0, "no plastic flow")
    if workload.max_newton_per_step:
        iters = max(r["newton_iters"] for r in records)
        _require(iters <= workload.max_newton_per_step,
                 f"{iters} Newton iterations in a step (<= {workload.max_newton_per_step})")
    err = None
    if workload.analytic:
        err, monotone, ordered = analytic_error(rows)
        _require(err <= ANALYTIC_TOL, f"analytic error {err:.3f} > {ANALYTIC_TOL}")
        _require(monotone and ordered,
                 f"hole boundary: sigma_h monotone {monotone}, c ordered {ordered}")
    if seed == DEFAULT_SEED:
        check_reference(workload, fields)
    return err


def reference_path(workload):
    return REFERENCE_DIR / f"{workload.name}.npz"


def check_reference(workload, fields):
    """Final u, c, sigma and eps_p_eq against the stored default-seed run,
    normwise relative per field."""
    with np.load(reference_path(workload)) as ref:
        for key, value in final_arrays(fields).items():
            expected = ref[key]
            _require(value.shape == expected.shape,
                     f"reference {key}: shape {value.shape} != {expected.shape}")
            scale = np.linalg.norm(expected)
            diff = np.linalg.norm(value - expected)
            rel = diff / scale if scale > 0 else diff
            _require(rel <= REFERENCE_RTOL,
                     f"reference {key}: relative difference {rel:.2e} > {REFERENCE_RTOL:.0e}")


def write_reference(workload, fields):
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(reference_path(workload), **final_arrays(fields))
