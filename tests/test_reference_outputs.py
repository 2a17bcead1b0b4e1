"""The benchmark workloads' final fields and Newton path at the default seed.

Runs each config of ``perfbench/workloads.py`` at the default seed and
compares the final u, c, sigma and eps_p_eq with ``perfbench/reference/``
at ``REFERENCE_RTOL`` (normwise relative per field), the same check the
benchmark applies. It also pins the run totals of Newton updates, Jacobian
evaluations, block factors, kept-factor solves and CG iterations, each
block's band (n, kd), the residual passes, and the steps per Newton exit,
so that a change that moves the Newton path or the band plan, relabels
steps or stops taking a step's first pass from the committed one shows
without a benchmark run. A second run at a tenth of the fresh-solve target
shows that every fresh factor's first solve lands well inside it.
Both files are read, never written.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from chemoplast import scenarios as sc, sparse_linalg as sla, transient as tr

_WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads       # dataclasses resolve their module here
_spec.loader.exec_module(workloads)


# (Newton updates, Jacobians, factors, reused, CG iterations) over the
# default-seed run
NEWTON_PATH = {
    "plate_plastic_twoway": (26, 26, 2, 50, 64),
    "plate_elastic_oneway": (40, 40, 2, 78, 0),
    "hole_validation": (13, 13, 2, 24, 14),
}

# (n, kd) of each block's band plan at the default seed: the band is planned
# in the plates' own ring numbering, whose half-bandwidth on the node pattern
# is n_theta + 1 (K_cc), and 2 n_theta + 3 with each node expanded to its two
# u dofs (K_uu)
BAND_PLAN = {
    "plate_plastic_twoway": {"K_uu": (3105, 115), "K_cc": (1568, 57)},
    "plate_elastic_oneway": {"K_uu": (1657, 83), "K_cc": (829, 41)},
    "hole_validation": {"K_uu": (3965, 131), "K_cc": (1984, 65)},
}

# residual passes over the default-seed run: the Newton updates plus one a
# step, less one a step whose first pass came from the committed one (none
# on the plastic plate, which ramps at every step)
RESIDUAL_PASSES = {
    "plate_plastic_twoway": 34,
    "plate_elastic_oneway": 53,
    "hole_validation": 14,
}

# steps per Newton exit over the default-seed run; together they show every
# exit of transient.NEWTON_EXITS firing
NEWTON_EXIT_STEPS = {
    "plate_plastic_twoway": {"converged": 8},
    "plate_elastic_oneway": {"converged": 40},
    "hole_validation": {"converged": 9, "roundoff-floor": 1},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_final_fields_match_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    text = workload.config_text(workloads.DEFAULT_SEED)
    scenario = sc.build_scenario(sc.load_config(text))
    history, fields = sc.run_scenario(scenario, output_dir=tmp_path)
    workloads.check_reference(workload, fields)
    keys = ("newton_iters", "jacobians", "factors", "reused", "pcg_iters")
    assert tuple(sum(r[k] for r in history.records) for k in keys) == NEWTON_PATH[name]
    assert sum(r["residual_passes"] for r in history.records) == RESIDUAL_PASSES[name]
    assert Counter(r["newton_exit"] for r in history.records) == NEWTON_EXIT_STEPS[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_band_plan(name):
    text = workloads.WORKLOADS[name].config_text(workloads.DEFAULT_SEED)
    bands = tr.run_data(sc.build_scenario(sc.load_config(text))).block_solver._bands
    assert {f"K_{block}": (plan.order.size, plan.kd)
            for block, plan in bands.items()} == BAND_PLAN[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fresh_solves_reach_a_tenth_of_the_roundoff_target(name, monkeypatch, tmp_path):
    # a fresh factor's solve is not refined: at a tenth of ROUNDOFF_TOL no
    # block is reported singular (no step halves dt) and the Newton path is
    # the one pinned above
    monkeypatch.setattr(sla, "ROUNDOFF_TOL", sla.ROUNDOFF_TOL / 10.0)
    text = workloads.WORKLOADS[name].config_text(workloads.DEFAULT_SEED)
    history, _ = sc.run_scenario(sc.build_scenario(sc.load_config(text)), output_dir=tmp_path)
    assert history.events == []
    keys = ("newton_iters", "jacobians", "factors", "reused", "pcg_iters")
    assert tuple(sum(r[k] for r in history.records) for k in keys) == NEWTON_PATH[name]
