#!/usr/bin/env python3
"""One-way vs. two-way coupling on the pulled plate with a hole.

The plate is clamped on the left, pulled on the right by a ramped
displacement, and fed species through the left edge (c = 1 there). Probe A
sits on the hole boundary facing the source, probe B on top of the hole.

In one-way mode concentration only cares about distance from the source, so
A leads B and both saturate at the boundary value. In two-way mode the
hydrostatic-stress gradient drives species toward the tensile top of the
hole, and B overtakes A -- the ordering reverses.

Run:  python3 demos/02_plate_pull_coupling.py
"""
from pathlib import Path

from chemoplast import scenarios as sc, transient as tr

CONFIG = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.008
material.preset = steel_table1
loading.kind = displacement
loading.u_bar = 8e-4
loading.t_ramp_hat = 0.25
concentration.initial_hat = 0.0
coupling.mode = {mode}
plasticity.enabled = off
solver.dt_hat = 0.02
solver.t_end_hat = 2.0
"""

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for mode in ("oneway", "twoway"):
    config = sc.load_config(CONFIG.format(mode=mode))
    scenario = sc.build_scenario(config)
    history, fields = tr.run(scenario)
    sc.write_probe_csv(history, scenario, out_dir / f"plate_probes_{mode}.csv")

    cA = history.probe_series("A", "c")
    cB = history.probe_series("B", "c")
    shA = history.probe_series("A", "sigma_h")[-1]
    shB = history.probe_series("B", "sigma_h")[-1]
    print(f"\n{mode}:")
    print(f"  final sigma_h  A = {shA / 1e6:7.1f} MPa (load axis), "
          f"B = {shB / 1e6:7.1f} MPa (transverse)")
    print(f"  final c        A = {cA[-1]:.4f}, B = {cB[-1]:.4f}")
    mid = len(cA) // 2
    print(f"  mid-run c      A = {cA[mid]:.4f}, B = {cB[mid]:.4f}  "
          f"({'A leads' if cA[mid] > cB[mid] else 'B leads'})")

print(f"\nprobe time series written to {out_dir}/plate_probes_*.csv")
