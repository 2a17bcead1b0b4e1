"""Spatial orders of convergence: the code-verification check of the
discretization (Roache, *Verification and Validation in Computational
Science and Engineering*, Hermosa 1998, ch. 3).

The acceptance criteria compare the fields with closed forms at fixed meshes
within a tolerance, and criterion 3 checks the order in dt. A kernel fault
that costs accuracy (a quadrature weight, a gradient, a recovery weight) can
stay inside a tolerance, but not keep the order in h: P1 concentration
converges as h^2 under backward Euler at a fixed time step (Thomee,
*Galerkin Finite Element Methods for Parabolic Problems*, 2nd ed., Springer
2006, ch. 1), and the recovered nodal stress as h.
"""
import math

import numpy as np

from chemoplast import analytic, assembly as asm, constitutive as ct, scenarios as sc
from chemoplast import transient as tr
from conftest import build_strip_mesh


def _slab_c(nx):
    """c along the bottom edge of criterion 3's slab of ``nx`` cells at
    t = 0.1, dt = 1e-3."""
    params = ct.MaterialParams(E=1e9, nu=0.3, D=1.0, Omega=1e-12, T=300.0)
    bcs = asm.BoundaryConditions(
        dirichlet_u=[(t, cmp, 0.0) for t in ("left", "right", "top", "bottom")
                     for cmp in (0, 1)],
        dirichlet_c=[("left", 1.0)])
    scen = sc.Scenario(mesh=build_strip_mesh(nx), params=params, bcs=bcs, probes=[],
                       scales=analytic.nondim_scales(params, 1.0), c_initial=0.0,
                       solver=tr.SolverConfig(dt=1e-3, t_end=0.1, mode="one-way"))
    return tr.run(scen)[1].c[:nx + 1]


def test_slab_concentration_converges_at_second_order():
    # against a 160-cell run at the same dt, so the time error cancels:
    # orders 2.04 and 2.09
    ref = _slab_c(160)
    errs = np.array([np.sqrt(np.mean((_slab_c(nx) - ref[::160 // nx]) ** 2))
                     for nx in (10, 20, 40)])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.8), orders


# demo 05's elastic two-way hole plate, cut to two steps
HOLE_PLATE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = {h}
material.preset = steel_table1
loading.kind = traction
loading.p = 100e6
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = off
solver.dt_hat = 1e-3
solver.t_end_hat = 0.002
"""


def test_hole_sigma_h_converges_at_first_order():
    # the nodal sigma_h on the hole at 0 and 90 degrees from the load axis:
    # -36.6 / -42.1 / -44.9 MPa and 126.8 / 131.3 / 133.3 MPa, successive-
    # difference orders 0.95 and 1.15
    values = []
    for h in (0.016, 0.008, 0.004):
        scen = sc.build_scenario(sc.load_config(HOLE_PLATE.format(h=h)))
        _, fields = tr.run(scen)
        nodes, angles = sc.hole_boundary_angles(scen.mesh)
        assert np.allclose(angles[[0, -1]], [0.0, math.pi / 2])
        values.append(fields.sigma_h_nodal[[nodes[0], nodes[-1]]])
    diffs = np.abs(np.diff(values, axis=0))
    orders = np.log2(diffs[0] / diffs[1])
    assert np.all(orders >= 0.8), orders
    # the 90-degree value climbs above the infinite plate's (1 + nu) p = 130
    # MPa, towards the finite plate's roughly 133 MPa
    at_90 = np.array(values)[:, 1]
    assert np.all(np.diff(at_90) > 0) and 130e6 < at_90[-1] < 136e6, at_90
