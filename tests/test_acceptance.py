"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values at the stated tolerance."""
import time

import numpy as np
import pytest

from chemoplast import analytic, assembly as asm, constitutive as ct
from chemoplast import mesh as msh, scenarios as sc, sparse_linalg as sla, transient as tr
from conftest import build_strip_mesh, build_two_element_square


@pytest.fixture
def report(capfd):
    def _report(num, ok, detail, t0):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({time.perf_counter() - t0:6.1f} s): {detail}"
        with capfd.disabled():
            print(line)
        assert ok, line
    return _report


def _run(cfg_text):
    cfg = sc.load_config(cfg_text)
    scen = sc.build_scenario(cfg)
    hist, fields = tr.run(scen, scen.solver)
    return scen, hist, fields


VALIDATION_CFG = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.005
material.preset = steel_table1
loading.kind = traction
loading.p = 100e6
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = off
solver.dt_hat = 5e-4
solver.t_end_hat = 0.02
"""

RELAXATION_CFG = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.005
material.preset = steel_table1
material.sigma_y0 = 80e6
loading.kind = displacement
loading.u_bar = 4.33e-4
loading.t_ramp_hat = 0.004
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = {plast}
solver.dt_hat = 1e-3
solver.t_end_hat = 0.02
probes.load_axis = 0.05, 0.0
probes.transverse = 0.0, 0.05
"""

CONTRAST_CFG = """
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

PARTICLE_CFG = """
geometry.kind = annulus
geometry.r_i = {ri}
geometry.r_o = 5e-6
geometry.target_h = 4e-7
material.preset = graphite_table2
loading.kind = flux
loading.J = 4e-4
concentration.initial_hat = 0.0
coupling.mode = {mode}
plasticity.enabled = {plast}
solver.dt_hat = 0.0015
solver.t_end_hat = 0.06
solver.newton_rel_tol = 1e-6
solver.newton_max_iter = 60
probes.inner = {ri}, 0.0
probes.outer = 5e-6, 0.0
"""

CONSERVATION_CFG = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.05
geometry.target_h = 0.0065
material.preset = steel_table1
material.sigma_y0 = 80e6
loading.kind = displacement
loading.u_bar = 4.33e-4
loading.t_ramp_hat = 0.004
concentration.insulated = on
concentration.initial_hat = 0.3
coupling.mode = {mode}
plasticity.enabled = on
solver.dt_hat = 2e-4
solver.t_end_hat = 0.02
"""


def test_criterion_01_lambert_kernel(report):
    t0 = time.perf_counter()
    x = np.concatenate([np.logspace(-6, 6, 1000),
                        np.linspace(-1.0 / np.e + 1e-12, -1e-9, 100)])
    w = analytic.lambert_w(x)
    defect = np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    w1_err = abs(analytic.lambert_w(1.0) - 0.5 * (lo + hi))
    runtime = time.perf_counter() - t0

    ok = defect.max() <= 1e-12 and w1_err <= 1e-12 and runtime < 1.0
    report(1, ok, f"max identity defect {defect.max():.2e} (<=1e-12), "
                  f"|W(1)-bisection| {w1_err:.2e} (<=1e-12), runtime {runtime:.2f}s (<1s)", t0)


def test_criterion_02_patch_test(report, steel):
    t0 = time.perf_counter()
    m = msh.generate_plate_with_hole(1.0, 0.25, 0.11)
    dm = asm.DofMap(m.n_nodes)
    f0 = asm.FieldState.zeros(m, c0=1.0)
    res, jac, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 1.0, "one-way")
    a, b, c, d = 2e-4, -1e-4, 3e-5, 1.5e-4
    cons = []
    for n in np.unique(m.boundary_edges):
        x, y = m.nodes[n]
        cons += [(3 * n, a * x + b * y), (3 * n + 1, c * x + d * y)]
    cons += [(3 * n + 2, 1.0) for n in range(m.n_nodes)]
    A, rhs = sla.apply_dirichlet(jac, -res, cons)
    u, cvec = dm.split(sla.solve(A, rhs))
    f1 = f0.copy(); f1.u = u; f1.c = cvec
    _, _, states, _ = asm.assemble_system(m, dm, f1, f0, steel, 1.0, "one-way",
                                          want_jacobian=False)
    sig = states.sigma.reshape(-1, 4)
    spread = np.abs(sig - sig.mean(axis=0)).max() / np.abs(sig).max()
    runtime = time.perf_counter() - t0
    ok = spread <= 1e-10 and runtime < 5.0
    report(2, ok, f"{m.n_elements} elements, stress spread {spread:.2e} (<=1e-10 rel), "
                  f"runtime {runtime:.2f}s (<5s)", t0)


def test_criterion_03_slab_diffusion(report):
    t0 = time.perf_counter()
    m = build_strip_mesh(100)
    params = ct.MaterialParams(E=1e9, nu=0.3, D=1.0, Omega=1e-12, T=300.0)
    bcs = asm.BoundaryConditions(
        dirichlet_u=[(t, cmp, 0.0) for t in ("left", "right", "top", "bottom")
                     for cmp in (0, 1)],
        dirichlet_c=[("left", 1.0)])
    scen = sc.Scenario(mesh=m, params=params, bcs=bcs, probes=[],
                       scales=analytic.nondim_scales(params, 1.0), c_initial=0.0,
                       solver=None)
    xs = np.linspace(0.0, 1.0, 101)
    c_ex = analytic.slab_series(xs, 0.1, 1.0, 1.0, n_terms=60)

    def l2_err(dt):
        scen.solver = tr.SolverConfig(dt=dt, t_end=0.1, mode="one-way", plasticity=False)
        _, fields = tr.run(scen, scen.solver)
        return np.sqrt(np.trapezoid((fields.c[:101] - c_ex) ** 2, xs)
                       / np.trapezoid(c_ex**2, xs))

    err_target = l2_err(1e-3)
    errs = [l2_err(4e-3), l2_err(2e-3), err_target]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    runtime = time.perf_counter() - t0
    ok = err_target <= 0.01 and min(orders) >= 0.9 and runtime < 30.0
    report(3, ok, f"L2 err {err_target:.2e} (<=1e-2) at t_hat=0.1, dt-halving orders "
                  f"{orders[0]:.2f}/{orders[1]:.2f} (>=0.9), runtime {runtime:.1f}s (<30s)", t0)


def test_criterion_04_material_point(report, steel_plastic, steel_kinematic):
    t0 = time.perf_counter()
    eps = np.linspace(0.0, 4e-3, 81)
    s = ct.drive_material_point_uniaxial(steel_plastic, eps)
    oracle = 404.36e6
    iso_err = abs(s[-1] - oracle) / oracle

    up = np.linspace(0.0, 8e-3, 161)
    path = np.concatenate([up, up[-2::-1], -up[1:161]])
    sk = ct.drive_material_point_uniaxial(steel_kinematic, path)
    peak = sk[160]
    unload = sk[160:]
    elastic_line = peak + steel_kinematic.E * (path[160:] - path[160])
    dev = np.flatnonzero(np.abs(unload - elastic_line) > 1e-3 * steel_kinematic.sigma_y0)
    re_yield = unload[dev[0]]
    bauschinger = abs(re_yield) < peak and abs(re_yield - (peak - 2 * steel_kinematic.sigma_y0)) \
        < 0.05 * steel_kinematic.sigma_y0
    runtime = time.perf_counter() - t0
    ok = iso_err <= 1e-3 and bauschinger and runtime < 1.0
    report(4, ok, f"stress at eps=4e-3: {s[-1] / 1e6:.2f} MPa vs 404.36 (err {iso_err:.2e} <=1e-3); "
                  f"kinematic re-yield {re_yield / 1e6:.1f} MPa after peak {peak / 1e6:.1f} "
                  f"(early re-yield: {bauschinger}); runtime {runtime:.2f}s (<1s)", t0)


def test_criterion_05_mass_conservation(report):
    t0 = time.perf_counter()
    details = []
    ok = True
    for mode in ("oneway", "twoway"):
        t_run = time.perf_counter()
        scen, hist, fields = _run(CONSERVATION_CFG.format(mode=mode))
        tot = np.array([r["total_concentration"] for r in hist.records])
        drift = float(np.max(np.abs(np.diff(tot))) / tot[0])
        runtime = time.perf_counter() - t_run
        n_steps = len(hist.times)
        plastic = hist.records[-1]["max_eps_p_eq"] > 0
        ok = ok and drift <= 1e-8 and runtime < 120.0 and n_steps >= 100 and plastic
        details.append(f"{mode}: drift {drift:.2e} over {n_steps} steps "
                       f"({scen.mesh.n_elements} elems, {runtime:.0f}s, plastic={plastic})")
    report(5, ok, "; ".join(details) + " (<=1e-8/step, <2min)", t0)


def test_criterion_06_analytic_validation(report):
    t0 = time.perf_counter()
    scen, hist, fields = _run(VALIDATION_CFG)
    rows = sc.analytic_comparison(scen, fields)
    by_angle = {round(r["beta"], 6): r for r in rows}
    angles = [0.0, round(np.pi / 4, 6), round(np.pi / 2, 6)]
    sh_errs, c_errs = [], []
    for a in angles:
        r = by_angle[a]
        sh_errs.append(abs(r["sigma_h_fe"] - r["sigma_h_exact"]) / abs(r["sigma_h_exact"]))
        c_errs.append(abs(r["c_fe"] - r["c_exact"]) / abs(r["c_exact"]))
    sh = np.array([r["sigma_h_fe"] for r in rows])
    cc = np.array([r["c_fe"] for r in rows])
    monotone = bool(np.all(np.diff(sh) > 0))
    ordered = bool(np.all(np.diff(cc) > 0))
    runtime = time.perf_counter() - t0
    ok = max(sh_errs) <= 0.10 and max(c_errs) <= 0.10 and monotone and ordered \
        and runtime < 300.0
    report(6, ok, f"sigma_h errs at beta=0,pi/4,pi/2: "
                  f"{'/'.join(f'{e * 100:.1f}%' for e in sh_errs)} (<=10%), c errs: "
                  f"{'/'.join(f'{e * 100:.1f}%' for e in c_errs)} (<=10%), "
                  f"sigma_h monotone {monotone}, c ordered {ordered}", t0)


def test_criterion_07_plastic_relaxation(report):
    t0 = time.perf_counter()
    _, h_el, _ = _run(RELAXATION_CFG.format(plast="off"))
    _, h_pl, hist_fields = _run(RELAXATION_CFG.format(plast="on"))
    peaks = {}
    for probe in ("load_axis", "transverse"):
        peaks[probe] = (np.abs(h_el.probe_series(probe, "sigma_h")).max(),
                        np.abs(h_pl.probe_series(probe, "sigma_h")).max())
    below = all(pl < el for el, pl in peaks.values())
    cT_el = h_el.probe_series("transverse", "c")[-1]
    cT_pl = h_pl.probe_series("transverse", "c")[-1]
    cA_el = h_el.probe_series("load_axis", "c")[-1]
    cA_pl = h_pl.probe_series("load_axis", "c")[-1]
    conc_ok = cT_pl < cT_el and cA_pl > cA_el
    runtime = time.perf_counter() - t0
    ok = below and conc_ok and runtime < 300.0
    detail = ", ".join(f"{p}: |sh| {el / 1e6:.1f}->{pl / 1e6:.1f} MPa"
                       for p, (el, pl) in peaks.items())
    report(7, ok, f"{detail} (plastic strictly below), tensile c {cT_el:.5f}->{cT_pl:.5f} "
                  f"(lower), compressive c {cA_el:.5f}->{cA_pl:.5f} (higher)", t0)


def test_criterion_08_coupling_contrast(report):
    t0 = time.perf_counter()
    _, h1, _ = _run(CONTRAST_CFG.format(mode="oneway"))
    cA = h1.probe_series("A", "c")
    cB = h1.probe_series("B", "c")
    reach = max(abs(cA[-1] - 1.0), abs(cB[-1] - 1.0))
    a_leads = bool(np.all(cA >= cB - 1e-12))

    _, h2, _ = _run(CONTRAST_CFG.format(mode="twoway"))
    shA = h2.probe_series("A", "sigma_h")[-1]
    shB = h2.probe_series("B", "sigma_h")[-1]
    c2A = h2.probe_series("A", "c")[-1]
    c2B = h2.probe_series("B", "c")[-1]
    tensile, compressive = ("B", "A") if shB > shA else ("A", "B")
    c_tens = c2B if tensile == "B" else c2A
    c_comp = c2A if compressive == "A" else c2B
    reversed_order = c_tens > c_comp and tensile == "B"
    runtime = time.perf_counter() - t0
    ok = reach <= 0.01 and a_leads and reversed_order and runtime < 600.0
    report(8, ok, f"one-way |c-1| at end {reach:.4f} (<=0.01), A>=B throughout {a_leads}; "
                  f"two-way tensile probe {tensile} (sh {max(shA, shB) / 1e6:.0f} MPa) c={c_tens:.3f} "
                  f"> compressive c={c_comp:.3f} (reversed)", t0)


def test_criterion_09_particle(report):
    t0 = time.perf_counter()
    ri = 2.5e-6
    sA, hA, fA = _run(PARTICLE_CFG.format(ri=ri, mode="twoway", plast="on"))
    sB, hB, fB = _run(PARTICLE_CFG.format(ri=ri, mode="oneway", plast="on"))
    sC, hC, fC = _run(PARTICLE_CFG.format(ri=ri, mode="oneway", plast="off"))
    sD, hD, fD = _run(PARTICLE_CFG.format(ri=0.0, mode="oneway", plast="off")
                      + f"probes.ref = {ri}, 0.0\n")

    signs = bool(np.all(hA.probe_series("outer", "sigma_h") < 0)
                 and np.all(hA.probe_series("inner", "sigma_h") > 0))
    two_gt_one = hA.probe_series("inner", "c")[-1] > hB.probe_series("inner", "c")[-1]
    blind = float(np.max(np.abs(fB.c - fC.c)) / sB.params.c_max)
    peak_void = hC.probe_series("inner", "sigma_h").max()
    peak_disk = hD.probe_series("ref", "sigma_h").max()
    void_higher = peak_void > peak_disk
    plastic = hA.records[-1]["max_eps_p_eq"] > 0
    runtime = time.perf_counter() - t0
    ok = signs and two_gt_one and blind <= 1e-10 and void_higher and plastic \
        and runtime < 4 * 300.0
    report(9, ok, f"charging signs outer<0/inner>0 {signs}; two-way c_inner "
                  f"{hA.probe_series('inner', 'c')[-1]:.0f} > one-way "
                  f"{hB.probe_series('inner', 'c')[-1]:.0f}; plasticity-blind one-way "
                  f"|dc_hat| {blind:.1e} (<=1e-10); void peak {peak_void / 1e6:.1f} MPa > "
                  f"disk ref {peak_disk / 1e6:.1f} MPa", t0)


def test_criterion_10_jacobian_consistency(report, steel, rng):
    t0 = time.perf_counter()
    m = build_two_element_square()
    dm = asm.DofMap(4)
    f0 = asm.FieldState.zeros(m, c0=100.0)
    f1 = f0.copy()
    f1.u = rng.normal(scale=1e-5, size=(4, 2))
    f1.c = 100.0 + rng.normal(scale=5.0, size=4)
    _, jac, _, sh0 = asm.assemble_system(m, dm, f1, f0, steel, 0.5, "two-way")
    J = jac.toarray()
    base, _, _, _ = asm.assemble_system(m, dm, f1, f0, steel, 0.5, "two-way",
                                        frozen_sigma_h=sh0, want_jacobian=False)
    eps = 1e-7
    max_err = 0.0
    for j in range(dm.n_dofs):
        w = dm.join(f1.u, f1.c)
        w[j] += eps
        u, c = dm.split(w)
        fp = f0.copy(); fp.u, fp.c = u, c
        rp, _, _, _ = asm.assemble_system(m, dm, fp, f0, steel, 0.5, "two-way",
                                          frozen_sigma_h=sh0, want_jacobian=False)
        col = (rp - base) / eps
        scale = max(np.abs(J[:, j]).max(), 1.0)
        max_err = max(max_err, np.abs(col - J[:, j]).max() / scale)

    # Newton count on the elastic one-way displacement problem
    cfg = sc.load_config(CONTRAST_CFG.format(mode="oneway")
                         .replace("geometry.target_h = 0.008", "geometry.target_h = 0.03")
                         .replace("solver.t_end_hat = 2.0", "solver.t_end_hat = 0.2"))
    scen = sc.build_scenario(cfg)
    hist, _ = tr.run(scen, scen.solver)
    iters = max(r["newton_iters"] for r in hist.records)
    runtime = time.perf_counter() - t0
    ok = max_err <= 1e-5 and iters <= 2 and runtime < 5.0
    report(10, ok, f"max FD column error {max_err:.2e} (<=1e-5); elastic one-way Newton "
                   f"max {iters} iters/step (<=2); runtime {runtime:.2f}s (<5s)", t0)
