import numpy as np
import pytest

from chemoplast import analytic, assembly as asm, scenarios as sc, sparse_linalg as sla
from chemoplast import transient as tr
from chemoplast.constitutive import MaterialParams, von_mises, yield_function
from chemoplast.scenarios import Scenario
from conftest import build_strip_mesh, build_two_element_square


def diffusion_material(D=1.0):
    return MaterialParams(E=1e9, nu=0.3, D=D, Omega=1e-12, T=300.0)


def slab_scenario(nx=100, fixed_u=True):
    m = build_strip_mesh(nx)
    params = diffusion_material()
    bcs = asm.BoundaryConditions(
        dirichlet_u=[(t, c, 0.0) for t in ("left", "right", "top", "bottom") for c in (0, 1)],
        dirichlet_c=[("left", 1.0)])
    scales = analytic.nondim_scales(params, 1.0)
    return Scenario(mesh=m, params=params, bcs=bcs, probes=[("end", 1.0, 0.005)],
                    scales=scales, c_initial=0.0,
                    solver=tr.SolverConfig(dt=1e-3, t_end=0.1, mode="one-way",
                                           plasticity=False))


# coarse plate pulled past yield: every step flows plastically
COARSE_PLATE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.2
geometry.target_h = 0.07
material.preset = steel_table1
material.sigma_y0 = 80e6
loading.kind = displacement
loading.u_bar = 4.3e-4
loading.t_ramp_hat = 0.02
concentration.insulated = on
concentration.initial_hat = 0.05
coupling.mode = twoway
plasticity.enabled = on
solver.dt_hat = 0.01
solver.t_end_hat = 0.03
"""

# coarse version of the traction-loaded closed-form validation plate
COARSE_HOLE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.2
geometry.target_h = 0.07
material.preset = steel_table1
loading.kind = traction
loading.p = 100e6
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = off
solver.dt_hat = 5e-4
solver.t_end_hat = 0.0015
"""


def quiescent_scenario():
    m = build_two_element_square()
    params = MaterialParams(E=210e9, nu=0.3, D=1e-8, Omega=1.96e-6, T=300.0,
                            sigma_y0=400e6, hardening_kind="isotropic", H=2.1e9)
    bcs = asm.BoundaryConditions(pins=[(0, 0, 0.0), (0, 1, 0.0), (1, 1, 0.0)])
    scales = analytic.nondim_scales(params, 1.0)
    return Scenario(mesh=m, params=params, bcs=bcs, probes=[], scales=scales,
                    c_initial=5.0,
                    solver=tr.SolverConfig(dt=100.0, t_end=300.0, mode="two-way",
                                           plasticity=True))


class TestStep:
    def test_quiescent_step_is_identity(self):
        scen = quiescent_scenario()
        fields = tr.initial_fields(scen)
        new, info = tr.step(fields, 0.0, 100.0, scen, scen.solver)
        assert info.newton_iters <= 1
        assert info.newton_exit == "converged"
        assert np.array_equal(new.u, fields.u)
        assert np.array_equal(new.c, fields.c)
        assert np.array_equal(new.states.sigma, fields.states.sigma)
        assert np.array_equal(new.states.eps_p_eq, fields.states.eps_p_eq)

    def test_elastic_one_way_two_solves_max(self):
        scen = slab_scenario(nx=20)
        fields = tr.initial_fields(scen)
        new, info = tr.step(fields, 0.0, 1e-3, scen, scen.solver)
        assert info.newton_iters <= 2


class TestRunSlab:
    def test_matches_series_oracle(self):
        scen = slab_scenario(nx=100)
        hist, fields = tr.run(scen, scen.solver)
        xs = np.linspace(0.0, 1.0, 101)
        c_fe = fields.c[:101]
        c_ex = analytic.slab_series(xs, 0.1, 1.0, 1.0, n_terms=60)
        l2 = np.sqrt(np.trapezoid((c_fe - c_ex) ** 2, xs) / np.trapezoid(c_ex**2, xs))
        assert l2 <= 0.01
        assert all(r["newton_exit"] == "converged" for r in hist.records)

    def test_temporal_order_at_least_first(self):
        scen = slab_scenario(nx=100)
        xs = np.linspace(0.0, 1.0, 101)
        c_ex = analytic.slab_series(xs, 0.1, 1.0, 1.0, n_terms=60)
        errs = []
        for dt in (4e-3, 2e-3):
            scen.solver = tr.SolverConfig(dt=dt, t_end=0.1, mode="one-way", plasticity=False)
            _, fields = tr.run(scen, scen.solver)
            errs.append(np.sqrt(np.trapezoid((fields.c[:101] - c_ex) ** 2, xs)
                                / np.trapezoid(c_ex**2, xs)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9

    def test_history_shape_and_monotonicity(self):
        scen = slab_scenario(nx=20)
        scen.solver = tr.SolverConfig(dt=0.02, t_end=0.1, mode="one-way", plasticity=False)
        hist, _ = tr.run(scen, scen.solver)
        assert len(hist.times) == 5
        assert np.all(np.diff(hist.times) > 0)
        end = hist.probe_series("end", "c")
        assert np.all(np.diff(end) > 0)   # charging monotonically

    def test_probe_series_keys(self):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way", plasticity=False)
        hist, _ = tr.run(scen, scen.solver)
        sample = hist.samples[-1]["end"]
        for key in ("x", "y", "c", "sigma_h", "sigma_e", "eps_p_eq", "ux", "uy"):
            assert key in sample


# coarse charged particle: ramped inward flux on the outer circle, a fixed
# concentration on the inner one
COARSE_ANNULUS = """
geometry.kind = annulus
geometry.r_i = 0.25
geometry.r_o = 1.0
geometry.target_h = 0.12
material.preset = graphite_table2
loading.kind = flux
loading.J = 2.5
loading.t_ramp_hat = 0.05
concentration.dirichlet.inner = 0.2
coupling.mode = oneway
plasticity.enabled = off
solver.dt_hat = 0.02
solver.t_end_hat = 0.1
"""


def _reference_dirichlet(mesh, bcs, t):
    """Dirichlet data resolved tag by tag and node by node into a dict, as
    before the boundary plan: sorted (dof, value) pairs, a later entry
    overwriting an earlier one."""
    out = {}
    for tag, comp, value in bcs.dirichlet_u:
        v = value(t) if callable(value) else value
        for n in mesh.nodes_with_tag(tag):
            out[3 * int(n) + comp] = float(v)
    for node, comp, value in bcs.pins:
        v = value(t) if callable(value) else value
        out[3 * int(node) + comp] = float(v)
    for tag, value in bcs.dirichlet_c:
        v = value(t) if callable(value) else value
        for n in mesh.nodes_with_tag(tag):
            out[3 * int(n) + 2] = float(v)
    return sorted(out.items())


def _reference_neumann(mesh, bcs, t):
    """Traction and flux load built per tag with closures and np.add.at, as
    before the boundary plan."""
    dm = asm.DofMap(mesh.n_nodes)
    load = np.zeros(dm.n_dofs)
    gauss = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))

    def edge_accumulate(tag, pay):
        edges = mesh.edges_with_tag(tag)
        lengths = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
        for s in gauss:
            pay(edges, 0.5 * lengths, 1.0 - s, s)

    for tag, vec in bcs.tractions:
        tx, ty = (v(t) if callable(v) else v for v in vec)

        def pay(edges, w, na, nb, tx=tx, ty=ty):
            np.add.at(load, dm.ux(edges[:, 0]), w * na * tx)
            np.add.at(load, dm.uy(edges[:, 0]), w * na * ty)
            np.add.at(load, dm.ux(edges[:, 1]), w * nb * tx)
            np.add.at(load, dm.uy(edges[:, 1]), w * nb * ty)
        edge_accumulate(tag, pay)

    for tag, j_in in bcs.fluxes:
        j = j_in(t) if callable(j_in) else j_in

        def pay(edges, w, na, nb, j=j):
            np.add.at(load, dm.c(edges[:, 0]), w * na * j)
            np.add.at(load, dm.c(edges[:, 1]), w * nb * j)
        edge_accumulate(tag, pay)
    return load


def overlap_scenario():
    """Strip whose Dirichlet entries overlap at the corners with different
    values, one of them time-dependent: the later entry must win."""
    scen = slab_scenario(nx=10)
    scen.bcs = asm.BoundaryConditions(
        dirichlet_u=[("bottom", 0, 1.0), ("left", 0, lambda t: 2.0 + t),
                     ("right", 1, 3.0), ("bottom", 1, -1.0)],
        pins=[(0, 0, 5.0)],
        dirichlet_c=[("left", 0.5), ("right", lambda t: 0.25 * t)])
    return scen


BOUNDARY_SCENARIOS = {
    "plate": lambda: sc.build_scenario(sc.load_config(
        COARSE_PLATE.replace("concentration.insulated = on\n", ""))),
    "traction": lambda: sc.build_scenario(sc.load_config(COARSE_HOLE)),
    "annulus": lambda: sc.build_scenario(sc.load_config(COARSE_ANNULUS)),
    "slab": slab_scenario,
    "overlap": overlap_scenario,
}


class TestBoundaryPlan:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_SCENARIOS))
    def test_dirichlet_matches_reference(self, name):
        scen = BOUNDARY_SCENARIOS[name]()
        plan = asm.plan_boundary(scen.mesh, scen.bcs)
        assert plan.fixed_dofs.dtype == np.int64
        for t in (0.0, 0.3 * scen.solver.t_end, scen.solver.t_end):
            ref = _reference_dirichlet(scen.mesh, scen.bcs, t)
            assert np.array_equal(plan.fixed_dofs, [d for d, _ in ref])
            assert np.array_equal(asm.dirichlet_values(plan, t), [v for _, v in ref])

    @pytest.mark.parametrize("name", ["traction", "annulus"])
    def test_load_vector_bitwise_equal_to_reference(self, name):
        scen = BOUNDARY_SCENARIOS[name]()
        plan = asm.plan_boundary(scen.mesh, scen.bcs)
        for t in (0.3 * scen.solver.t_end, scen.solver.t_end):
            ref = _reference_neumann(scen.mesh, scen.bcs, t)
            assert np.abs(ref).max() > 0
            assert np.array_equal(asm.neumann_load_vector(plan, t), ref)

    def test_plan_once_per_run_load_once_per_step_attempt(self, call_spy):
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        plans = call_spy("plan_boundary", asm, tr)
        loads = call_spy("neumann_load_vector", asm, tr)
        hist, _ = tr.run(scen, scen.solver)
        assert sum(r["newton_iters"] for r in hist.records) > len(hist.records)
        assert len(plans) == 1
        assert not hist.events                      # one attempt per step
        assert [t for _, t in loads] == hist.times


def newton_updates(monkeypatch, config_text):
    """Run a scenario and record every Newton update as
    (jacobian, residual, fixed dofs, keep_uu, update)."""
    scen = sc.build_scenario(sc.load_config(config_text))
    seen = []
    real = sla.BlockSolver.newton_update

    def spy(self, jac, res, fixed_dofs, keep_uu=False, keep_cc=False):
        dw = real(self, jac, res, fixed_dofs, keep_uu=keep_uu, keep_cc=keep_cc)
        seen.append((jac, res, np.asarray(fixed_dofs), keep_uu, dw))
        return dw

    monkeypatch.setattr(sla.BlockSolver, "newton_update", spy)
    tr.run(scen, scen.solver)
    return seen


class TestBlockNewtonSolve:
    @pytest.mark.parametrize("text", [COARSE_PLATE, COARSE_HOLE], ids=["plastic-plate", "hole"])
    def test_update_matches_monolithic_solve(self, monkeypatch, text):
        updates = newton_updates(monkeypatch, text)
        if text is COARSE_PLATE:
            assert any(not keep_uu for _, _, _, keep_uu, _ in updates)   # plastic iterates
        is_u = np.arange(updates[0][0].n) % 3 != 2
        for jac, res, fixed, _, dw in updates:
            A, b = sla.apply_dirichlet(jac, -res, [(d, 0.0) for d in fixed])
            ref = sla.solve(A, b)
            for block in (is_u, ~is_u):
                assert np.linalg.norm(dw[block] - ref[block]) <= 1e-12 * np.linalg.norm(ref[block])

    @pytest.mark.parametrize("mode", ["oneway", "twoway"])
    def test_assembled_plate_jacobian_is_block_triangular(self, mode):
        scen = sc.build_scenario(sc.load_config(
            COARSE_PLATE.replace("coupling.mode = twoway", f"coupling.mode = {mode}")))
        dm = asm.DofMap(scen.mesh.n_nodes)
        f0 = tr.initial_fields(scen)
        res, jac, _, _ = asm.assemble_system(scen.mesh, dm, f0, f0, scen.params,
                                             scen.solver.dt, scen.solver.mode)
        plan = asm.plan_boundary(scen.mesh, scen.bcs)
        res -= asm.neumann_load_vector(plan, 0.0)
        sla.BlockSolver().newton_update(jac, res, plan.fixed_dofs)   # raises on a K_cu entry

    def test_elastic_one_way_slab_factors_o1_times(self, splu_calls):
        scen = slab_scenario(nx=20)
        scen.bcs.dirichlet_u = [("left", 0, 0.0), ("left", 1, 0.0)]    # K_uu not empty
        hist, _ = tr.run(scen, scen.solver)
        assert sum(r["newton_iters"] for r in hist.records) >= 100
        # K_uu once, K_cc once: every step, the last included, takes the same dt
        assert len(splu_calls) == 2

    def test_singular_k_uu_fails_step(self):
        scen = slab_scenario(nx=20)
        scen.bcs.dirichlet_u = []     # rigid-body modes left free
        with pytest.raises(tr.StepFailure, match="K_uu"):
            tr.step(tr.initial_fields(scen), 0.0, 1e-3, scen, scen.solver)


class TestRobustness:
    def test_dt_halving_recorded_on_forced_failure(self, monkeypatch):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way", plasticity=False)
        real_step = tr.step
        failures = {"n": 2}

        def flaky_step(fields, t, dt, scenario, config, elem_data=None, plan=None,
                       **kwargs):
            if failures["n"] > 0:
                failures["n"] -= 1
                raise tr.StepFailure("forced constitutive failure")
            return real_step(fields, t, dt, scenario, config, elem_data, plan, **kwargs)

        monkeypatch.setattr(tr, "step", flaky_step)
        hist, _ = tr.run(scen, scen.solver)
        assert len(hist.events) == 2
        assert all(e["event"] == "dt_halved" for e in hist.events)
        assert hist.events[0]["dt"] == pytest.approx(0.025)
        assert hist.events[1]["dt"] == pytest.approx(0.0125)

    def test_run_aborts_after_exhausted_halvings(self, monkeypatch):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way", plasticity=False)

        def always_fail(*args, **kwargs):
            raise tr.StepFailure("forced constitutive failure")

        monkeypatch.setattr(tr, "step", always_fail)
        with pytest.raises(tr.RunAborted):
            tr.run(scen, scen.solver)

    def test_nan_boundary_value_fails_step_not_process(self):
        scen = slab_scenario(nx=10)
        scen.bcs.dirichlet_c[0] = ("left", lambda t: np.nan)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way",
                                      plasticity=False, newton_max_iter=5)
        with pytest.raises(tr.RunAborted):
            tr.run(scen, scen.solver)

    def test_time_history_rejects_non_increasing(self):
        h = tr.TimeHistory()
        h.append(1.0, {}, {})
        with pytest.raises(ValueError):
            h.append(1.0, {}, {})

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            tr.SolverConfig(dt=-1.0, t_end=1.0)
        with pytest.raises(ValueError):
            tr.SolverConfig(dt=1.0, t_end=1.0, mode="diagonal")


class TestPlasticTransient:
    def test_yield_never_exceeded_along_run(self):
        # pulled plate at yield-exceeding load; every recorded state on or
        # inside the hardened yield surface
        from chemoplast import scenarios as sc
        cfg = sc.load_config("""
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.2
geometry.target_h = 0.07
material.preset = steel_table1
material.sigma_y0 = 80e6
loading.kind = displacement
loading.u_bar = 4.3e-4
loading.t_ramp_hat = 0.02
concentration.insulated = on
concentration.initial_hat = 0.05
coupling.mode = twoway
plasticity.enabled = on
solver.dt_hat = 0.01
solver.t_end_hat = 0.05
""")
        scen = sc.build_scenario(cfg)
        seen = []

        def check(step_no, record, fields):
            f = yield_function(fields.states, scen.params)
            seen.append(float(np.max(f)))

        hist, fields = tr.run(scen, scen.solver, progress_cb=check)
        assert hist.records[-1]["max_eps_p_eq"] > 0
        assert max(seen) <= scen.params.tol_f

    def test_committed_state_is_settled(self):
        # a Newton solve restarted from the committed iterate of a plastic
        # step must leave the plastic internal variables where they are
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        params, config = scen.params, scen.solver
        dm = asm.DofMap(scen.mesh.n_nodes)
        ed = asm.precompute(scen.mesh)
        plan = asm.plan_boundary(scen.mesh, scen.bcs)
        refs = {"u": 0.0, "c": 0.0}
        fields_n = tr.initial_fields(scen)
        new, _ = tr.step(fields_n, 0.0, config.dt, scen, config, ed, plan, newton_refs=refs)
        assert new.states.eps_p_eq.max() > 0          # the step flows plastically
        w = dm.join(new.u, new.c)
        _, again, _, _, _, _ = tr._newton_solve(w, fields_n, config.dt, config.dt, scen, config,
                                                ed, plan, sla.BlockSolver(), refs=refs)
        two_mu = 2.0 * params.mu
        change = max(two_mu * np.max(np.abs(again.eps_p - new.states.eps_p)),
                     np.max(np.abs(again.back_stress - new.states.back_stress)),
                     max(params.H, params.h, two_mu)
                     * np.max(np.abs(again.eps_p_eq - new.states.eps_p_eq)))
        assert change <= 1e-6 * params.sigma_y0

    def test_assembly_plan_built_once_per_run(self, call_spy):
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        plans = call_spy("precompute", asm, tr)
        csr_builds = call_spy("from_triplets", sla)
        hist, _ = tr.run(scen, scen.solver)
        assert sum(r["newton_iters"] for r in hist.records) > len(hist.records)
        assert len(plans) == 1
        assert csr_builds == []

    def test_one_way_concentration_blind_to_plasticity(self):
        # strip with a mechanical load and chemo-mechanical coupling off in
        # the diffusion equation: c history identical with plasticity on/off
        m = build_strip_mesh(30)
        base = dict(E=210e9, nu=0.3, D=1.0, Omega=1e-6, T=300.0)
        plastic = MaterialParams(**base, sigma_y0=50e6, hardening_kind="isotropic", H=2.1e9)
        bcs = asm.BoundaryConditions(
            dirichlet_u=[("left", 0, 0.0), ("left", 1, 0.0)],
            tractions=[("right", (lambda t: 65e6 * min(t / 0.04, 1.0), 0.0))],
            dirichlet_c=[("left", 1.0)])
        scales = analytic.nondim_scales(plastic, 1.0)
        out = {}
        for plast in (True, False):
            scen = Scenario(mesh=m, params=plastic, bcs=bcs, probes=[("end", 1.0, 0.005)],
                            scales=scales, c_initial=0.0,
                            solver=tr.SolverConfig(dt=2.5e-3, t_end=0.05, mode="one-way",
                                                   plasticity=plast))
            hist, fields = tr.run(scen, scen.solver)
            out[plast] = (hist.probe_series("end", "c"), fields.c)
            if plast:
                assert hist.records[-1]["max_eps_p_eq"] > 0   # plastic flow happened
            assert not hist.events   # same time grid in both runs
        assert np.max(np.abs(out[True][1] - out[False][1])) <= 1e-10
        assert np.max(np.abs(out[True][0] - out[False][0])) <= 1e-10
