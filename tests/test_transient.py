from dataclasses import replace

import numpy as np
import pytest

from chemoplast import analytic, assembly as asm, scenarios as sc, sparse_linalg as sla
from chemoplast import constitutive as ct, transient as tr
from chemoplast.constitutive import MaterialParams
from chemoplast.scenarios import Scenario
from conftest import (build_strip_mesh, build_two_element_square, c_dofs, ux_dofs, uy_dofs,
                      yield_function)
from test_acceptance import CONSERVATION_CFG, PARTICLE_CFG, RELAXATION_CFG
from test_reference_outputs import workloads


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
                    solver=tr.SolverConfig(dt=1e-3, t_end=0.1, mode="one-way"))


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
                    solver=tr.SolverConfig(dt=100.0, t_end=300.0, mode="two-way"))


class TestStep:
    def test_quiescent_step_is_identity(self):
        scen = quiescent_scenario()
        scen.solver.t_end = scen.solver.dt
        fields = tr.initial_fields(scen)
        hist, new = tr.run(scen)
        assert hist.records[0]["newton_iters"] <= 1
        assert hist.records[0]["newton_exit"] == "converged"
        assert np.array_equal(new.u, fields.u)
        assert np.array_equal(new.c, fields.c)
        assert np.array_equal(new.states.sigma, fields.states.sigma)
        assert np.array_equal(new.states.eps_p_eq, fields.states.eps_p_eq)

    def test_elastic_one_way_two_solves_max(self):
        scen = slab_scenario(nx=20)
        scen.solver.t_end = scen.solver.dt
        hist, _ = tr.run(scen)
        assert len(hist.records) == 1
        assert hist.records[0]["newton_iters"] <= 2


class TestRunSlab:
    def test_matches_series_oracle(self):
        scen = slab_scenario(nx=100)
        hist, fields = tr.run(scen)
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
            scen.solver = tr.SolverConfig(dt=dt, t_end=0.1, mode="one-way")
            _, fields = tr.run(scen)
            errs.append(np.sqrt(np.trapezoid((fields.c[:101] - c_ex) ** 2, xs)
                                / np.trapezoid(c_ex**2, xs)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9

    def test_history_shape_and_monotonicity(self):
        scen = slab_scenario(nx=20)
        scen.solver = tr.SolverConfig(dt=0.02, t_end=0.1, mode="one-way")
        hist, _ = tr.run(scen)
        assert len(hist.times) == 5
        assert np.all(np.diff(hist.times) > 0)
        end = hist.probe_series("end", "c")
        assert np.all(np.diff(end) > 0)   # charging monotonically

    def test_probe_series_keys(self):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way")
        hist, _ = tr.run(scen)
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
            np.add.at(load, ux_dofs(edges[:, 0]), w * na * tx)
            np.add.at(load, uy_dofs(edges[:, 0]), w * na * ty)
            np.add.at(load, ux_dofs(edges[:, 1]), w * nb * tx)
            np.add.at(load, uy_dofs(edges[:, 1]), w * nb * ty)
        edge_accumulate(tag, pay)

    for tag, j_in in bcs.fluxes:
        j = j_in(t) if callable(j_in) else j_in

        def pay(edges, w, na, nb, j=j):
            np.add.at(load, c_dofs(edges[:, 0]), w * na * j)
            np.add.at(load, c_dofs(edges[:, 1]), w * nb * j)
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
        hist, _ = tr.run(scen)
        assert sum(r["newton_iters"] for r in hist.records) > len(hist.records)
        assert len(plans) == 1
        assert not hist.events                      # one attempt per step
        assert [t for _, t in loads] == hist.times


COARSE_ELASTIC_ONE_WAY = (COARSE_PLATE.replace("coupling.mode = twoway", "coupling.mode = oneway")
                          .replace("plasticity.enabled = on", "plasticity.enabled = off"))


class TestLazyJacobian:
    @pytest.mark.parametrize("text", [COARSE_ELASTIC_ONE_WAY, COARSE_PLATE],
                             ids=["elastic-one-way", "plastic-two-way"])
    def test_one_jacobian_per_update(self, text):
        scen = sc.build_scenario(sc.load_config(text))
        flowed = []
        prev = [tr.initial_fields(scen).states.eps_p_eq]

        def count_flow(step_no, record, fields):
            flowed.append(int(np.sum(fields.states.eps_p_eq > prev[0])))
            prev[0] = fields.states.eps_p_eq

        hist, _ = tr.run(scen, progress_cb=count_flow)
        assert sum(r["newton_iters"] for r in hist.records) > 0
        for r in hist.records:
            assert r["jacobians"] == max(r["newton_iters"], 1)
        assert [r["plastic_qp"] for r in hist.records] == flowed
        assert (max(flowed) > 0) == (text is COARSE_PLATE)

    def test_one_way_elastic_updates_share_the_base_per_dt(self, monkeypatch):
        # the constant-matrix path: every update at one dt gets the same
        # read-only blocks, and the short last step a new K_cc
        text = (COARSE_ELASTIC_ONE_WAY
                .replace("solver.t_end_hat = 0.03", "solver.t_end_hat = 0.035")
                .replace("loading.t_ramp_hat = 0.02", "loading.t_ramp_hat = 0.05"))
        updates, hist = newton_updates(monkeypatch, text)
        dts = [r["dt"] for r in hist.records for _ in range(r["newton_iters"])]
        assert len(dts) == len(updates)
        jacs = {}
        for dt, (jac, _, _, _) in zip(dts, updates):
            first = jacs.setdefault(dt, jac)
            assert first.mech is jac.mech and first.cc is jac.cc
            for block in jac:
                with pytest.raises(ValueError, match="read-only"):
                    block.data[0] = 0.0
        assert len(jacs) == 2
        first, last = jacs.values()
        assert last.mech is first.mech and last.cc is not first.cc
        assert dts.count(hist.records[0]["dt"]) > 1 and not hist.events


def spy_step_starts(monkeypatch, fail_at=None):
    """Record every step start of ``transient`` as (whether a strain was
    passed, its fields, whether its strain is bitwise the element strain of
    those fields' u). The start numbered ``fail_at`` (from 0) raises
    StepFailure after it is formed."""
    real = tr.step_start
    seen = []

    def spy(elem_data, fields, params, strain=None):
        start = real(elem_data, fields, params, strain)
        seen.append((strain is not None, fields,
                     np.array_equal(start.strain, asm.element_strain(elem_data, fields.u))))
        if len(seen) - 1 == fail_at:
            raise tr.StepFailure("forced failure after the step start")
        return start

    monkeypatch.setattr(tr, "step_start", spy)
    return seen


class TestCarriedStrain:
    def test_step_start_strain_computed_once_per_run(self, call_spy):
        # the committed iterate's residual pass gives the next step's start
        # strain, so only the first step start computes one
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        strains = call_spy("element_strain", asm)
        hist, _ = tr.run(scen)
        assert not hist.events
        # the hold step takes its first pass from the committed one
        assert [r["residual_passes"] - r["newton_iters"] for r in hist.records] == [1, 1, 0]
        # one per residual pass computed, one for the initial fields
        assert len(strains) == sum(r["residual_passes"] for r in hist.records) + 1

    def test_retried_step_starts_from_the_strain_of_its_fields(self, monkeypatch):
        # the third step's first attempt fails; its retry at half the dt
        # reuses the carried strain, which is that of its fields bitwise
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        starts = spy_step_starts(monkeypatch, fail_at=2)
        hist, _ = tr.run(scen)
        assert [e["event"] for e in hist.events] == ["dt_halved"]
        assert [passed for passed, _, _ in starts] == [False] + [True] * (len(starts) - 1)
        assert starts[3][1] is starts[2][1]
        assert np.any(starts[2][1].u)
        assert all(exact for _, _, exact in starts)

    def test_fields_made_outside_the_loop_get_their_strain_computed(self, monkeypatch):
        # fields from FieldState.zeros, or a copy whose u is then assigned,
        # carry no strain: a step from them computes it
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        dt = scen.solver.dt
        rd = tr.run_data(scen)
        starts = spy_step_starts(monkeypatch)
        new, _, it = tr.step(rd, asm.FieldState.zeros(scen.mesh, c0=scen.c_initial), 0.0, dt)
        assert np.array_equal(it.strain, asm.element_strain(rd.ed, new.u))
        moved = new.copy()
        moved.u = 1.01 * new.u
        tr.step(rd, moved, dt, dt)
        assert [(passed, exact) for passed, _, exact in starts] == [(False, True)] * 2
        assert starts[1][1] is moved


def iterate_arrays(it):
    """Copies of every array of the ``assembly.Iterate`` ``it``, its
    trial-yield points' included, by name."""
    out = {n: v.copy() for n, v in vars(it).items() if isinstance(v, np.ndarray)}
    out.update({"plastic." + n: v.copy() for n, v in vars(it.plastic).items()
                if isinstance(v, np.ndarray)})
    return out


def spy_zero_increments(monkeypatch):
    """Record every ``zero_increment`` call of ``transient`` as (its
    arguments, whether it gave the first iterate's pass)."""
    real = tr.zero_increment
    seen = []

    def spy(committed, start, params):
        it = real(committed, start, params)
        seen.append(((committed, start, params), it is not None))
        return it

    monkeypatch.setattr(tr, "zero_increment", spy)
    return seen


def without_passes(records):
    return [{k: v for k, v in r.items() if k != "residual_passes"} for r in records]


# the elastic one-way plate with two hold steps after its ramp
HELD_ONE_WAY = COARSE_ELASTIC_ONE_WAY.replace("solver.t_end_hat = 0.03", "solver.t_end_hat = 0.04")


class TestCommittedPass:
    @pytest.mark.parametrize("text", [COARSE_HOLE, HELD_ONE_WAY],
                             ids=["hole-two-way", "plate-one-way"])
    def test_zero_increment_is_the_fresh_pass_bitwise(self, text):
        # the pass taken from the committed iterate equals a full residual
        # pass of the next step at zero increment, bit for bit
        scen = sc.build_scenario(sc.load_config(text))
        params, dt, mode = scen.params, scen.solver.dt, scen.solver.mode
        rd = tr.run_data(scen)
        ed = rd.ed
        fields, _, it = tr.step(rd, tr.initial_fields(scen), 0.0, dt)
        start = asm.step_start(ed, fields, params, it.strain)
        fresh = asm.assemble_residual(ed, fields.u, fields.c, start, params, dt, mode)
        kept = it.residual.copy()
        held = asm.zero_increment(it, start, params)
        assert np.array_equal(it.residual, kept)                 # the committed pass is read only
        for name in ("residual", "sigma_h_nodal", "stress_sum", "strain", "c_rows"):
            assert np.array_equal(getattr(held, name), getattr(fresh, name)), name
        if mode == "two-way":
            assert np.array_equal(held.drift, fresh.drift) and np.any(held.drift)
        else:
            assert held.drift is None is fresh.drift
        assert held.plastic.index.size == 0 == fresh.plastic.index.size

    def test_refused_on_a_ramp_step(self, monkeypatch):
        # the two ramp steps move the Dirichlet values and compute every
        # pass; the two hold steps take their first pass from the committed
        # one (the first from the initial fields has none)
        scen = sc.build_scenario(sc.load_config(HELD_ONE_WAY))
        plan = asm.plan_boundary(scen.mesh, scen.bcs)
        seen = spy_zero_increments(monkeypatch)
        hist, _ = tr.run(scen)
        times = [0.0] + hist.times
        moved = [not np.array_equal(asm.dirichlet_values(plan, t0), asm.dirichlet_values(plan, t1))
                 for t0, t1 in zip(times, times[1:])]
        assert moved == [True, True, False, False]
        assert [given for _, given in seen] == [True, True]
        assert [r["residual_passes"] - r["newton_iters"] for r in hist.records] == [1, 1, 0, 0]

    def test_refused_where_an_element_trial_yields(self, monkeypatch):
        # an element clearly above the yield surface at zero increment (here
        # with a yield stress lowered by 1e-12 of itself) refuses the pass,
        # as only a full pass gives its return. The plastic plate's hold
        # steps start with its returned elements on the surface up to
        # roundoff, some of them above it by a few eps sigma_y: the yield
        # test counts them as on it, and those passes are taken
        scen = sc.build_scenario(sc.load_config(YIELDING_PLATE))
        seen = spy_zero_increments(monkeypatch)
        hist, _ = tr.run(scen)
        assert len(seen) == 3 and all(given for _, given in seen)
        for (committed, start, params), _ in seen:
            eps_p_eq = start.fields.material.eps_p_eq
            sig_y = params.sigma_y0 + params.H * eps_p_eq        # isotropic hardening
            f = np.sqrt(1.5 * ct.ddot(start.xi, start.xi)) - sig_y
            assert 0.0 < f.max() < 1e-14 * params.sigma_y0
            assert not ct.trial_yields(start.xi, eps_p_eq, params)
            lowered = replace(params, sigma_y0=(1.0 - 1e-12) * params.sigma_y0)
            assert ct.trial_yields(start.xi, eps_p_eq, lowered)
            assert asm.zero_increment(committed, start, lowered) is None
        assert [r["residual_passes"] - r["newton_iters"] for r in hist.records] == [1, 1, 0, 0, 0]

    def test_retry_after_a_reused_first_pass_is_the_full_pass_retry(self, monkeypatch):
        # the second step attempt takes its first pass from the committed
        # one and then fails; its retry at half the dt holds the iterate too
        # and takes the same pass again, as the committed iterate is read
        # only. The run equals, bit for bit, the same run in which no pass is
        # taken from the committed one
        def failing_run(reuse):
            scen = sc.build_scenario(sc.load_config(COARSE_HOLE))
            starts = spy_step_starts(monkeypatch)
            real_zero_increment, real_jacobian = tr.zero_increment, tr.assemble_jacobian
            given = []          # the step attempts whose first pass was taken from the committed
            committed = []      # the committed iterate each attempt read

            def zero_increment(*args):
                committed.append(args[0])
                it = real_zero_increment(*args) if reuse else None
                if it is not None:
                    given.append(len(starts) - 1)
                return it

            def jacobian(*args):
                if len(starts) == 2 and not failed:
                    failed.append(True)
                    raise tr.StepFailure("forced failure after the first pass")
                return real_jacobian(*args)

            failed = []
            monkeypatch.setattr(tr, "zero_increment", zero_increment)
            monkeypatch.setattr(tr, "assemble_jacobian", jacobian)
            hist, fields = tr.run(scen)
            monkeypatch.undo()
            return hist, fields, starts, given, committed

        hist, fields, starts, given, committed = failing_run(reuse=True)
        ref, ref_fields, _, ref_given, _ = failing_run(reuse=False)
        assert [e["event"] for e in hist.events] == ["dt_halved"]
        assert hist.events == ref.events
        assert without_passes(hist.records) == without_passes(ref.records)
        for name in ("u", "c", "sigma_h_nodal"):
            assert np.array_equal(getattr(fields, name), getattr(ref_fields, name))
        assert np.array_equal(fields.material.stress_sum, ref_fields.material.stress_sum)
        # every attempt but the first, from the initial fields, takes its first pass
        assert given == [1, 2, 3, 4] and ref_given == []
        assert committed[0] is committed[1]     # the failed attempt's and the retry's
        assert [r["residual_passes"] - r["newton_iters"] for r in hist.records] == [1, 0, 0, 0]
        assert [r["residual_passes"] - r["newton_iters"] for r in ref.records] == [1] * 4
        # the retry starts from the failed attempt's fields and the carried
        # strain, which is theirs bitwise
        assert starts[2][1] is starts[1][1] and starts[2][0] and starts[2][2]

    @pytest.mark.parametrize("text", [HELD_ONE_WAY, COARSE_HOLE], ids=["ramp", "hold"])
    def test_a_step_leaves_the_committed_iterate_unchanged(self, monkeypatch, text):
        # every array of the committed iterate, its trial-yield points'
        # included, is bitwise what it was before the step read it, whether
        # the step took its first pass from it (hold) or not (ramp); the
        # step's own iterate is a new one
        scen = sc.build_scenario(sc.load_config(text))
        real_step = tr.step
        seen = []

        def step(rd, fields_n, t_n, dt, committed=None):
            before = None if committed is None else iterate_arrays(committed)
            out = real_step(rd, fields_n, t_n, dt, committed)
            if committed is not None:
                assert out[2] is not committed
                after = iterate_arrays(committed)
                assert before.keys() == after.keys() and "residual" in after
                seen.append([n for n in before if not np.array_equal(before[n], after[n])])
            return out

        monkeypatch.setattr(tr, "step", step)
        hist, _ = tr.run(scen)
        taken = [r["residual_passes"] == r["newton_iters"] for r in hist.records]
        assert any(taken) and (text is COARSE_HOLE) == all(taken[1:])
        assert seen == [[]] * (len(hist.records) - 1)

    @pytest.mark.parametrize("text", [COARSE_PLATE, HELD_ONE_WAY],
                             ids=["plastic-two-way", "elastic-one-way"])
    def test_run_stepped_by_hand_matches_run_bitwise(self, monkeypatch, text):
        # run_data and step are all a run's steps need: stepping by hand from
        # one record, carrying the committed iterate as run does, gives the
        # run's fields, records and committed iterates bit for bit
        scen = sc.build_scenario(sc.load_config(text))
        real_step = tr.step
        iterates, committed_fields = [], []

        def step(*args):
            out = real_step(*args)
            iterates.append(out[2])
            return out

        monkeypatch.setattr(tr, "step", step)
        hist, fields = tr.run(scen, progress_cb=lambda n, r, f: committed_fields.append(f))
        monkeypatch.undo()
        assert not hist.events and len(iterates) == len(hist.records) > 2
        assert committed_fields[-1] is fields
        rd = tr.run_data(scen)
        by_hand, committed = tr.initial_fields(scen), None
        for t_n, record, ref, ref_it in zip([0.0] + hist.times, hist.records, committed_fields,
                                            iterates):
            by_hand, info, committed = tr.step(rd, by_hand, t_n, record["dt"], committed)
            assert record["time"] == t_n + record["dt"]
            assert {k: record[k] for k in vars(info)} == vars(info)
            assert record["max_eps_p_eq"] == by_hand.material.eps_p_eq.max()
            for name in ("u", "c", "sigma_h_nodal"):
                assert np.array_equal(getattr(by_hand, name), getattr(ref, name)), name
            for name, value in vars(ref.material).items():
                assert np.array_equal(getattr(by_hand.material, name), value), name
            mine, theirs = iterate_arrays(committed), iterate_arrays(ref_it)
            assert mine.keys() == theirs.keys() and "residual" in mine
            for name in mine:
                assert np.array_equal(mine[name], theirs[name]), name


def newton_updates(monkeypatch, config_text):
    """Run a scenario and record every Newton update as
    (jacobian, residual, fixed dofs, update); returns them and the history."""
    scen = sc.build_scenario(sc.load_config(config_text))
    fixed_dofs = asm.plan_boundary(scen.mesh, scen.bcs).fixed_dofs
    seen = []
    real = sla.BlockSolver.newton_update

    def spy(self, jac, res):
        dw = real(self, jac, res)
        seen.append((jac, res, fixed_dofs, dw))
        return dw

    monkeypatch.setattr(sla.BlockSolver, "newton_update", spy)
    hist, _ = tr.run(scen)
    return seen, hist


class TestBlockNewtonSolve:
    @pytest.mark.parametrize("text", [COARSE_PLATE, COARSE_HOLE], ids=["plastic-plate", "hole"])
    def test_update_matches_monolithic_solve(self, monkeypatch, text):
        # in the monolithic system, dc solves K_cc dc = -r_c and du solves
        # K_uu du = rhs_u to the forcing bound, and du exactly where K_uu does
        # not change (the elastic hole)
        updates, hist = newton_updates(monkeypatch, text)
        if text is COARSE_PLATE:
            assert any(r["plastic_qp"] > 0 for r in hist.records)   # plastic iterates
        assert sum(r["pcg_iters"] for r in hist.records) > 0
        is_u = np.arange(updates[0][1].size) % 3 != 2
        for rows, res, fixed, dw in updates:
            jac = rows.interleaved()
            A, b = sla.apply_dirichlet(jac, -res, [(d, 0.0) for d in fixed])
            r = A @ dw - b              # zero on the fixed dofs' identity rows
            assert np.linalg.norm(r[~is_u]) <= sla.FORCING * np.linalg.norm(b[~is_u])
            free_u = is_u.copy()
            free_u[fixed] = False
            rhs_u = -(res + jac @ np.where(is_u, 0.0, dw))[free_u]
            u_tol = 1e-12 if text is COARSE_HOLE else sla.FORCING
            assert np.linalg.norm(r[free_u]) <= u_tol * np.linalg.norm(rhs_u)

    def test_two_way_elastic_reads_mechanics_rows_once(self, monkeypatch):
        # the elastic mechanics rows are the same object for the whole run and
        # are read by the first update only; the two-way K_cc is new at every
        # update and is read each time
        reads = []
        real = sla.BlockSolver._read

        def spy(self, rows, A):
            reads.append(rows)
            return real(self, rows, A)

        monkeypatch.setattr(sla.BlockSolver, "_read", spy)
        updates, hist = newton_updates(monkeypatch, COARSE_HOLE)
        assert not any(r["plastic_qp"] for r in hist.records) and len(updates) > 1
        assert reads.count("mech") == 1
        assert reads.count("cc") == len(updates)
        assert len({id(jac.mech) for jac, *_ in updates}) == 1

    def test_plastic_plate_k_uu_factored_few_times(self, factors):
        # a fresh factor for every changed K_uu would take 14 here; CG
        # against the kept factor takes 5
        hist, _ = tr.run(sc.build_scenario(sc.load_config(COARSE_PLATE)))
        assert len(factors) <= 7
        assert all(r["newton_exit"] == "converged" for r in hist.records)

    @pytest.mark.parametrize("text", [COARSE_PLATE, COARSE_ELASTIC_ONE_WAY],
                             ids=["plastic-two-way", "elastic-one-way"])
    def test_step_pcg_iters_sum_to_solver_count(self, monkeypatch, text):
        solvers = []

        class Recording(sla.BlockSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(sla, "BlockSolver", Recording)
        hist, _ = tr.run(sc.build_scenario(sc.load_config(text)))
        (solver,) = solvers
        total = sum(r["pcg_iters"] for r in hist.records)
        assert total == solver.pcg_iters
        assert (total > 0) == (text is COARSE_PLATE)

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
        # no c row holds a u column, so the row blocks are the whole matrix,
        # and their block update solves it
        coo = jac.tocoo()
        assert not np.any((coo.row % 3 == 2) & (coo.col % 3 != 2))
        is_c = np.arange(dm.n_dofs) % 3 == 2
        mech, cc = jac[~is_c], jac[is_c][:, is_c]
        assert mech.nnz + cc.nnz == jac.nnz
        solver = sla.BlockSolver(mech, cc, plan.fixed_dofs)
        dw = solver.newton_update((mech, cc, cc), res)      # no drift at the start
        A, b = sla.apply_dirichlet(jac, -res, [(d, 0.0) for d in plan.fixed_dofs])
        ref = sla.solve(A, b)
        assert np.linalg.norm(dw[is_c] - ref[is_c]) <= 1e-12 * np.linalg.norm(ref[is_c])
        assert np.linalg.norm(dw[~is_c] - ref[~is_c]) <= 1e-12 * np.linalg.norm(ref[~is_c])

    def test_elastic_one_way_slab_factors_o1_times(self, factors):
        scen = slab_scenario(nx=20)
        scen.bcs.dirichlet_u = [("left", 0, 0.0), ("left", 1, 0.0)]    # K_uu not empty
        hist, _ = tr.run(scen)
        assert sum(r["newton_iters"] for r in hist.records) >= 100
        # K_uu once, K_cc once: every step, the last included, takes the same dt
        assert len(factors) == 2

    @pytest.mark.parametrize("text", [COARSE_PLATE, COARSE_HOLE], ids=["plastic-plate", "hole"])
    def test_two_way_k_cc_factored_few_times(self, text, factors):
        scen = sc.build_scenario(sc.load_config(text))
        hist, _ = tr.run(scen)
        updates = sum(r["newton_iters"] for r in hist.records)
        # insulated: every concentration dof is free, so K_cc is n_nodes square
        cc_factors = [f.n for f in factors].count(scen.mesh.n_nodes)
        assert cc_factors <= 3 < updates          # K_cc changes at every update
        assert sum(r["factors"] for r in hist.records) == len(factors)
        assert sum(r["factors"] + r["reused"] for r in hist.records) == 2 * updates

    def test_one_way_slab_short_last_step_k_cc_served_by_pcg(self, factors):
        scen = slab_scenario(nx=20)
        scen.bcs.dirichlet_u = [("left", 0, 0.0), ("left", 1, 0.0)]    # K_uu not empty
        scen.solver = tr.SolverConfig(dt=1e-3, t_end=0.0105, mode="one-way")
        hist, _ = tr.run(scen)
        assert [r["dt"] for r in hist.records][-2:] == [1e-3, pytest.approx(5e-4)]
        n = scen.mesh.n_nodes
        # K_cc (left concentration fixed) and K_uu (left nodes fixed) once: CG
        # with the full-dt K_cc factor serves the short last step's K_cc
        assert [f.n for f in factors] == [n - 2, 2 * n - 4]
        assert [r["factors"] for r in hist.records] == [2] + [0] * 10
        assert [r["pcg_iters"] > 0 for r in hist.records] == [False] * 10 + [True]

    def test_singular_k_uu_fails_step(self):
        scen = slab_scenario(nx=20)
        scen.bcs.dirichlet_u = []     # rigid-body modes left free
        scen.solver.t_end = scen.solver.dt
        with pytest.raises(tr.RunAborted, match="K_uu"):
            tr.run(scen)


PLASTIC_PLATE = workloads.WORKLOADS["plate_plastic_twoway"].config_text(workloads.DEFAULT_SEED)


class TestOneFactorization:
    """Every fresh factor of the Newton path is band Cholesky: SuperLU serves
    the reference solve only, and K_cc is factored from its drift-free base."""

    @pytest.mark.parametrize("text", [PLASTIC_PLATE, CONSERVATION_CFG.format(mode="twoway"),
                                      RELAXATION_CFG.format(plast="on")],
                             ids=["plastic-plate", "criterion-5-two-way", "criterion-7-plastic"])
    def test_no_superlu_factor(self, text, call_spy):
        # two-way plastic runs whose first Jacobian already carries drift
        calls = call_spy("splu", sla)
        hist, _ = tr.run(sc.build_scenario(sc.load_config(text)))
        assert calls == [] and sum(r["factors"] for r in hist.records) > 0

    def test_plastic_plate_k_cc_factored_once_from_its_base(self, factors):
        scen = sc.build_scenario(sc.load_config(PLASTIC_PLATE))
        tr.run(scen)
        base = asm.fixed_jacobian(asm.precompute(scen.mesh), scen.params).at(scen.solver.dt).cc
        # insulated: every c dof is free, so K_cc is n_nodes square
        (k_cc,) = [f for f in factors if f.n == scen.mesh.n_nodes]
        assert np.array_equal(k_cc.matrix.data, base.data)

    @pytest.mark.parametrize("text, T", [(COARSE_PLATE, 50.0), (COARSE_PLATE, 3.0),
                                         (COARSE_PLATE, 1.0), (COARSE_HOLE, 5.0),
                                         (COARSE_HOLE, 1.0)],
                             ids=["plate-T50", "plate-T3", "plate-T1", "hole-T5", "hole-T1"])
    def test_strong_drift_runs_at_full_dt(self, call_spy, text, T):
        # the drift grows as 1 / T: at 6 to 300 times the steel preset's,
        # CG from the factor of K_cc's base misses the forcing bound on some
        # updates, and GMRES from that factor serves them without a dt halving
        calls = call_spy("gmres", sla)
        scen = sc.build_scenario(sc.load_config(text + f"material.T = {T}\n"))
        hist, _ = tr.run(scen)
        assert calls and hist.events == []
        assert hist.times[-1] == pytest.approx(scen.solver.t_end)

    def test_drift_gmres_cannot_resolve_halves_dt(self, monkeypatch):
        # the T = 50 K plate with GMRES held to one iteration: at the full dt
        # it misses the forcing bound on some steps, and a halved dt, whose
        # base M / dt is larger, serves them
        monkeypatch.setattr(sla, "GMRES_RESTART", 1)
        monkeypatch.setattr(sla, "GMRES_CYCLES", 1)
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE + "material.T = 50\n"))
        hist, _ = tr.run(scen)
        assert hist.events
        for event in hist.events:
            assert event["event"] == "dt_halved"
            assert "K_cc: GMRES from the factor of its drift-free base" in event["reason"]
        assert hist.times[-1] == pytest.approx(scen.solver.t_end)


class TestRobustness:
    def test_dt_halving_recorded_on_forced_failure(self, monkeypatch):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way")
        real_step = tr.step
        failures = {"n": 2}

        def flaky_step(*args):
            if failures["n"] > 0:
                failures["n"] -= 1
                raise tr.StepFailure("forced constitutive failure")
            return real_step(*args)

        monkeypatch.setattr(tr, "step", flaky_step)
        hist, _ = tr.run(scen)
        assert len(hist.events) == 2
        assert all(e["event"] == "dt_halved" for e in hist.events)
        assert hist.events[0]["dt"] == pytest.approx(0.025)
        assert hist.events[1]["dt"] == pytest.approx(0.0125)

    def test_failed_attempt_leaves_refs_unchanged(self, monkeypatch):
        # an attempt that fails after its first residual pass must not set
        # the relative tolerance of later steps; the attempt that commits
        # folds its own starting residuals in
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        dt = scen.solver.dt
        rd = tr.run_data(scen)
        real = rd.block_solver.newton_update
        updates = []

        def fail_once(jac, res):
            updates.append(1)
            if len(updates) == 1:
                raise sla.SingularMatrixError("forced singular K_uu")
            return real(jac, res)

        monkeypatch.setattr(rd.block_solver, "newton_update", fail_once)
        fields = tr.initial_fields(scen)
        before = dict(rd.refs)
        with pytest.raises(tr.StepFailure, match="forced singular"):
            tr.step(rd, fields, 0.0, dt)
        assert rd.refs == before
        tr.step(rd, fields, 0.0, dt)
        unfailed = dict(before)
        tr.step(replace(rd, refs=unfailed), fields, 0.0, dt)
        assert rd.refs == unfailed and rd.refs["u"] > 0.0

    def test_run_aborts_after_exhausted_halvings(self, monkeypatch):
        scen = slab_scenario(nx=10)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way")

        def always_fail(*args, **kwargs):
            raise tr.StepFailure("forced constitutive failure")

        monkeypatch.setattr(tr, "step", always_fail)
        with pytest.raises(tr.RunAborted):
            tr.run(scen)

    def test_nan_boundary_value_fails_step_not_process(self):
        scen = slab_scenario(nx=10)
        scen.bcs.dirichlet_c[0] = ("left", lambda t: np.nan)
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way", newton_max_iter=5)
        with pytest.raises(tr.RunAborted):
            tr.run(scen)

    def test_flat_small_mechanics_residual_aborts_run(self, monkeypatch):
        # after one large first residual every pass returns the same small
        # mechanics residual: no progress, far below the run's force scale,
        # but above the tolerance. No exit accepts it, so every attempt
        # reaches the iteration cap and the run aborts; no step is committed
        scen = slab_scenario(nx=10)
        scen.bcs.dirichlet_u = [("left", 0, 0.0), ("left", 1, 0.0)]
        scen.solver = tr.SolverConfig(dt=0.05, t_end=0.1, mode="one-way")
        real = tr.assemble_residual
        passes = []

        def flat(*args, **kwargs):
            it = real(*args, **kwargs)
            flat_res = np.zeros_like(it.residual)
            flat_res[np.arange(flat_res.size) % 3 != 2] = 1e6 if not passes else 1.0
            passes.append(1)
            it.residual = flat_res
            return it

        monkeypatch.setattr(tr, "assemble_residual", flat)
        with pytest.raises(tr.RunAborted, match="did not converge within"):
            tr.run(scen)

    def test_committed_particle_steps_need_no_update_on_restart(self, monkeypatch):
        # criterion 9's one-way plastic particle, first 10 steps: c is ~1e4
        # and |u| ~1e-6 m. Each block of a committed iterate met its
        # tolerance or its floor, so a restart from it with a fresh solver
        # must exit before any update
        scen = sc.build_scenario(sc.load_config(
            PARTICLE_CFG.format(ri=2.5e-6, mode="oneway", plast="on")))
        scen.solver.t_end = 10 * scen.solver.dt
        real_step = tr.step
        restarts = []

        def step_then_restart(rd, fields_n, t_n, dt, committed=None):
            fields, info, it = real_step(rd, fields_n, t_n, dt, committed)
            fresh = replace(rd, refs=dict(rd.refs), block_solver=sla.BlockSolver(
                rd.fixed.mech, rd.fixed.mass, rd.plan.fixed_dofs))
            *_, again = tr._newton_solve(fresh, rd.dm.join(fields.u, fields.c), fields_n,
                                         t_n + dt, dt)
            restarts.append(again.newton_iters)
            return fields, info, it

        monkeypatch.setattr(tr, "step", step_then_restart)
        hist, _ = tr.run(scen)
        assert len(hist.records) == 10
        assert restarts == [0] * 10

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


# COARSE_PLATE run two steps longer: pulled at yield-exceeding load
# the coarse particle charged by its outer flux alone: no Dirichlet c
FLUX_ANNULUS = "".join(line for line in COARSE_ANNULUS.splitlines(keepends=True)
                       if not line.startswith("concentration.dirichlet.inner"))


def mass_balance_errors(text):
    """Per committed step, |sum_i m_i (c_{n+1} - c_n)_i - dt sum_i f_i(t_{n+1})|
    over the larger of |dt sum f| and the total concentration, with m the
    lumped nodal masses and f the c rows of the flux load at t_{n+1}; and the
    inflows dt sum f."""
    scen = sc.build_scenario(sc.load_config(text))
    plan = asm.plan_boundary(scen.mesh, scen.bcs)
    areas = asm.precompute(scen.mesh).areas
    masses = np.bincount(scen.mesh.tris.ravel(), weights=np.repeat(areas / 3.0, 3),
                         minlength=scen.mesh.n_nodes)
    c_old = [tr.initial_fields(scen).c]
    errors, inflows = [], []

    def balance(step_no, record, fields):
        gain = masses @ (fields.c - c_old[0])
        inflow = record["dt"] * asm.neumann_load_vector(plan, record["time"])[2::3].sum()
        errors.append(abs(gain - inflow) / max(abs(inflow), masses @ fields.c))
        inflows.append(inflow)
        c_old[0] = fields.c.copy()
    tr.run(scen, progress_cb=balance)
    return np.array(errors), np.array(inflows)


class TestMassBalance:
    # The c rows of the backward-Euler residual sum to the balance: the
    # diffusion block annihilates constants, the drift block is in
    # divergence form and the consistent mass's row sums are the lumped
    # masses. So the gain of total c over a step is dt times the inflow at
    # t_{n+1}, up to the c residual left at the Newton exit
    @pytest.mark.parametrize("text", [
        FLUX_ANNULUS,
        FLUX_ANNULUS.replace("plasticity.enabled = off", "plasticity.enabled = on"),
        PARTICLE_CFG.format(ri=2.5e-6, mode="twoway", plast="on"),
    ], ids=["annulus-one-way-elastic", "annulus-one-way-plastic", "particle-two-way-plastic"])
    def test_gain_equals_inflow_every_step(self, text):
        errors, inflows = mass_balance_errors(text)
        assert errors.size >= 5
        assert np.all(inflows > 0.0)
        assert errors.max() <= 1e-12


YIELDING_PLATE = COARSE_PLATE.replace("solver.t_end_hat = 0.03", "solver.t_end_hat = 0.05")


def max_yield_function_per_step(scen):
    """Run ``scen``; the history, the final fields and max f of the committed
    states per step."""
    seen = []

    def check(step_no, record, fields):
        seen.append(float(np.max(yield_function(fields.states, scen.params))))

    hist, fields = tr.run(scen, progress_cb=check)
    return hist, fields, seen


class TestPlasticTransient:
    def test_yield_never_exceeded_along_run(self):
        # every recorded state on or inside the hardened yield surface
        scen = sc.build_scenario(sc.load_config(YIELDING_PLATE))
        hist, _, seen = max_yield_function_per_step(scen)
        assert hist.records[-1]["max_eps_p_eq"] > 0
        assert max(seen) <= scen.params.tol_f

    def test_kinematic_hardening_along_run(self):
        # the same plate with a back stress: the yield test of every residual
        # pass subtracts it, and the committed states stay on or inside the
        # shifted yield surface
        scen = sc.build_scenario(sc.load_config(YIELDING_PLATE + "material.hardening = kinematic\n"))
        assert scen.params.hardening_kind == "kinematic"
        hist, fields, seen = max_yield_function_per_step(scen)
        assert [r["newton_exit"] for r in hist.records] == ["converged"] * 5
        assert hist.records[-1]["max_eps_p_eq"] > 0
        assert np.abs(fields.states.back_stress).max() > 0
        assert max(seen) <= scen.params.tol_f

    def test_committed_state_is_settled(self):
        # a Newton solve restarted from the committed iterate of a plastic
        # step must leave the plastic internal variables where they are
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        params, dt = scen.params, scen.solver.dt
        rd = tr.run_data(scen)
        fields_n = tr.initial_fields(scen)
        new, _, _ = tr.step(rd, fields_n, 0.0, dt)
        assert new.material.eps_p_eq.max() > 0        # the step flows plastically
        _, again, _, _ = tr._newton_solve(rd, rd.dm.join(new.u, new.c), fields_n, dt, dt)
        two_mu = 2.0 * params.mu
        change = max(two_mu * np.max(np.abs(again.eps_p - new.material.eps_p)),
                     np.max(np.abs(again.back_stress - new.material.back_stress)),
                     max(params.H, params.h, two_mu)
                     * np.max(np.abs(again.eps_p_eq - new.material.eps_p_eq)))
        assert change <= 1e-6 * params.sigma_y0

    def test_assembly_plan_built_once_per_run(self, call_spy, monkeypatch):
        # the per-run data is made by run_data alone, which run calls once
        # per run, also when a step attempt fails and is retried at half the dt
        scen = sc.build_scenario(sc.load_config(COARSE_PLATE))
        datas = call_spy("run_data", tr)
        plans = call_spy("precompute", asm, tr)
        fixed = call_spy("fixed_jacobian", asm, tr)
        solvers = call_spy("BlockSolver", sla)
        csr_builds = call_spy("from_triplets", sla)
        hist, _ = tr.run(scen)
        assert sum(r["newton_iters"] for r in hist.records) > len(hist.records)
        assert not hist.events
        assert len(datas) == len(plans) == len(fixed) == len(solvers) == 1

        real = tr.assemble_residual
        failures = [1]

        def fail_once(*args, **kwargs):
            if failures:
                failures.pop()
                raise asm.AssemblyError("forced failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "assemble_residual", fail_once)
        hist, _ = tr.run(scen)
        assert [e["event"] for e in hist.events] == ["dt_halved"]
        assert len(datas) == len(plans) == len(fixed) == len(solvers) == 2
        assert csr_builds == []

    @pytest.mark.parametrize("text, built", [(COARSE_ELASTIC_ONE_WAY, False),
                                             (COARSE_PLATE, True)], ids=["one-way", "two-way"])
    def test_drift_operator_built_for_two_way_runs_only(self, call_spy, text, built):
        # the drift factors' operator and the one from them to the drift
        # block's data are made by the first two-way residual pass and kept
        # on the run's assembly plan; a one-way run never makes them. No run
        # makes the quadrature-point operator, which only the per-point view
        # of the fields reads
        fixed = call_spy("fixed_jacobian", asm, tr)
        _, fields = tr.run(sc.build_scenario(sc.load_config(text)))
        (ed, _), = fixed
        assert ("gn" in vars(ed)) is built
        assert ("drift_op" in vars(ed)) is built
        assert "qp" not in vars(ed)
        assert fields.states.sigma.shape == (ed.areas.size, ed.wq.shape[1], 4)
        assert "qp" in vars(ed)

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
            scen = Scenario(mesh=m, params=plastic if plast else plastic.as_elastic(), bcs=bcs,
                            probes=[("end", 1.0, 0.005)], scales=scales, c_initial=0.0,
                            solver=tr.SolverConfig(dt=2.5e-3, t_end=0.05, mode="one-way"))
            hist, fields = tr.run(scen)
            out[plast] = (hist.probe_series("end", "c"), fields.c)
            if plast:
                assert hist.records[-1]["max_eps_p_eq"] > 0   # plastic flow happened
            assert not hist.events   # same time grid in both runs
        assert np.max(np.abs(out[True][1] - out[False][1])) <= 1e-10
        assert np.max(np.abs(out[True][0] - out[False][0])) <= 1e-10
