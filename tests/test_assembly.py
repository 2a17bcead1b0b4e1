import numpy as np
import pytest

from chemoplast import assembly as asm, mesh as msh, sparse_linalg as sla
from chemoplast import constitutive as ct
from conftest import build_two_element_square, uniform_grid_mesh


class TestShapeFunctions:
    def test_centroid(self):
        n, _ = asm.shape_tri3(1 / 3, 1 / 3)
        assert n == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_kronecker_at_vertices(self):
        for k, (xi, eta) in enumerate([(0, 0), (1, 0), (0, 1)]):
            n, _ = asm.shape_tri3(xi, eta)
            expected = np.zeros(3); expected[k] = 1.0
            assert n == pytest.approx(expected, abs=1e-15)

    def test_partition_of_unity(self, rng):
        for _ in range(10):
            xi, eta = rng.uniform(0, 0.5, size=2)
            n, dn = asm.shape_tri3(xi, eta)
            assert n.sum() == pytest.approx(1.0, abs=1e-15)
            assert dn.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-15)


class TestQuadrature:
    def test_weights_sum_to_reference_area(self):
        rule = asm.default_rule()
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)

    def test_degree_two_exactness(self):
        # integrate x^2, x*y over the reference triangle: 1/12, 1/24
        rule = asm.default_rule()
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert (rule.weights * x**2).sum() == pytest.approx(1 / 12, abs=1e-15)
        assert (rule.weights * x * y).sum() == pytest.approx(1 / 24, abs=1e-15)


class TestRecovery:
    def test_uniform_field(self):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        rec = asm.recover_hydrostatic(m, np.full(m.n_elements, 7.5), asm.precompute(m).areas)
        assert rec == pytest.approx(np.full(m.n_nodes, 7.5), rel=1e-14)

    def test_linear_field_exact_on_structured_patch(self):
        m = uniform_grid_mesh(6)
        cent = m.nodes[m.tris].mean(axis=1)
        vals = 3.0 * cent[:, 0] - 1.0
        rec = asm.recover_hydrostatic(m, vals, asm.precompute(m).areas)
        exact = 3.0 * m.nodes[:, 0] - 1.0
        interior = np.setdiff1d(np.arange(m.n_nodes), np.unique(m.boundary_edges))
        assert rec[interior] == pytest.approx(exact[interior], abs=1e-12)

    def test_single_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = msh.Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                     np.array(["outer"] * 3), {})
        rec = asm.recover_hydrostatic(m, np.array([42.0]), asm.precompute(m).areas)
        assert rec == pytest.approx([42.0, 42.0, 42.0], rel=1e-15)

    def test_wrong_length_rejected(self):
        m = uniform_grid_mesh(2)
        with pytest.raises(ValueError):
            asm.recover_hydrostatic(m, np.zeros(3), asm.precompute(m).areas)


def _fields(mesh, c0=0.0):
    return asm.FieldState.zeros(mesh, c0=c0)


class TestResidual:
    def test_rigid_translation_zero_residual(self, steel):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=10.0)
        f1 = f0.copy()
        f1.u[:, 0] += 0.01
        f1.u[:, 1] -= 0.02
        r, _, _, _ = asm.assemble_system(m, dm, f1, f0, steel, 1.0, "one-way",
                                         want_jacobian=False)
        # roundoff of E * |u| * h is the natural scale
        assert np.abs(r).max() <= 1e-10 * steel.E * 0.02 * 0.08

    def test_uniform_concentration_in_diffusion_kernel(self, steel):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=3.0)
        r, _, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 1.0, "one-way",
                                         want_jacobian=False)
        c_rows = r.reshape(-1, 3)[:, 2]
        assert np.abs(c_rows).max() <= 1e-12 * steel.D * 3.0

    def test_single_element_hand_assembly(self, steel, rng):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = msh.Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                     np.array(["outer"] * 3), {})
        dm = asm.DofMap(3)
        f0 = _fields(m)
        f1 = f0.copy()
        ue = rng.normal(scale=1e-4, size=(3, 2))
        f1.u = ue
        r, _, _, _ = asm.assemble_system(m, dm, f1, f0, steel, 1.0, "one-way",
                                         want_jacobian=False)
        # hand-built B (area 1/2, gradients of the unit right triangle)
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        B = np.zeros((4, 6))
        for i in range(3):
            B[0, 2 * i] = grads[i, 0]
            B[1, 2 * i + 1] = grads[i, 1]
            B[3, 2 * i] = grads[i, 1]
            B[3, 2 * i + 1] = grads[i, 0]
        C = ct.elastic_stiffness_eng(steel)
        expected = 0.5 * B.T @ C @ B @ ue.ravel()
        got = r.reshape(-1, 3)[:, :2].ravel()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self, steel):
        m1 = build_two_element_square()
        shifted = msh.Mesh(m1.nodes + np.array([3.7, -1.2]), m1.tris.copy(),
                           m1.boundary_edges.copy(), m1.boundary_tags.copy(), {})
        dm = asm.DofMap(4)
        out = []
        for mesh in (m1, shifted):
            r = np.random.default_rng(7)   # identical draws for both meshes
            f0 = _fields(mesh, c0=5.0)
            f1 = f0.copy()
            f1.u = r.normal(scale=1e-5, size=(4, 2))
            f1.c = 5.0 + r.normal(scale=0.1, size=4)
            res, jac, _, _ = asm.assemble_system(mesh, dm, f1, f0, steel, 0.5, "two-way")
            out.append((res, jac.toarray()))
        assert out[0][0] == pytest.approx(out[1][0], rel=1e-12, abs=1e-20)
        assert out[0][1] == pytest.approx(out[1][1], rel=1e-12)

    def test_constitutive_failure_names_element(self, steel_plastic):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m)
        f1 = f0.copy()
        f1.u[2, 0] = np.nan
        with pytest.raises(asm.AssemblyError, match="element"):
            asm.assemble_system(m, dm, f1, f0, steel_plastic, 1.0, "one-way",
                                want_jacobian=False)

    def test_unknown_mode_rejected(self, steel):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f = _fields(m)
        with pytest.raises(ValueError):
            asm.assemble_system(m, dm, f, f, steel, 1.0, "sideways", want_jacobian=False)


class TestJacobian:
    def test_block_structure_one_way_elastic(self, steel):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m, c0=1.0)
        _, jac, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 0.5, "one-way")
        J = jac.toarray()
        iu = np.array([i for n in range(4) for i in (3 * n, 3 * n + 1)])
        ic = np.array([3 * n + 2 for n in range(4)])
        K_uc = J[np.ix_(iu, ic)]
        K_cu = J[np.ix_(ic, iu)]
        K_cc = J[np.ix_(ic, ic)]
        assert np.abs(K_uc).max() > 0.0
        assert np.abs(K_cu).max() == 0.0
        assert K_cc == pytest.approx(K_cc.T, rel=1e-12)

    def test_finite_difference_consistency(self, steel, rng):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = rng.normal(scale=1e-5, size=(4, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=4)
        res0, jac, _, sh0 = asm.assemble_system(m, dm, f1, f0, steel, 0.5, "two-way")
        J = jac.toarray()
        base, _, _, _ = asm.assemble_system(m, dm, f1, f0, steel, 0.5, "two-way",
                                            frozen_sigma_h=sh0, want_jacobian=False)
        eps = 1e-7
        err = np.zeros(dm.n_dofs)
        for j in range(dm.n_dofs):
            w = dm.join(f1.u, f1.c)
            w[j] += eps
            u, c = dm.split(w)
            fp = f0.copy(); fp.u, fp.c = u, c
            rp, _, _, _ = asm.assemble_system(m, dm, fp, f0, steel, 0.5, "two-way",
                                              frozen_sigma_h=sh0, want_jacobian=False)
            col = (rp - base) / eps
            scale = max(np.abs(J[:, j]).max(), 1.0)
            err[j] = np.abs(col - J[:, j]).max() / scale
        assert err.max() <= 1e-5

    def test_infinite_dt_removes_mass(self, steel):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m, c0=1.0)
        J_small = asm.assemble_system(m, dm, f0, f0, steel, 1e-3, "one-way")[1].toarray()
        J_huge = asm.assemble_system(m, dm, f0, f0, steel, 1e30, "one-way")[1].toarray()
        ic = np.array([3 * n + 2 for n in range(4)])
        K_cc_huge = J_huge[np.ix_(ic, ic)]
        # pure diffusion block: rows sum to zero (constant in kernel)
        assert np.abs(K_cc_huge.sum(axis=1)).max() <= 1e-12 * np.abs(K_cc_huge).max()
        assert np.abs(J_small[np.ix_(ic, ic)]).max() > 1e3 * np.abs(K_cc_huge).max()


def _triplets(ed):
    """(rows, cols) of the K_uu, K_uc, K_cc element entries in the order
    assemble_system concatenates them."""
    eu, ec = ed.edofs_u, ed.edofs_c
    rows = np.concatenate([np.repeat(eu, 6, axis=1).ravel(), np.repeat(eu, 3, axis=1).ravel(),
                           np.repeat(ec, 3, axis=1).ravel()])
    cols = np.concatenate([np.tile(eu, (1, 6)).ravel(), np.tile(ec, (1, 6)).ravel(),
                           np.tile(ec, (1, 3)).ravel()])
    return rows, cols


def _reference_two_way(mesh, dm, fields_new, fields_old, mat, dt):
    """Two-way assembly with per-call element matrices, 3- and 4-operand
    einsum kernels, np.add.at scatters, a per-vertex recovery loop and a
    stable lexsort into from_triplets: the reference for the planned
    assembler. Returns (residual, jacobian, sigma_h_nodal)."""
    ed = asm.precompute(mesh)
    tris, b = mesh.tris, ed.b_eng
    wq = 2.0 * ed.areas[:, None] * ed.weights[None, :]
    d_eps = (asm.element_strain(ed, fields_new.u, tris)
             - asm.element_strain(ed, fields_old.u, tris))
    d_eps[:, 3] *= 0.5
    ce_new, ce_old = fields_new.c[tris], fields_old.c[tris]
    d_c_qp = np.einsum("qj,ej->eq", ed.shape_qp, ce_new - ce_old)
    d_eps_qp = np.broadcast_to(d_eps[:, None, :], (mesh.n_elements, ed.weights.size, 4))
    states, tangent = ct.update_stress(fields_old.states, d_eps_qp, d_c_qp, mat,
                                       return_tangent=True)
    elem_sh = asm.element_sigma_h(states, ed.weights)
    areas = msh.signed_areas(mesh.nodes, tris)
    num, den = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    for k in range(3):
        np.add.at(num, tris[:, k], areas * elem_sh)
        np.add.at(den, tris[:, k], areas)
    sigma_h = num / np.where(den > 0, den, 1.0)
    grad_sh = np.einsum("eid,ei->ed", ed.grads, sigma_h[tris])
    drift = mat.D * mat.Omega / (mat.R * mat.T)

    r_u = np.einsum("eai,ea->ei", b, np.einsum("eq,eqa->ea", wq, states.sigma))
    m_e = np.einsum("eq,qi,qj->eij", wq, ed.shape_qp, ed.shape_qp)
    k_diff = mat.D * ed.areas[:, None, None] * np.einsum("eid,ejd->eij", ed.grads, ed.grads)
    r_c = (np.einsum("eij,ej->ei", m_e, (ce_new - ce_old) / dt)
           + np.einsum("eij,ej->ei", k_diff, ce_new))
    gn = np.einsum("eid,ed->ei", ed.grads, grad_sh)
    c_qp = np.einsum("qj,ej->eq", ed.shape_qp, ce_new)
    r_c -= drift * (wq * c_qp).sum(axis=1)[:, None] * gn
    residual = np.zeros(dm.n_dofs)
    np.add.at(residual, ed.edofs_u, r_u)
    np.add.at(residual, ed.edofs_c, r_c)

    k_uu = np.einsum("eai,eab,ebj->eij", b, np.einsum("eq,eqab->eab", wq, tangent), b)
    chem = np.einsum("eqab,b->eqa", tangent, np.array([1.0, 1.0, 1.0, 0.0])) * (mat.Omega / 3.0)
    k_uc = -np.einsum("eai,eq,eqa,qj->eij", b, wq, chem, ed.shape_qp)
    k_cc = m_e / dt + k_diff - drift * np.einsum("eq,qj,ei->eij", wq, ed.shape_qp, gn)
    rows, cols = _triplets(ed)
    vals = np.concatenate([k_uu.ravel(), k_uc.ravel(), k_cc.ravel()])
    order = np.lexsort((cols, rows))
    jac = sla.from_triplets(dm.n_dofs, (rows[order], cols[order], vals[order]))
    return residual, jac, sigma_h


class TestAssemblyPlan:
    def test_slot_map_equals_sorted_triplets(self, rng):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        ed = asm.precompute(m)
        n = asm.DofMap(m.n_nodes).n_dofs
        rows, cols = _triplets(ed)
        vals = rng.normal(size=rows.size)
        order = np.lexsort((cols, rows))
        ref = sla.from_triplets(n, (rows[order], cols[order], vals[order]))
        data = np.bincount(ed.jac_slot, weights=vals, minlength=ed.jac_indices.size)
        assert np.array_equal(data, ref.values)
        assert np.array_equal(ed.jac_indices, ref.col_indices)
        assert np.array_equal(ed.jac_indptr, ref.row_offsets)

    def test_plastic_two_way_iterate_matches_reference(self, steel_plastic, rng):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        # 3e-3 stretch, past the 1.9e-3 yield strain
        f1.u = np.column_stack([3e-3 * m.nodes[:, 0], np.zeros(m.n_nodes)])
        f1.u += rng.normal(scale=1e-5, size=(m.n_nodes, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        res, jac, states, sh = asm.assemble_system(m, dm, f1, f0, steel_plastic, 0.5,
                                                   "two-way", elem_data=asm.precompute(m))
        assert np.mean(states.eps_p_eq > 0) > 0.5          # mostly plastic
        ref_res, ref_jac, ref_sh = _reference_two_way(m, dm, f1, f0, steel_plastic, 0.5)
        assert np.array_equal(res, ref_res)
        assert np.array_equal(sh, ref_sh)
        assert np.array_equal(jac.row_offsets, ref_jac.row_offsets)
        assert np.array_equal(jac.col_indices, ref_jac.col_indices)
        scale = np.abs(ref_jac.values).max()
        assert np.abs(jac.values - ref_jac.values).max() <= 1e-14 * scale


def _constrained(jac, rhs, plan, t):
    """``jac``, ``rhs`` plus the boundary load, with the plan's Dirichlet
    values imposed by ``apply_dirichlet``."""
    rhs = rhs + asm.neumann_load_vector(plan, t)
    return sla.apply_dirichlet(jac, rhs, zip(plan.fixed_dofs, asm.dirichlet_values(plan, t)))


class TestBoundaryConditions:
    def test_absent_tag_rejected(self, steel):
        m = build_two_element_square()
        bcs = asm.BoundaryConditions(dirichlet_c=[("hole", 1.0)])
        with pytest.raises(asm.AssemblyError, match="hole"):
            asm.plan_boundary(m, bcs)

    def test_total_inflow_matches_flux(self, steel):
        m = msh.generate_annulus(0.2, 1.0, 0.05)
        j_in = 3.7
        bcs = asm.BoundaryConditions(fluxes=[("outer", j_in)])
        load = asm.neumann_load_vector(asm.plan_boundary(m, bcs), 0.0)
        total = load.reshape(-1, 3)[:, 2].sum()
        assert total == pytest.approx(j_in * 2 * np.pi * 1.0, rel=0.01)
        assert np.all(load.reshape(-1, 3)[:, :2] == 0.0)

    def test_traction_resultant(self, steel):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        bcs = asm.BoundaryConditions(tractions=[("right", (5e6, 0.0))])
        load = asm.neumann_load_vector(asm.plan_boundary(m, bcs), 0.0)
        fx = load.reshape(-1, 3)[:, 0].sum()
        assert fx == pytest.approx(5e6 * 1.0, rel=1e-9)

    def test_time_dependent_values(self, steel):
        m = build_two_element_square()
        bcs = asm.BoundaryConditions(dirichlet_u=[("left", 0, lambda t: 2.0 * t)])
        plan = asm.plan_boundary(m, bcs)
        assert set(asm.dirichlet_values(plan, 3.0)) == {6.0}

    def test_dirichlet_c_exact_after_solve(self, steel):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=0.0)
        res, jac, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 1.0, "one-way")
        bcs = asm.BoundaryConditions(
            dirichlet_u=[(t, c, 0.0) for t in ("left", "right") for c in (0, 1)],
            dirichlet_c=[("left", 1.0)])
        A, b = _constrained(jac, -res, asm.plan_boundary(m, bcs), 0.0)
        w = sla.solve(A, b)
        left_c = w[dm.c(m.nodes_with_tag("left"))]
        assert np.all(left_c == 1.0)

    def test_unconstrained_system_reports_singular(self, steel):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m)
        res, jac, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 1.0, "one-way")
        bcs = asm.BoundaryConditions()
        A, b = _constrained(jac, -res, asm.plan_boundary(m, bcs), 0.0)
        with pytest.raises(sla.SingularMatrixError):
            sla.solve(A, np.ones(dm.n_dofs))


class TestPatchAndConservation:
    def test_patch_test_constant_stress(self, steel, rng):
        m = msh.generate_plate_with_hole(1.0, 0.25, 0.11)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=1.0)
        res, jac, _, _ = asm.assemble_system(m, dm, f0, f0, steel, 1.0, "one-way")
        a, b_, c_, d_ = 2e-4, -1e-4, 3e-5, 1.5e-4
        cons = []
        for n in np.unique(m.boundary_edges):
            x, y = m.nodes[n]
            cons += [(3 * n, a * x + b_ * y), (3 * n + 1, c_ * x + d_ * y)]
        for n in range(m.n_nodes):
            cons.append((3 * n + 2, 1.0))
        A, rhs = sla.apply_dirichlet(jac, -res, cons)
        w = sla.solve(A, rhs)
        u, c = dm.split(w)
        f1 = f0.copy(); f1.u = u; f1.c = c
        _, _, states, _ = asm.assemble_system(m, dm, f1, f0, steel, 1.0, "one-way",
                                              want_jacobian=False)
        sig = states.sigma.reshape(-1, 4)
        spread = np.abs(sig - sig.mean(axis=0)).max()
        assert spread <= 1e-10 * np.abs(sig).max()

    def test_discrete_mass_conservation_both_modes(self, steel, rng):
        from chemoplast.mesh import signed_areas
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.06)
        dm = asm.DofMap(m.n_nodes)
        areas = signed_areas(m.nodes, m.tris)
        lumped = np.zeros(m.n_nodes)
        for k in range(3):
            np.add.at(lumped, m.tris[:, k], areas / 3.0)
        for mode in ("one-way", "two-way"):
            f0 = _fields(m, c0=2.0)
            f0.u = rng.normal(scale=1e-5, size=(m.n_nodes, 2))
            f1 = f0.copy()
            f1.c = 2.0 + rng.normal(scale=0.2, size=m.n_nodes)
            res, _, _, _ = asm.assemble_system(m, dm, f1, f0, steel, 0.5, mode,
                                               want_jacobian=False)
            # sum of concentration rows = total lumped mass change per dt,
            # because diffusion and drift are in divergence form
            row_sum = res.reshape(-1, 3)[:, 2].sum()
            expected = lumped @ (f1.c - f0.c) / 0.5
            assert row_sum == pytest.approx(expected, rel=1e-12)


class TestPointLocation:
    def test_probe_interpolation_linear_exact(self, rng):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        field = 2.0 * m.nodes[:, 0] - 0.7 * m.nodes[:, 1] + 0.3
        pts = np.array([[0.35, 0.1], [-0.3, -0.41], [0.2, 0.45]])
        elems, barys = asm.locate_points(m, pts)
        vals = asm.interpolate_nodal(m, field, elems, barys)
        exact = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3
        assert vals == pytest.approx(exact, rel=1e-12)

    def test_point_outside_raises(self):
        m = build_two_element_square()
        with pytest.raises(ValueError):
            asm.locate_points(m, [(5.0, 5.0)])

    def test_boundary_point_located(self):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        elems, barys = asm.locate_points(m, [(-0.2, 0.0), (0.0, 0.2)])
        assert np.all(barys >= -1e-10)
