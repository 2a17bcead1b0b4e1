import numpy as np
import pytest

from chemoplast import assembly as asm, mesh as msh, sparse_linalg as sla
from chemoplast import constitutive as ct
from conftest import build_two_element_square, c_dofs, uniform_grid_mesh


class TestShapeFunctions:
    def test_partition_of_unity(self):
        assert asm.QUAD_SHAPE.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-15)

    def test_interpolates_the_coordinates(self):
        # linear shape functions reproduce every linear field: the reference
        # vertices (0, 0), (1, 0), (0, 1) interpolate to the points themselves
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert asm.QUAD_SHAPE @ vertices == pytest.approx(asm.QUAD_POINTS, abs=1e-15)

    def test_centroid(self):
        # the rule is exact for linear fields: the weighted mean of each shape
        # function is its value at the centroid
        mean = asm.QUAD_WEIGHTS @ asm.QUAD_SHAPE / asm.QUAD_WEIGHTS.sum()
        assert mean == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)


class TestQuadrature:
    def test_weights_sum_to_reference_area(self):
        assert asm.QUAD_WEIGHTS.sum() == pytest.approx(0.5, abs=1e-15)

    def test_degree_two_exactness(self):
        # integrate x^2, x*y over the reference triangle: 1/12, 1/24
        x, y = asm.QUAD_POINTS[:, 0], asm.QUAD_POINTS[:, 1]
        assert (asm.QUAD_WEIGHTS * x**2).sum() == pytest.approx(1 / 12, abs=1e-15)
        assert (asm.QUAD_WEIGHTS * x * y).sum() == pytest.approx(1 / 24, abs=1e-15)


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
                     np.array(["outer"] * 3))
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
                     np.array(["outer"] * 3))
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
                           m1.boundary_edges.copy(), m1.boundary_tags.copy())
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

    def test_failed_return_names_element(self, steel_plastic, monkeypatch):
        # the return runs on element rows: its failing row is the element
        def failing(xi_tr, eps_p_eq, params):
            raise ct.ConstitutiveError("radial return failed", flat_index=1)

        monkeypatch.setattr(asm, "radial_return", failing)
        m = build_two_element_square()
        f0 = _fields(m)
        with pytest.raises(asm.AssemblyError, match=r"failed at element 1: radial return failed"):
            asm.assemble_system(m, asm.DofMap(4), f0.copy(), f0, steel_plastic, 1.0, "one-way",
                                want_jacobian=False)

    @pytest.mark.parametrize("material", ["steel", "steel_plastic"])
    def test_nonfinite_concentration_names_element(self, material, request):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f0 = _fields(m)
        f1 = f0.copy()
        f1.c[3] = np.nan                    # node 3 belongs to element 1 only
        with pytest.raises(asm.AssemblyError, match="element 1"):
            asm.assemble_system(m, dm, f1, f0, request.getfixturevalue(material), 1.0,
                                "two-way", want_jacobian=False)

    def test_unknown_mode_rejected(self, steel):
        m = build_two_element_square()
        dm = asm.DofMap(4)
        f = _fields(m)
        with pytest.raises(ValueError):
            asm.assemble_system(m, dm, f, f, steel, 1.0, "sideways", want_jacobian=False)

    def test_dof_map_of_another_mesh_rejected(self, steel):
        m = build_two_element_square()
        f = _fields(m)
        with pytest.raises(ValueError) as err:
            asm.assemble_system(m, asm.DofMap(5), f, f, steel, 1.0, "one-way",
                                want_jacobian=False)
        assert str(err.value) == "assemble_system: dof map and assembly plan disagree"

    def test_clockwise_element_rejected(self):
        m = build_two_element_square()
        flipped = msh.Mesh(m.nodes, m.tris[:, ::-1].copy(), m.boundary_edges, m.boundary_tags)
        with pytest.raises(asm.AssemblyError) as err:
            asm.precompute(flipped)
        assert str(err.value) == "precompute: mesh contains non-positively oriented elements"

    def test_per_point_states_of_stressed_fields_need_the_plan(self):
        # fields without a plan are taken as stress-free; stressed ones
        # cannot give their per-point stresses
        f = _fields(build_two_element_square())
        assert not np.any(f.states.sigma)
        f.material.stress_sum[1, 0] = 1.0
        with pytest.raises(ValueError) as err:
            f.states
        assert str(err.value) == ("FieldState.states: the per-point stresses of stressed "
                                  "fields need the assembly plan and the material")


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

    @pytest.mark.parametrize("mode,plastic", [("one-way", False), ("two-way", False),
                                              ("two-way", True)],
                             ids=["one-way", "two-way", "two-way-plastic"])
    def test_no_concentration_row_holds_a_displacement_column(self, mode, plastic,
                                                               steel_plastic, rng):
        # the K_cu sensitivity is dropped, so the interleaved Jacobian has no
        # stored entry in a c row and a u column, in either coupling mode and
        # at a plastic iterate
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.1)
        ed = asm.precompute(m)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        x = m.nodes[:, 0]
        strain = 2e-3 * (x + x**2) if plastic else 1e-4 * x
        f1.u = np.column_stack([strain, np.zeros(m.n_nodes)])
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        _, jac, states, _ = asm.assemble_system(m, asm.DofMap(m.n_nodes), f1, f0, steel_plastic,
                                                0.5, mode, elem_data=ed)
        assert np.any(states.eps_p_eq > 0) == plastic
        coo = jac.tocoo()
        assert coo.nnz == 7 * ed.mass.nnz
        assert not np.any((coo.row % 3 == 2) & (coo.col % 3 != 2))

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

    @pytest.mark.parametrize("material", ["steel_plastic", "steel_kinematic"])
    def test_finite_difference_consistency_plastic(self, material, request, rng):
        # every point of both elements flows plastically
        mat = request.getfixturevalue(material)
        m = build_two_element_square()
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = rng.normal(scale=5e-3, size=(4, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=4)
        _, _, states, _ = asm.assemble_system(m, asm.DofMap(4), f1, f0, mat, 0.5, "two-way",
                                              want_jacobian=False)
        assert np.all(states.eps_p_eq > 0)
        err, same_plastic_set = _fd_jacobian_error(m, f0, f1, mat)
        assert same_plastic_set
        assert err <= 1e-5

    def test_finite_difference_consistency_mixed_plate(self, steel_plastic, rng):
        # a plate iterate with both elastic and plastic elements; no
        # perturbation may move an element across the yield surface
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.1)
        x = m.nodes[:, 0]
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = np.column_stack([2e-3 * (x + x**2), np.zeros(m.n_nodes)])   # strain 0..4e-3
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        _, _, states, _ = asm.assemble_system(m, asm.DofMap(m.n_nodes), f1, f0, steel_plastic,
                                              0.5, "two-way", want_jacobian=False)
        assert 0.1 < np.mean(states.eps_p_eq > 0) < 0.9
        err, same_plastic_set = _fd_jacobian_error(m, f0, f1, steel_plastic)
        assert same_plastic_set
        assert err <= 1e-5

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


def _fd_jacobian_error(mesh, f0, f1, mat, dt=0.5, mode="two-way"):
    """Largest column error of the assembled Jacobian at the iterate ``f1``
    of the step from ``f0`` against central differences of
    ``assemble_residual`` with sigma_h frozen, steps 1e-10 in u and 1e-5 in
    c, relative to the column maximum (at least 1) as in criterion 10; and
    whether every perturbed residual kept the iterate's plastic set."""
    ed = asm.precompute(mesh)
    dm = asm.DofMap(mesh.n_nodes)
    start = asm.step_start(ed, f0, mat)
    it = asm.assemble_residual(ed, f1.u, f1.c, start, mat, dt, mode)
    jac = asm.assemble_jacobian(ed, asm.fixed_jacobian(ed, mat), it, dt).interleaved().toarray()
    w0 = dm.join(f1.u, f1.c)
    steps = np.tile([1e-10, 1e-10, 1e-5], mesh.n_nodes)
    err, same_plastic_set = 0.0, True
    for j in range(dm.n_dofs):
        sides = []
        for sign in (1.0, -1.0):
            w = w0.copy()
            w[j] += sign * steps[j]
            u, c = dm.split(w)
            side = asm.assemble_residual(ed, u, c, start, mat, dt, mode,
                                         frozen_sigma_h=it.sigma_h_nodal)
            same_plastic_set &= np.array_equal(side.plastic.index, it.plastic.index)
            sides.append(side.residual)
        col = (sides[0] - sides[1]) / (2.0 * steps[j])
        err = max(err, np.abs(col - jac[:, j]).max() / max(np.abs(jac[:, j]).max(), 1.0))
    return err, same_plastic_set


def _element_dofs(tris):
    """(n_elem, 6) displacement dofs (u_x, u_y per vertex) and (n_elem, 3)
    concentration dofs of every element."""
    eu = np.empty((tris.shape[0], 6), dtype=np.int64)
    eu[:, 0::2] = 3 * tris
    eu[:, 1::2] = 3 * tris + 1
    return eu, 3 * tris + 2


def _grads(mesh):
    """(n_elem, 3, 2) physical shape-function gradients of every element."""
    p = mesh.nodes[mesh.tris]                                    # (n_elem, 3, 2)
    det = 2.0 * msh.signed_areas(mesh.nodes, mesh.tris)
    nxt, prv = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    return np.stack([nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=-1) / det[:, None, None]


def _triplets(tris):
    """(rows, cols) of the K_uu, K_uc, K_cc element entries in the order
    fixed_jacobian concatenates them."""
    eu, ec = _element_dofs(tris)
    rows = np.concatenate([np.repeat(eu, 6, axis=1).ravel(), np.repeat(eu, 3, axis=1).ravel(),
                           np.repeat(ec, 3, axis=1).ravel()])
    cols = np.concatenate([np.tile(eu, (1, 6)).ravel(), np.tile(ec, (1, 6)).ravel(),
                           np.tile(ec, (1, 3)).ravel()])
    return rows, cols


def _element_strain(b, u, tris):
    """Engineering strain per element from gathered element displacements."""
    ue = np.empty((tris.shape[0], 6))
    ue[:, 0::2] = u[tris, 0]
    ue[:, 1::2] = u[tris, 1]
    return np.einsum("eij,ej->ei", b, ue)


def _element_sigma_h(states, weights):
    """Quadrature-averaged hydrostatic stress per element."""
    return (ct.hydrostatic(states.sigma) * weights).sum(axis=1) / weights.sum()


def _recovered_sigma_h(mesh, states, weights):
    """Nodal hydrostatic stress recovered from ``states`` by a per-vertex loop."""
    elem_sh = _element_sigma_h(states, weights)
    areas = msh.signed_areas(mesh.nodes, mesh.tris)
    num, den = np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)
    for k in range(3):
        np.add.at(num, mesh.tris[:, k], areas * elem_sh)
        np.add.at(den, mesh.tris[:, k], areas)
    return num / np.where(den > 0, den, 1.0)


def _reference_two_way(mesh, dm, fields_new, fields_old, mat, dt):
    """Two-way assembly with per-call element matrices, 3- and 4-operand
    einsum kernels, np.add.at scatters, a per-vertex recovery loop and a
    stable lexsort into from_triplets: the reference for the planned
    assembler. Returns (residual, jacobian, sigma_h_nodal)."""
    ed = asm.precompute(mesh)
    tris, b, grads = mesh.tris, ed.b_eng, _grads(mesh)
    edofs_u, edofs_c = _element_dofs(tris)
    weights = asm.QUAD_WEIGHTS
    wq = 2.0 * ed.areas[:, None] * weights[None, :]
    d_eps = _element_strain(b, fields_new.u, tris) - _element_strain(b, fields_old.u, tris)
    d_eps[:, 3] *= 0.5
    ce_new, ce_old = fields_new.c[tris], fields_old.c[tris]
    d_c_qp = np.einsum("qj,ej->eq", asm.QUAD_SHAPE, ce_new - ce_old)
    d_eps_qp = np.broadcast_to(d_eps[:, None, :], (mesh.n_elements, weights.size, 4))
    states, plastic = ct.update_stress(fields_old.states, d_eps_qp, d_c_qp, mat,
                                       return_tangent=True)
    tangent = plastic.tangent(mat, d_c_qp.shape)
    sigma_h = _recovered_sigma_h(mesh, states, weights)
    grad_sh = np.einsum("eid,ei->ed", grads, sigma_h[tris])
    drift = mat.D * mat.Omega / (ct.GAS_CONSTANT * mat.T)

    r_u = np.einsum("eai,ea->ei", b, np.einsum("eq,eqa->ea", wq, states.sigma))
    m_e = np.einsum("eq,qi,qj->eij", wq, asm.QUAD_SHAPE, asm.QUAD_SHAPE)
    k_diff = mat.D * ed.areas[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
    r_c = (np.einsum("eij,ej->ei", m_e, (ce_new - ce_old) / dt)
           + np.einsum("eij,ej->ei", k_diff, ce_new))
    gn = np.einsum("eid,ed->ei", grads, grad_sh)
    c_qp = np.einsum("qj,ej->eq", asm.QUAD_SHAPE, ce_new)
    r_c -= drift * (wq * c_qp).sum(axis=1)[:, None] * gn
    residual = np.zeros(dm.n_dofs)
    np.add.at(residual, edofs_u, r_u)
    np.add.at(residual, edofs_c, r_c)

    k_uu = np.einsum("eai,eab,ebj->eij", b, np.einsum("eq,eqab->eab", wq, tangent), b)
    chem = np.einsum("eqab,b->eqa", tangent, np.array([1.0, 1.0, 1.0, 0.0])) * (mat.Omega / 3.0)
    k_uc = -np.einsum("eai,eq,eqa,qj->eij", b, wq, chem, asm.QUAD_SHAPE)
    k_cc = m_e / dt + k_diff - drift * np.einsum("eq,qj,ei->eij", wq, asm.QUAD_SHAPE, gn)
    rows, cols = _triplets(tris)
    vals = np.concatenate([k_uu.ravel(), k_uc.ravel(), k_cc.ravel()])
    order = np.lexsort((cols, rows))
    jac = sla.from_triplets(dm.n_dofs, (rows[order], cols[order], vals[order]))
    return residual, jac, sigma_h


def _mixed_iterate(mesh, ed, mat, rng):
    """Step-start fields and a two-way iterate of ``mesh`` on which some
    elements flow plastically and the others stay elastic, and the
    iterate's residual pass."""
    x = mesh.nodes[:, 0]
    f0 = _fields(mesh, c0=100.0)
    f1 = f0.copy()
    f1.u = np.column_stack([2e-3 * (x + x**2), np.zeros(mesh.n_nodes)])   # strain 0..4e-3
    f1.c = 100.0 + rng.normal(scale=5.0, size=mesh.n_nodes)
    it = asm.assemble_residual(ed, f1.u, f1.c, asm.step_start(ed, f0, mat), mat, 0.5, "two-way")
    assert 0 < it.plastic.index.size < mesh.n_elements
    return f0, f1, it


class TestAssemblyPlan:
    def test_slot_map_equals_sorted_triplets(self, rng):
        # the mechanics rows and their slot map, and the node pattern with
        # cc_pair, are the u rows and the c rows of the sorted triplets
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        ed = asm.precompute(m)
        n = asm.DofMap(m.n_nodes).n_dofs
        rows, cols = _triplets(m.tris)
        vals = rng.normal(size=rows.size)
        order = np.lexsort((cols, rows))
        ref = sla.from_triplets(n, (rows[order], cols[order], vals[order]))
        is_c = np.arange(n) % 3 == 2
        ref_mech, ref_cc = ref[~is_c], ref[is_c][:, is_c]
        n_mech = ed.mech_slot.size
        mech = np.bincount(ed.mech_slot, weights=vals[:n_mech], minlength=ed.mech_indices.size)
        cc = np.bincount(ed.cc_pair.ravel(), weights=vals[n_mech:], minlength=ed.mass.nnz)
        assert np.array_equal(mech, ref_mech.data)
        assert np.array_equal(ed.mech_indices, ref_mech.indices)
        assert np.array_equal(ed.mech_indptr, ref_mech.indptr)
        assert np.array_equal(cc, ref_cc.data)
        assert np.array_equal(ed.mass.indices, ref_cc.indices)
        assert np.array_equal(ed.mass.indptr, ref_cc.indptr)

    @pytest.mark.parametrize("frozen", [False, True], ids=["recovered", "frozen-sigma-h"])
    def test_drift_entries_are_the_element_formula(self, steel_plastic, rng, frozen):
        # the drift block's node-pattern data, formed by the per-mesh
        # operator, is the element formula gn_i N_j scattered by cc_pair:
        # bitwise before the drift coefficient is applied, to roundoff
        # after. The Jacobian's K_cc is the base less it
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        f0, f1, it = _mixed_iterate(m, ed, steel_plastic, rng)
        sigma_h = it.sigma_h_nodal
        if frozen:
            sigma_h = rng.normal(scale=1e8, size=m.n_nodes)
            it = asm.assemble_residual(ed, f1.u, f1.c, asm.step_start(ed, f0, steel_plastic),
                                       steel_plastic, 0.5, "two-way", frozen_sigma_h=sigma_h)
        gn = (ed.gn @ sigma_h).reshape(-1, 3)
        elem = np.einsum("ei,ej->eij", gn, ed.shape_int)
        slots = ed.cc_pair.ravel()
        assert np.array_equal(ed.drift_op @ gn.ravel(),
                              np.bincount(slots, weights=elem.ravel(), minlength=ed.mass.nnz))
        coeff = steel_plastic.drift_coeff
        ref = np.bincount(slots, weights=coeff * elem.ravel(), minlength=ed.mass.nnz)
        size = np.bincount(slots, weights=np.abs(coeff * elem).ravel(), minlength=ed.mass.nnz)
        assert np.all(np.abs(it.drift - ref) <= 20.0 * np.finfo(float).eps * size)
        assert np.any(ref)
        fixed = asm.fixed_jacobian(ed, steel_plastic)
        _, cc, base = asm.assemble_jacobian(ed, fixed, it, 0.5)
        assert base is fixed.at(0.5).cc
        assert np.array_equal(cc.data, base.data - it.drift)

    @pytest.mark.parametrize("material", ["steel_plastic", "steel_kinematic"])
    def test_plastic_two_way_iterate_matches_reference(self, material, request, rng):
        mat = request.getfixturevalue(material)
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        dm = asm.DofMap(m.n_nodes)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        # 3e-3 stretch, past the 1.9e-3 yield strain
        f1.u = np.column_stack([3e-3 * m.nodes[:, 0], np.zeros(m.n_nodes)])
        f1.u += rng.normal(scale=1e-5, size=(m.n_nodes, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        res, jac, states, sh = asm.assemble_system(m, dm, f1, f0, mat, 0.5,
                                                   "two-way", elem_data=asm.precompute(m))
        assert np.mean(states.eps_p_eq > 0) > 0.5          # mostly plastic
        ref_res, ref_jac, ref_sh = _reference_two_way(m, dm, f1, f0, mat, 0.5)
        # the planned residual sums in another order (element stress sums and
        # sparse operators instead of per-point stresses, gathers and element
        # kernels); it must agree to a fifth of the roundoff floor the Newton
        # loop judges each row against, 20 eps |J| |w|
        eps = np.finfo(float).eps
        floor = abs(ref_jac) @ np.abs(dm.join(f1.u, f1.c))
        assert np.all(np.abs(res - ref_res) <= 4.0 * eps * floor)
        # sigma_h comes from the element stress sums, not from the returned
        # states, so it matches their recovery, and the reference's, to roundoff
        own = _recovered_sigma_h(m, states, asm.QUAD_WEIGHTS)
        assert np.abs(sh - own).max() <= 8.0 * eps * np.abs(own).max()
        assert np.abs(sh - ref_sh).max() <= 8.0 * eps * np.abs(ref_sh).max()
        assert np.array_equal(jac.indptr, ref_jac.indptr)
        assert np.array_equal(jac.indices, ref_jac.indices)
        scale = np.abs(ref_jac.data).max()
        assert np.abs(jac.data - ref_jac.data).max() <= 1e-14 * scale


    def test_elastic_iterate_k_uu_is_the_fixed_data(self, steel_plastic, rng):
        # no plastic point: the K_uu entries are the fixed elastic ones,
        # bitwise, at any dt and in both modes (the fact behind keep_uu)
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        fixed = asm.fixed_jacobian(ed, steel_plastic)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = rng.normal(scale=1e-6, size=(m.n_nodes, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        start = asm.step_start(ed, f0, steel_plastic)
        for mode, dt in (("one-way", 0.5), ("two-way", 0.25)):
            it = asm.assemble_residual(ed, f1.u, f1.c, start, steel_plastic, dt, mode)
            assert it.plastic.index.size == 0
            jac = asm.assemble_jacobian(ed, fixed, it, dt)
            assert jac.mech is fixed.mech

    def test_jacobian_is_fixed_plus_changing_part(self, steel_plastic, rng):
        # at a plastic two-way iterate only the K_uu slots of the plastic
        # elements differ from the elastic mechanics rows; K_cc is a new
        # block over the node pattern
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        fixed = asm.fixed_jacobian(ed, steel_plastic)
        _, _, it = _mixed_iterate(m, ed, steel_plastic, rng)
        jac = asm.assemble_jacobian(ed, fixed, it, 0.5)
        changed = np.flatnonzero(jac.mech.data != fixed.mech.data)
        assert changed.size > 0
        assert np.all(np.isin(changed, ed.uu_slots[it.plastic.index]))
        base = fixed.at(0.5)
        assert jac.cc is not base.cc and np.any(jac.cc.data != base.cc.data)
        for block, ref in zip(jac, base):          # the pattern is shared, not copied
            assert np.shares_memory(block.indices, ref.indices)
            assert np.shares_memory(block.indptr, ref.indptr)

    def test_base_jacobian_kept_per_dt(self, steel_plastic, rng):
        # an iterate with no drift and no plastic element gets the blocks of
        # the base at dt, the elastic mechanics rows and K_diff + mass / dt:
        # one K_cc object per dt, each block with read-only data
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        fixed = asm.fixed_jacobian(ed, steel_plastic)
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = rng.normal(scale=1e-6, size=(m.n_nodes, 2))
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        start = asm.step_start(ed, f0, steel_plastic)
        m_e = np.einsum("eq,qi,qj->eij", ed.wq, asm.QUAD_SHAPE, asm.QUAD_SHAPE)
        mass = np.bincount(ed.cc_pair.ravel(), weights=m_e.ravel(), minlength=ed.mass.nnz)
        assert np.array_equal(fixed.mass.data, mass)
        bases = []
        for dt in (0.5, 0.5, 0.25):
            it = asm.assemble_residual(ed, f1.u, f1.c, start, steel_plastic, dt, "one-way")
            assert it.plastic.index.size == 0
            base = asm.assemble_jacobian(ed, fixed, it, dt)
            assert base.mech is fixed.mech and base.cc is base.cc_base is fixed.at(dt).cc
            assert np.array_equal(base.cc.data, fixed.k_diff.data + mass / dt)
            for block in base:
                with pytest.raises(ValueError, match="read-only"):
                    block.data[0] = 0.0
            bases.append(base)
        assert bases[0].cc is bases[1].cc and bases[2].cc is not bases[0].cc
        # a two-way iterate gets a new K_cc and leaves the base as it is
        it = asm.assemble_residual(ed, f1.u, f1.c, start, steel_plastic, 0.25, "two-way")
        jac = asm.assemble_jacobian(ed, fixed, it, 0.25)
        assert jac.mech is fixed.mech and jac.cc is not bases[2].cc
        assert jac.cc_base is bases[2].cc
        assert not np.array_equal(jac.cc.data, bases[2].cc.data)
        assert np.array_equal(bases[2].cc.data, fixed.k_diff.data + mass / 0.25)


class TestJacobianRows:
    def test_block_floors_equal_interleaved_rows_bitwise(self, steel_plastic, rng):
        # |K_u| |w| and |K_cc| |c| from the blocks' magnitudes: equal to the
        # rows of the interleaved Jacobian's |J| |w|, bitwise, at a mixed
        # elastic/plastic iterate (both blocks changed) and at the base (both
        # kept)
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        fixed = asm.fixed_jacobian(ed, steel_plastic)
        _, f1, it = _mixed_iterate(m, ed, steel_plastic, rng)
        w = np.abs(asm.DofMap(m.n_nodes).join(f1.u, f1.c))
        mixed = asm.assemble_jacobian(ed, fixed, it, 0.5)
        base = fixed.at(0.5)
        is_c = np.arange(w.size) % 3 == 2
        for jac in (mixed, base):
            rows = abs(jac.interleaved()) @ w
            mech, cc = (fixed.magnitude(block) for block in jac[:2])
            assert np.array_equal(mech @ w, rows[~is_c])
            assert np.array_equal(cc @ w[is_c], rows[is_c])
        # the base K_cc's magnitude is kept, formed when first asked for; the
        # mechanics rows' is formed at every call
        kept = fixed.magnitude(base.cc)
        assert fixed.magnitude(base.cc) is kept
        assert fixed.magnitude(mixed.cc) is not kept
        assert fixed.magnitude(base.mech) is not fixed.magnitude(base.mech)

    def test_plastic_mechanics_rows_are_the_u_rows_of_assemble_system(self, steel_plastic, rng):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        dm = asm.DofMap(m.n_nodes)
        f0, f1, it = _mixed_iterate(m, ed, steel_plastic, rng)
        mech, cc, _ = asm.assemble_jacobian(ed, asm.fixed_jacobian(ed, steel_plastic), it, 0.5)
        full = asm.assemble_system(m, dm, f1, f0, steel_plastic, 0.5, "two-way",
                                   elem_data=ed)[1]
        is_c = np.arange(dm.n_dofs) % 3 == 2
        for block, ref in ((mech, full[~is_c]), (cc, full[is_c][:, is_c])):
            assert block.shape == ref.shape
            assert np.array_equal(block.indptr, ref.indptr)
            assert np.array_equal(block.indices, ref.indices)
            assert np.array_equal(block.data, ref.data)


class TestIterateStates:
    @pytest.mark.parametrize("material", ["steel_plastic", "steel_kinematic"])
    def test_states_are_the_material_update_of_the_residual(self, material, request, rng):
        # a step from a yielded start (back stress too, if kinematic) on which
        # some points flow and the others stay elastic
        mat = request.getfixturevalue(material)
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        dm = asm.DofMap(m.n_nodes)
        x = m.nodes[:, 0]
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = np.column_stack([2e-3 * (x + x**2), np.zeros(m.n_nodes)])   # strain 0..4e-3
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        start = asm.step_start(ed, f0, mat)
        f1.material = asm.iterate_states(
            start, asm.assemble_residual(ed, f1.u, f1.c, start, mat, 0.5, "two-way"), mat)
        f1.elem_data, f1.params = ed, mat
        f2 = f1.copy()
        f2.u = 1.2 * f1.u + rng.normal(scale=1e-6, size=f1.u.shape)
        f2.c = f1.c + rng.normal(scale=5.0, size=m.n_nodes)
        start = asm.step_start(ed, f1, mat)
        it = asm.assemble_residual(ed, f2.u, f2.c, start, mat, 0.5, "two-way")
        states = asm.point_states(ed, mat, f2.c, asm.iterate_states(start, it, mat))

        d_eps = asm.element_strain(ed, f2.u) - asm.element_strain(ed, f1.u)
        d_eps[:, 3] *= 0.5
        d_eps_qp = np.broadcast_to(d_eps[:, None, :], f1.states.sigma.shape)
        d_c_qp = (ed.qp @ (f2.c - f1.c)).reshape(ed.wq.shape)
        # the reference runs update_stress on every point of f1's per-point view
        ref, plastic = ct.update_stress(f1.states, d_eps_qp, d_c_qp, mat, return_tangent=True)
        assert 0.1 < plastic.index.size / d_c_qp.size < 0.9       # a mixed step
        if mat.hardening_kind == "kinematic":
            assert np.abs(f1.material.back_stress).max() > 0
        # the plastic sets agree as elements: every point of a plastic element
        # is plastic in the reference, and no other point is
        n_qp = ed.wq.shape[1]
        assert np.array_equal(plastic.index,
                              (n_qp * it.plastic.index[:, None] + np.arange(n_qp)).ravel())
        eps = np.finfo(float).eps
        for name in ("sigma", "eps_p", "back_stress", "eps_p_eq"):
            new, expected = getattr(states, name), getattr(ref, name)
            assert np.abs(new - expected).max() <= 16.0 * eps * np.abs(expected).max(), name
        # their stress sums give the residual's mechanics rows to a fifth of
        # the Newton loop's roundoff floor, 20 eps |J| |w|
        rows = ed.strain_t @ np.einsum("eq,eqa->ea", ed.wq, states.sigma).ravel()
        jac = asm.assemble_jacobian(ed, asm.fixed_jacobian(ed, mat), it, 0.5).interleaved()
        floor = (abs(jac) @ np.abs(dm.join(f2.u, f2.c))).reshape(-1, 3)[:, :2].ravel()
        assert np.all(np.abs(rows - it.residual.reshape(-1, 3)[:, :2].ravel()) <= 4.0 * eps * floor)

    def test_committed_strain_starts_the_next_step(self, steel_plastic, rng):
        # an iterate's strain, passed to the next step start, gives bitwise
        # the residual of a start that computes it, as assemble_system does
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.07)
        ed = asm.precompute(m)
        dm = asm.DofMap(m.n_nodes)
        x = m.nodes[:, 0]
        f0 = _fields(m, c0=100.0)
        f1 = f0.copy()
        f1.u = np.column_stack([2e-3 * (x + x**2), np.zeros(m.n_nodes)])   # strain 0..4e-3
        f1.c = 100.0 + rng.normal(scale=5.0, size=m.n_nodes)
        it = asm.assemble_residual(ed, f1.u, f1.c, asm.step_start(ed, f0, steel_plastic),
                                   steel_plastic, 0.5, "two-way")
        f1.material = asm.iterate_states(asm.step_start(ed, f0, steel_plastic), it,
                                         steel_plastic)
        assert it.plastic.index.size > 0
        assert np.array_equal(it.strain, asm.element_strain(ed, f1.u))
        carried = asm.step_start(ed, f1, steel_plastic, it.strain)
        assert carried.strain is it.strain
        assert np.array_equal(asm.step_start(ed, f1, steel_plastic).strain, it.strain)
        f2 = f1.copy()
        f2.u = 1.2 * f1.u + rng.normal(scale=1e-6, size=f1.u.shape)
        f2.c = f1.c + rng.normal(scale=5.0, size=m.n_nodes)
        res = asm.assemble_residual(ed, f2.u, f2.c, carried, steel_plastic, 0.5,
                                    "two-way").residual
        ref = asm.assemble_system(m, dm, f2, f1, steel_plastic, 0.5, "two-way", elem_data=ed,
                                  want_jacobian=False)[0]
        assert np.array_equal(res, ref)


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
        left_c = w[c_dofs(m.nodes_with_tag("left"))]
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
        interp = asm.interpolation_operator(m, elems, barys)
        assert interp.shape == (3, m.n_nodes)
        exact = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3
        assert interp @ field == pytest.approx(exact, rel=1e-12)
        # a vector field, component by component, and the entries in
        # vertex order
        vec = np.column_stack([field, -field])
        assert interp @ vec == pytest.approx(np.column_stack([exact, -exact]), rel=1e-12)
        assert np.array_equal(interp.indices.reshape(3, 3), m.tris[elems])
        assert np.array_equal(interp.data.reshape(3, 3), barys)

    def test_point_outside_raises(self):
        m = build_two_element_square()
        with pytest.raises(ValueError):
            asm.locate_points(m, [(5.0, 5.0)])

    def test_boundary_point_located(self):
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        elems, barys = asm.locate_points(m, [(-0.2, 0.0), (0.0, 0.2)])
        assert np.all(barys >= -1e-10)

    @staticmethod
    def _locate_one_by_one(mesh, points):
        """The point-by-point form of ``locate_points``: each point against
        every element in turn, the best-centered containing element kept."""
        p0, p1, p2 = (mesh.nodes[mesh.tris[:, k]] for k in range(3))
        det = 2.0 * msh.signed_areas(mesh.nodes, mesh.tris)
        elems, barys = [], []
        for pt in np.atleast_2d(np.asarray(points, dtype=float)):
            w0 = ((p1[:, 0] - pt[0]) * (p2[:, 1] - pt[1])
                  - (p1[:, 1] - pt[1]) * (p2[:, 0] - pt[0])) / det
            w1 = ((p2[:, 0] - pt[0]) * (p0[:, 1] - pt[1])
                  - (p2[:, 1] - pt[1]) * (p0[:, 0] - pt[0])) / det
            w2 = 1.0 - w0 - w1
            inside = (w0 >= -1e-10) & (w1 >= -1e-10) & (w2 >= -1e-10)
            if not inside.any():
                raise ValueError(f"locate_points: point {pt} lies outside the mesh")
            cand = np.flatnonzero(inside)
            best = cand[np.argmax(np.minimum(np.minimum(w0[cand], w1[cand]), w2[cand]))]
            elems.append(best)
            barys.append((w0[best], w1[best], w2[best]))
        return np.array(elems, dtype=np.int64), np.array(barys)

    @pytest.mark.parametrize("block", [asm.LOCATE_BLOCK, 1000])
    @pytest.mark.parametrize("make", [lambda: msh.generate_plate_with_hole(1.0, 0.2, 0.08),
                                      lambda: msh.generate_annulus(0.0, 1.0, 0.1)],
                             ids=["plate", "disk"])
    def test_all_at_once_equals_one_by_one(self, monkeypatch, rng, make, block):
        # vertices (shared by several elements), edge midpoints (by two) and
        # interior points: the same elements and barycentrics, bitwise, in
        # one block or in many
        monkeypatch.setattr(asm, "LOCATE_BLOCK", block)
        m = make()
        corners = m.nodes[m.tris]
        weights = rng.dirichlet(np.ones(3), size=m.n_elements)
        pts = np.vstack([m.nodes, 0.5 * (corners[:, 0] + corners[:, 1]),
                         np.einsum("ek,ekd->ed", weights, corners)])
        elems, barys = asm.locate_points(m, pts)
        ref_elems, ref_barys = self._locate_one_by_one(m, pts)
        assert elems.dtype == ref_elems.dtype and np.array_equal(elems, ref_elems)
        assert barys.tobytes() == ref_barys.tobytes()

    @pytest.mark.parametrize("block", [asm.LOCATE_BLOCK, 100])
    def test_first_outside_point_named(self, monkeypatch, block):
        monkeypatch.setattr(asm, "LOCATE_BLOCK", block)
        m = msh.generate_plate_with_hole(1.0, 0.2, 0.08)
        pts = [(0.3, 0.1)] * 5 + [(0.0, 0.0), (5.0, 5.0)]    # the hole's center, then far out
        for call in (asm.locate_points, self._locate_one_by_one):
            with pytest.raises(ValueError, match=r"point \[0\. 0\.\] lies outside the mesh"):
                call(m, pts)
