"""Linear-triangle discretization of the coupled weak form.

Builds residual and Jacobian for the monolithic (u_x, u_y, c) system:
mechanical equilibrium with the stress from the material-point update at
every quadrature point, backward-Euler diffusion with a consistent mass
matrix, and (in two-way mode) the drift term that advects concentration down
the gradient of the recovered nodal hydrostatic stress.

Jacobian structure: K_uu carries the elastoplastic consistent tangent, K_uc
the swelling coupling, K_cc mass/diffusion plus the drift term with the
recovered gradient frozen at the current iterate; the K_cu sensitivity is
dropped (Picard treatment) so converged solutions are unaffected while the
assembly never needs recovery derivatives.

Assembly is planned once per mesh (``precompute``): the element geometry,
the transposed strain-displacement matrices, the quadrature weights, the
consistent mass and the ``grad N_i . grad N_j`` products, the residual dof
vector, and the Jacobian's CSR pattern with a slot map that sends every
element triplet to its entry in the CSR data. Per iterate, ``assemble_system``
only runs the material update and the element kernels, vectorized over all
elements at once, and scatters with one ``np.bincount`` each for the
residual and the Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import sparse_linalg
from .constitutive import ConstitutiveError, MaterialState, hydrostatic, update_stress

_CHEM_VEC = np.array([1.0, 1.0, 1.0, 0.0])


class AssemblyError(RuntimeError):
    pass


@dataclass(frozen=True)
class DofMap:
    """Node-major dof layout: node n owns (3n, 3n+1, 3n+2) = (u_x, u_y, c)."""
    n_nodes: int

    @property
    def n_dofs(self):
        return 3 * self.n_nodes

    def ux(self, nodes):
        return 3 * np.asarray(nodes)

    def uy(self, nodes):
        return 3 * np.asarray(nodes) + 1

    def c(self, nodes):
        return 3 * np.asarray(nodes) + 2

    def split(self, w):
        """Global vector -> (u (N,2), c (N,))."""
        w = np.asarray(w).reshape(self.n_nodes, 3)
        return w[:, :2].copy(), w[:, 2].copy()

    def join(self, u, c):
        w = np.empty((self.n_nodes, 3))
        w[:, :2] = np.asarray(u).reshape(self.n_nodes, 2)
        w[:, 2] = c
        return w.ravel()


@dataclass
class QuadratureRule:
    """Points (reference coords) and weights on the unit triangle."""
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 0.5) > 1e-14:
            raise ValueError("QuadratureRule: weights must sum to the reference area 1/2")


def default_rule():
    """Degree-2 three-point rule (exact for the mass matrix and the linear
    concentration factor in the drift term)."""
    pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
    wts = np.full(3, 1 / 6)
    return QuadratureRule(points=pts, weights=wts)


def shape_tri3(xi, eta):
    """Linear shape functions and their reference gradients at (xi, eta)."""
    n = np.array([1.0 - xi - eta, xi, eta])
    dn = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return n, dn


@dataclass
class FieldState:
    """Nodal fields plus the per-quadrature-point material history."""
    u: np.ndarray              # (N, 2)
    c: np.ndarray              # (N,)
    states: MaterialState      # batch (n_elem, n_qp)
    sigma_h_nodal: np.ndarray  # (N,) recovered

    @classmethod
    def zeros(cls, mesh, n_qp=3, c0=0.0):
        n = mesh.n_nodes
        return cls(
            u=np.zeros((n, 2)),
            c=np.full(n, float(c0)),
            states=MaterialState.zeros((mesh.n_elements, n_qp)),
            sigma_h_nodal=np.zeros(n),
        )

    def copy(self):
        return FieldState(self.u.copy(), self.c.copy(), self.states.copy(),
                          self.sigma_h_nodal.copy())


@dataclass
class ElementData:
    """Assembly plan of one mesh, made once per run by ``precompute``.

    Everything here depends on the mesh and the quadrature rule only: the
    geometry, the quadrature weights, the consistent mass, the diffusion
    kernel without its coefficient, and where every element entry lands in
    the global residual and in the Jacobian's CSR data. What depends on the
    iterate (material update, element kernels, the two scatters) is computed
    by ``assemble_system`` on every call.
    """
    areas: np.ndarray       # (n_elem,)
    grads: np.ndarray       # (n_elem, 3, 2) physical shape-function gradients
    b_eng: np.ndarray       # (n_elem, 4, 6) engineering strain-displacement
    b_t: np.ndarray         # (n_elem, 6, 4) contiguous transpose of b_eng
    shape_qp: np.ndarray    # (n_qp, 3) shape values at quadrature points
    weights: np.ndarray     # (n_qp,)
    wq: np.ndarray          # (n_elem, n_qp) physical quadrature weights
    m_e: np.ndarray         # (n_elem, 3, 3) consistent mass
    gg: np.ndarray          # (n_elem, 3, 3) grad N_i . grad N_j
    edofs_u: np.ndarray     # (n_elem, 6)
    edofs_c: np.ndarray     # (n_elem, 3)
    res_dofs: np.ndarray    # (9 n_elem,) residual rows: edofs_u, then edofs_c
    jac_indptr: np.ndarray  # CSR pattern of the Jacobian
    jac_indices: np.ndarray
    jac_slot: np.ndarray    # (63 n_elem,) CSR data index of each K_uu, K_uc, K_cc entry


def _jacobian_pattern(n, edofs_u, edofs_c):
    """CSR pattern of the element blocks K_uu (6x6), K_uc (6x3) and K_cc
    (3x3), and the CSR data index of every block entry, taken in the order
    ``assemble_system`` concatenates them.

    ``np.bincount(slot, vals)`` then adds the entries sharing a slot in this
    order, the summation order of a stable sort of the triplets by (row, col)
    followed by duplicate summation.
    """
    eu, ec = edofs_u, edofs_c
    rows = np.concatenate([np.repeat(eu, 6, axis=1).ravel(),
                           np.repeat(eu, 3, axis=1).ravel(),
                           np.repeat(ec, 3, axis=1).ravel()])
    cols = np.concatenate([np.tile(eu, (1, 6)).ravel(),
                           np.tile(ec, (1, 6)).ravel(),
                           np.tile(ec, (1, 3)).ravel()])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    # scipy's CSR index type
    return indptr.astype(np.int32), (keys % n).astype(np.int32), slot


def precompute(mesh, rule=None):
    """Assembly plan of ``mesh`` under ``rule`` (default: ``default_rule``)."""
    rule = rule or default_rule()
    tris = mesh.tris
    p0 = mesh.nodes[tris[:, 0]]
    p1 = mesh.nodes[tris[:, 1]]
    p2 = mesh.nodes[tris[:, 2]]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
    areas = 0.5 * det
    if np.any(areas <= 0):
        raise AssemblyError("precompute: mesh contains non-positively oriented elements")

    grads = np.empty((tris.shape[0], 3, 2))
    grads[:, 0, 0] = (p1[:, 1] - p2[:, 1]) / det
    grads[:, 1, 0] = (p2[:, 1] - p0[:, 1]) / det
    grads[:, 2, 0] = (p0[:, 1] - p1[:, 1]) / det
    grads[:, 0, 1] = (p2[:, 0] - p1[:, 0]) / det
    grads[:, 1, 1] = (p0[:, 0] - p2[:, 0]) / det
    grads[:, 2, 1] = (p1[:, 0] - p0[:, 0]) / det

    b = np.zeros((tris.shape[0], 4, 6))
    for i in range(3):
        b[:, 0, 2 * i] = grads[:, i, 0]       # eps_xx
        b[:, 1, 2 * i + 1] = grads[:, i, 1]   # eps_yy
        b[:, 3, 2 * i] = grads[:, i, 1]       # gamma_xy
        b[:, 3, 2 * i + 1] = grads[:, i, 0]

    shape_qp = np.stack([shape_tri3(xi, eta)[0] for xi, eta in rule.points])
    wq = 2.0 * areas[:, None] * rule.weights[None, :]

    dm = DofMap(mesh.n_nodes)
    edofs_u = np.empty((tris.shape[0], 6), dtype=np.int64)
    edofs_u[:, 0::2] = dm.ux(tris)
    edofs_u[:, 1::2] = dm.uy(tris)
    edofs_c = dm.c(tris)
    indptr, indices, slot = _jacobian_pattern(dm.n_dofs, edofs_u, edofs_c)

    return ElementData(
        areas=areas, grads=grads, b_eng=b, b_t=np.ascontiguousarray(b.transpose(0, 2, 1)),
        shape_qp=shape_qp, weights=rule.weights.copy(), wq=wq,
        m_e=np.einsum("eq,qi,qj->eij", wq, shape_qp, shape_qp),
        gg=np.einsum("eid,ejd->eij", grads, grads),
        edofs_u=edofs_u, edofs_c=edofs_c,
        res_dofs=np.concatenate([edofs_u.ravel(), edofs_c.ravel()]),
        jac_indptr=indptr, jac_indices=indices, jac_slot=slot)


def element_strain(elem_data, u, tris):
    """Engineering strain 4-vector per element (constant for linear triangles)."""
    ue = np.empty((tris.shape[0], 6))
    ue[:, 0::2] = u[tris, 0]
    ue[:, 1::2] = u[tris, 1]
    return np.einsum("eij,ej->ei", elem_data.b_eng, ue)


def element_sigma_h(states, weights):
    """Quadrature-averaged hydrostatic stress per element."""
    sh = hydrostatic(states.sigma)
    return (sh * weights) .sum(axis=1) / weights.sum()


def recover_hydrostatic(mesh, elem_sigma_h):
    """Lumped L2 projection of elementwise values onto the nodes.

    Nodal value = area-weighted average of the adjacent element values;
    exact for a globally linear field on structured patches.
    """
    elem_sigma_h = np.asarray(elem_sigma_h, dtype=float)
    if elem_sigma_h.shape != (mesh.n_elements,):
        raise ValueError("recover_hydrostatic: need one value per element")
    from .mesh import signed_areas
    areas = signed_areas(mesh.nodes, mesh.tris)
    # vertex-major: the contributions of every element's first vertex, then
    # of the second and the third
    verts = mesh.tris.T.ravel()
    num = np.bincount(verts, weights=np.tile(areas * elem_sigma_h, 3), minlength=mesh.n_nodes)
    den = np.bincount(verts, weights=np.tile(areas, 3), minlength=mesh.n_nodes)
    return num / np.where(den > 0, den, 1.0)


@dataclass
class BoundaryConditions:
    """Scenario boundary data consumed by assembly.

    dirichlet_u : list of (tag, component, value)  -- value float or callable(t)
    pins        : list of (node_id, component, value) point constraints
    dirichlet_c : list of (tag, value)
    tractions   : list of (tag, (tx, ty))          -- components float or callable(t)
    fluxes      : list of (tag, j_in)              -- positive = into the domain
    """
    dirichlet_u: list = None
    pins: list = None
    dirichlet_c: list = None
    tractions: list = None
    fluxes: list = None

    def __post_init__(self):
        for name in ("dirichlet_u", "pins", "dirichlet_c", "tractions", "fluxes"):
            if getattr(self, name) is None:
                setattr(self, name, [])

    def _check_tag(self, mesh, tag):
        if tag not in mesh.tags():
            raise AssemblyError(f"boundary condition references tag {tag!r}, "
                                f"mesh has {mesh.tags()}")

    def dirichlet_constraints(self, mesh, dofmap, t):
        """Flattened (dof, value) pairs at time t."""
        out = {}
        for tag, comp, value in self.dirichlet_u:
            self._check_tag(mesh, tag)
            v = value(t) if callable(value) else value
            for n in mesh.nodes_with_tag(tag):
                out[3 * int(n) + comp] = float(v)
        for node, comp, value in self.pins:
            v = value(t) if callable(value) else value
            out[3 * int(node) + comp] = float(v)
        for tag, value in self.dirichlet_c:
            self._check_tag(mesh, tag)
            v = value(t) if callable(value) else value
            for n in mesh.nodes_with_tag(tag):
                out[3 * int(n) + 2] = float(v)
        return sorted(out.items())


def neumann_load_vector(mesh, dofmap, bcs, t):
    """Boundary-edge integrals of traction and inbound flux (2-point Gauss).

    Returns the (3N,) load vector entering the residual with a minus sign.
    """
    load = np.zeros(dofmap.n_dofs)
    gauss = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))

    def edge_accumulate(tag, pay):
        edges = mesh.edges_with_tag(tag)
        if edges.size == 0:
            return
        pa = mesh.nodes[edges[:, 0]]
        pb = mesh.nodes[edges[:, 1]]
        lengths = np.linalg.norm(pb - pa, axis=1)
        for s in gauss:
            w = 0.5 * lengths
            na, nb = 1.0 - s, s
            pay(edges, w, na, nb)

    for tag, vec in bcs.tractions:
        bcs._check_tag(mesh, tag)
        tx, ty = (v(t) if callable(v) else v for v in vec)
        def pay(edges, w, na, nb, tx=tx, ty=ty):
            np.add.at(load, dofmap.ux(edges[:, 0]), w * na * tx)
            np.add.at(load, dofmap.uy(edges[:, 0]), w * na * ty)
            np.add.at(load, dofmap.ux(edges[:, 1]), w * nb * tx)
            np.add.at(load, dofmap.uy(edges[:, 1]), w * nb * ty)
        edge_accumulate(tag, pay)

    for tag, j_in in bcs.fluxes:
        bcs._check_tag(mesh, tag)
        j = j_in(t) if callable(j_in) else j_in
        def pay(edges, w, na, nb, j=j):
            np.add.at(load, dofmap.c(edges[:, 0]), w * na * j)
            np.add.at(load, dofmap.c(edges[:, 1]), w * nb * j)
        edge_accumulate(tag, pay)

    return load


def assemble_system(mesh, dofmap, fields_new, fields_old, params, dt, mode,
                    elem_data=None, bcs=None, t=0.0, frozen_sigma_h=None,
                    want_jacobian=True, plasticity=True):
    """One-pass assembly of residual, Jacobian, and constitutive byproducts.

    The stress at every quadrature point comes from the material update
    driven by the increments between ``fields_old`` (converged step start)
    and ``fields_new`` (current iterate). ``elem_data`` is the mesh's
    assembly plan from ``precompute``; without it the plan is rebuilt on
    every call. Returns (residual, jacobian_or_None, new_states,
    sigma_h_nodal).
    """
    if mode not in ("one-way", "two-way"):
        raise ValueError(f"assemble_system: unknown coupling mode {mode!r}")
    ed = elem_data if elem_data is not None else precompute(mesh)
    mat = params if plasticity else params.as_elastic()

    n_elem = mesh.n_elements
    tris = mesh.tris
    n_qp = ed.weights.size
    wq = ed.wq

    # strain increments (constant per element), concentration increments per qp
    d_eps_eng = element_strain(ed, fields_new.u, tris) - element_strain(ed, fields_old.u, tris)
    d_eps = d_eps_eng.copy()
    d_eps[:, 3] *= 0.5                                          # gamma -> tensor shear
    ce_new = fields_new.c[tris]
    ce_old = fields_old.c[tris]
    d_c_qp = np.einsum("qj,ej->eq", ed.shape_qp, ce_new - ce_old)

    d_eps_qp = np.broadcast_to(d_eps[:, None, :], (n_elem, n_qp, 4))
    try:
        if want_jacobian:
            new_states, tangent = update_stress(fields_old.states, d_eps_qp, d_c_qp, mat,
                                                return_tangent=True)
        else:
            new_states = update_stress(fields_old.states, d_eps_qp, d_c_qp, mat)
            tangent = None
    except ConstitutiveError as err:
        where = ""
        if err.flat_index is not None:
            e, q = np.unravel_index(err.flat_index, (n_elem, n_qp))
            where = f" at element {int(e)}, quadrature point {int(q)}"
        raise AssemblyError(f"constitutive update failed{where}: {err}") from err

    # recovered hydrostatic field for the drift term
    if frozen_sigma_h is not None:
        sigma_h_nodal = np.asarray(frozen_sigma_h, dtype=float)
    else:
        sigma_h_nodal = recover_hydrostatic(mesh, element_sigma_h(new_states, ed.weights))
    grad_sh = np.einsum("eid,ei->ed", ed.grads, sigma_h_nodal[tris])   # (n_elem, 2)

    drift_coeff = mat.D * mat.Omega / (mat.R * mat.T)
    b = ed.b_eng

    # mechanics rows: B^T sum_q w sigma_q (tensor comps == eng stress)
    sig_w = np.einsum("eq,eqa->ea", wq, new_states.sigma)
    r_u = np.einsum("eai,ea->ei", b, sig_w)

    # diffusion rows
    k_diff = (mat.D * ed.areas[:, None, None]) * ed.gg
    dc_dt = (ce_new - ce_old) / dt
    r_c = np.einsum("eij,ej->ei", ed.m_e, dc_dt) + np.einsum("eij,ej->ei", k_diff, ce_new)

    if mode == "two-way":
        gn = np.einsum("eid,ed->ei", ed.grads, grad_sh)   # grad N_i . grad sigma_h
        c_qp = np.einsum("qj,ej->eq", ed.shape_qp, ce_new)
        r_c -= drift_coeff * (wq * c_qp).sum(axis=1)[:, None] * gn

    residual = np.bincount(ed.res_dofs, weights=np.concatenate([r_u.ravel(), r_c.ravel()]),
                           minlength=dofmap.n_dofs)
    if bcs is not None:
        residual -= neumann_load_vector(mesh, dofmap, bcs, t)

    jacobian = None
    if want_jacobian:
        c_sum = np.einsum("eq,eqab->eab", wq, tangent)
        k_uu = ed.b_t @ c_sum @ ed.b_eng
        chem = np.einsum("eqab,b->eqa", tangent, _CHEM_VEC) * (mat.Omega / 3.0)
        k_uc = -(ed.b_t @ ((wq[..., None] * chem).transpose(0, 2, 1) @ ed.shape_qp))
        k_cc = ed.m_e / dt + k_diff
        if mode == "two-way":
            k_cc = k_cc - drift_coeff * (gn[:, :, None] * (wq @ ed.shape_qp)[:, None, :])
        vals = np.concatenate([k_uu.ravel(), k_uc.ravel(), k_cc.ravel()])
        data = np.bincount(ed.jac_slot, weights=vals, minlength=ed.jac_indices.size)
        jacobian = sparse_linalg.SparseMatrix(sp.csr_matrix(
            (data, ed.jac_indices, ed.jac_indptr), shape=(dofmap.n_dofs, dofmap.n_dofs)))

    return residual, jacobian, new_states, sigma_h_nodal


def assemble_residual(mesh, dofmap, fields_new, fields_old, params, dt, mode,
                      elem_data=None, bcs=None, t=0.0, frozen_sigma_h=None,
                      plasticity=True):
    """Residual of the coupled system at ``fields_new`` (see assemble_system)."""
    res, _, _, _ = assemble_system(mesh, dofmap, fields_new, fields_old, params, dt,
                                   mode, elem_data=elem_data, bcs=bcs, t=t,
                                   frozen_sigma_h=frozen_sigma_h,
                                   want_jacobian=False, plasticity=plasticity)
    return res


def assemble_jacobian(mesh, dofmap, fields_new, fields_old, params, dt, mode,
                      elem_data=None, frozen_sigma_h=None, plasticity=True):
    """Jacobian blocks K_uu / K_uc / K_cc as one SparseMatrix (K_cu dropped)."""
    _, jac, _, _ = assemble_system(mesh, dofmap, fields_new, fields_old, params, dt,
                                   mode, elem_data=elem_data,
                                   frozen_sigma_h=frozen_sigma_h,
                                   want_jacobian=True, plasticity=plasticity)
    return jac


def apply_boundary_conditions(A, b, mesh, dofmap, bcs, t, include_neumann=True):
    """Constrain an assembled linear system with the scenario boundary data.

    Adds the Neumann edge integrals to the right-hand side (unless the
    caller already accounted for them) and imposes the Dirichlet values via
    column elimination. Returns the constrained (A, b).
    """
    b = np.asarray(b, dtype=float).copy()
    if include_neumann:
        b += neumann_load_vector(mesh, dofmap, bcs, t)
    constraints = bcs.dirichlet_constraints(mesh, dofmap, t)
    return sparse_linalg.apply_dirichlet(A, b, constraints)


def locate_points(mesh, points, tol=1e-10):
    """Containing element and barycentric coordinates for each query point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p0 = mesh.nodes[mesh.tris[:, 0]]
    p1 = mesh.nodes[mesh.tris[:, 1]]
    p2 = mesh.nodes[mesh.tris[:, 2]]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])

    elems = np.empty(points.shape[0], dtype=np.int64)
    barys = np.empty((points.shape[0], 3))
    for k, pt in enumerate(points):
        w0 = ((p1[:, 0] - pt[0]) * (p2[:, 1] - pt[1]) - (p1[:, 1] - pt[1]) * (p2[:, 0] - pt[0])) / det
        w1 = ((p2[:, 0] - pt[0]) * (p0[:, 1] - pt[1]) - (p2[:, 1] - pt[1]) * (p0[:, 0] - pt[0])) / det
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -tol) & (w1 >= -tol) & (w2 >= -tol)
        if not inside.any():
            raise ValueError(f"locate_points: point {pt} lies outside the mesh")
        # pick the containing element with the best-centered barycentrics
        cand = np.flatnonzero(inside)
        best = cand[np.argmax(np.minimum(np.minimum(w0[cand], w1[cand]), w2[cand]))]
        elems[k] = best
        barys[k] = (w0[best], w1[best], w2[best])
    return elems, barys


def interpolate_nodal(mesh, nodal_values, elems, barys):
    """Barycentric interpolation of a nodal field at located points."""
    vals = np.asarray(nodal_values)
    tri = mesh.tris[elems]
    if vals.ndim == 1:
        return np.einsum("pk,pk->p", vals[tri], barys)
    return np.einsum("pkd,pk->pd", vals[tri], barys)
