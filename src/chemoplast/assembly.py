"""Linear-triangle discretization of the coupled weak form.

Builds residual and Jacobian for the monolithic (u_x, u_y, c) system:
mechanical equilibrium with the stress of the material model (J2 return
once per element), backward-Euler diffusion with a consistent mass
matrix, and (in two-way mode) the drift term that advects concentration down
the gradient of the recovered nodal hydrostatic stress.

Jacobian structure: K_uu carries the elastoplastic consistent tangent, K_uc
the swelling coupling, K_cc mass/diffusion plus the drift term with the
recovered gradient frozen at the current iterate; the K_cu sensitivity is
dropped (Picard treatment) so converged solutions are unaffected while the
assembly never needs recovery derivatives.

Assembly is planned once per mesh (``precompute``): the element geometry,
the strain-displacement matrices, the quadrature weights, the consistent
mass and the ``grad N_i . grad N_j`` products, the node pattern (the node
pairs that share an element), the CSR pattern of the Jacobian's mechanics
rows with a slot map that sends every element K_uu and K_uc entry to its
place in their data, and the residual's sparse operators. A node's u_x and
u_y rows hold the three dofs of each of its neighbours, so the mechanics
pattern and its slot map follow from the node pattern by arithmetic. The
operators take nodal fields to element or quadrature-point values (strain,
concentration, the drift factors) and back to the nodes (B^T, the assembled
mass and diffusion matrices, the hydrostatic-stress recovery). A two-way run
also gets, when its first residual pass needs it, the drift operator
(``ElementData.drift_op``): it takes the drift factors of every element
vertex to the drift block's data on the node pattern, with the shape
integrals as its entries.

The Jacobian is carried as its two row blocks (``JacobianRows``): the
mechanics rows [K_uu K_uc] and the concentration rows K_cc, which lie on the
node pattern of the mass and diffusion matrices. Each block is split into a
fixed and a changing part. The fixed part (``fixed_jacobian``, once per run)
is the elastic mechanics rows, formed once with read-only data, and K_diff
and M on the node pattern; at time step dt the base K_cc is ``K_diff + M /
dt``, formed once per dt and read-only as well (``FixedJacobian.at``). K_uc
is elastic at every iterate, because the plastic tangent correction is
deviatoric and annihilates the swelling direction. The changing part is the
two-way drift block, whose data the residual pass has formed, subtracted
from the base K_cc's data, and the K_uu corrections of the plastic elements,
subtracted from a copy of the mechanics rows through their K_uu slots only.
A block with no changing part at an iterate is the base block itself. The
Jacobian carries the base K_cc as well, which is symmetric positive
definite: the block solver factors it in place of a K_cc with drift. The
full node-major matrix is formed only on request
(``JacobianRows.interleaved``).

The material state is held per element (``ElementState``). This rests on
two facts: P1 strains are constant per element, and the J2 yield function
depends on neither pressure nor concentration. So the quadrature points of
an element share their deviatoric stress, their yield test, their return
and their plastic history, and their stresses differ only in the isotropic
swelling part, which the concentration at the point gives. The state is the
element's stress sum S_e = sum_q w_q sigma_q and its plastic strain, back
stress and equivalent plastic strain; ``point_states`` forms the per-point
values from it when they are read.

A step attempt forms the step-start data once (``step_start``: strains and,
for a hardening material, the relative stresses dev(S_e / A_e) - beta_e);
the time stepper passes the strains of the committed iterate's residual pass.
Per iterate, ``assemble_residual`` updates the stress sums by the elastic
response of the element increments, runs the yield test on every element
and the return map on the trial-yielding elements only, subtracts their
plastic stress from the sums, and applies the plan's operators; no element
dofs are gathered and no element matrix is formed. In two-way coupling it
forms the drift block's data once, ``drift_coeff * drift_op @ gn``, and
applies the block to c as the drift term. It keeps the stress sums, the
plastic set, the drift block's data and the c rows without their mass term:
from them ``assemble_jacobian`` builds the Jacobian of the same iterate when
a Newton update needs one, and ``iterate_states`` forms the element state of
the iterate a step commits. ``assemble_system`` does all three in one call.
The committed iterate's pass also gives the next step's pass at zero
increment (``zero_increment``), copied, unless an element trial-yields
there beyond roundoff.

The boundary data is planned once per run as well (``plan_boundary``): the
sorted constrained dofs with the positions of every Dirichlet entry among
them, and the rows and quadrature weights of every traction and flux edge
term. Only the amplitudes depend on time; ``dirichlet_values`` and
``neumann_load_vector`` evaluate them at t. The residual holds the internal
terms; the time stepper subtracts the load.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .constitutive import (ConstitutiveError, MaterialParams, MaterialState, PlasticPoints,
                           advance_history, deviator, elastic_stiffness, elastic_stiffness_eng,
                           radial_return, trace, trial_yields)
from .mesh import corner_coords, signed_areas

_CHEM_VEC = np.array([1.0, 1.0, 1.0, 0.0])
# The degree-2 three-point rule on the unit triangle, exact for the mass
# matrix and the linear concentration factor in the drift term: its points
# (reference coordinates), its weights, and the linear shape functions
# (1 - xi - eta, xi, eta) at its points, one row per point.
QUAD_POINTS = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
QUAD_WEIGHTS = np.full(3, 1 / 6)
QUAD_SHAPE = np.stack([np.array([1.0 - xi - eta, xi, eta]) for xi, eta in QUAD_POINTS])

LOCATE_BLOCK = 2 ** 14      # ``locate_points``: (points, elements) entries per block


class AssemblyError(RuntimeError):
    pass


@dataclass(frozen=True)
class DofMap:
    """Node-major dof layout: node n owns (3n, 3n+1, 3n+2) = (u_x, u_y, c)."""
    n_nodes: int

    @property
    def n_dofs(self):
        return 3 * self.n_nodes

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
class ElementState:
    """Material state of a P1 mesh, one row per element: the stress sum S_e =
    sum_q w_q sigma_q and the history its quadrature points share."""
    stress_sum: np.ndarray   # (n_elem, 4)
    eps_p: np.ndarray        # (n_elem, 4)
    back_stress: np.ndarray  # (n_elem, 4)
    eps_p_eq: np.ndarray     # (n_elem,)

    @classmethod
    def zeros(cls, n_elem):
        return cls(np.zeros((n_elem, 4)), np.zeros((n_elem, 4)), np.zeros((n_elem, 4)),
                   np.zeros(n_elem))

    def copy(self):
        return ElementState(self.stress_sum.copy(), self.eps_p.copy(),
                            self.back_stress.copy(), self.eps_p_eq.copy())


@dataclass
class FieldState:
    """Nodal fields plus the material state, held per element.

    ``states`` is the per-quadrature-point view (batch (n_elem, n_qp)),
    formed when read (``point_states``) with the assembly plan and the
    material the fields were made with; ``transient.step`` attaches them.
    Fields without them (``zeros``) must be stress-free.
    """
    u: np.ndarray              # (N, 2)
    c: np.ndarray              # (N,)
    material: ElementState
    sigma_h_nodal: np.ndarray  # (N,) recovered
    elem_data: ElementData = None
    params: MaterialParams = None

    @classmethod
    def zeros(cls, mesh, c0=0.0):
        n = mesh.n_nodes
        return cls(u=np.zeros((n, 2)), c=np.full(n, float(c0)),
                   material=ElementState.zeros(mesh.n_elements), sigma_h_nodal=np.zeros(n))

    def copy(self):
        return FieldState(self.u.copy(), self.c.copy(), self.material.copy(),
                          self.sigma_h_nodal.copy(), self.elem_data, self.params)

    @property
    def states(self):
        if self.elem_data is not None:
            return point_states(self.elem_data, self.params, self.c, self.material)
        if np.any(self.material.stress_sum):
            raise ValueError("FieldState.states: the per-point stresses of stressed fields "
                             "need the assembly plan and the material")
        n_elem = self.material.eps_p_eq.size
        return _at_points(self.material, np.zeros((n_elem, QUAD_WEIGHTS.size, 4)))


@dataclass
class ElementData:
    """Assembly plan of one mesh, made once per run by ``precompute``.

    Everything here depends on the mesh and the quadrature rule only: the
    geometry, the quadrature weights, the element diffusion kernels, the CSR
    pattern of the Jacobian's mechanics rows with the slot of every element
    K_uu and K_uc entry, the place of every element K_cc entry in the node
    pattern of ``mass`` and ``lap``, and the sparse operators of the
    residual pass. The operators that only some runs read are formed when
    first read: the two-way drift operators (``gn``, ``drift_op``) and the
    quadrature-point values of the per-point view (``qp``). With the
    material, it gives the fixed Jacobian data (``fixed_jacobian``). What
    depends on the iterate (stress sums, yield test and return, the drift
    block and the plastic corrections) is computed by ``assemble_residual``
    and ``assemble_jacobian``, the element states by ``iterate_states``.

    The operators act on node-major fields: ``u.ravel()`` (2N) for the
    displacements, the (N,) nodal values otherwise; element rows are
    element-major, so ``(strain @ u.ravel()).reshape(n_elem, 4)`` is the
    element strains.
    """
    tris: np.ndarray        # (n_elem, 3) the mesh's vertex ids
    areas: np.ndarray       # (n_elem,)
    b_eng: np.ndarray       # (n_elem, 4, 6) engineering strain-displacement
    wq: np.ndarray          # (n_elem, n_qp) physical quadrature weights
    shape_int: np.ndarray   # (n_elem, 3) sum_q w_q N_j(x_q), the integral of each shape function
    gg: np.ndarray          # (n_elem, 3, 3) grad N_i . grad N_j
    mech_indptr: np.ndarray  # CSR pattern of the mechanics rows [K_uu K_uc], (2N, 3N)
    mech_indices: np.ndarray
    mech_slot: np.ndarray   # (54 n_elem,) their CSR data index of each K_uu, K_uc entry
    cc_pair: np.ndarray     # (n_elem, 9) node-pattern data index of each K_cc entry
    strain: sp.csr_matrix   # (4 n_elem, 2N) engineering strain (xx, yy, zz, xy) per element
    strain_t: sp.csc_matrix  # (2N, 4 n_elem) its transpose, over the same arrays: B^T
    mass: sp.csr_matrix     # (N, N) consistent mass
    lap: sp.csr_matrix      # (N, N) sum of area * grad N_i . grad N_j
    c_w: sp.csr_matrix      # (n_elem, N) sum_q w_q f(x_q) per element
    recover: sp.csr_matrix  # (N, n_elem) area-weighted average of the adjacent elements

    @property
    def n_dofs(self):
        return 3 * self.mass.shape[0]

    @property
    def uu_slots(self):
        """(n_elem, 36) mechanics-row data index of each element's K_uu entries."""
        n = self.areas.size
        return self.mech_slot[:36 * n].reshape(n, 36)

    @cached_property
    def qp(self):
        """(n_qp n_elem, N) values at the quadrature points. Formed when
        first read; only the per-point view (``point_states``) reads it."""
        return _element_operator(self.tris[:, None, :], QUAD_SHAPE, self.mass.shape[0])

    @cached_property
    def gn(self):
        """(3 n_elem, N) grad N_i . grad f per element vertex. Formed when
        first read; only two-way residual passes read it."""
        return _element_operator(self.tris[:, None, :], self.gg, self.mass.shape[0])

    @cached_property
    def drift_op(self):
        """(nnz, 3 n_elem) CSR operator from the drift factors ``gn``,
        flattened, to the node-pattern data of the drift block: element
        entry (i, j) is ``gn[e, i] * shape_int[e, j]`` in slot ``cc_pair[e,
        3 i + j]``. A row holds its entries in element order, so a product
        sums every slot in the order ``np.bincount(cc_pair.ravel(), ...)``
        does. Formed when first read; only two-way coupling reads it."""
        n_elem = self.areas.size
        slots = self.cc_pair.ravel()
        order = np.argsort(slots, kind="stable")
        counts = np.bincount(slots, minlength=self.mass.nnz)
        return sp.csr_matrix((np.tile(self.shape_int, 3).ravel()[order],
                              np.repeat(np.arange(3 * n_elem, dtype=np.int32), 3)[order],
                              np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
                             shape=(counts.size, 3 * n_elem))


def _node_pattern(n_nodes, tris):
    """CSR pattern (indptr, indices) of the node pairs that share an element,
    and the index in it of every element's pair (vertex i, vertex j), as
    (n_elem, 3, 3)."""
    keys, pair = np.unique(np.repeat(tris, 3, axis=1) * n_nodes + np.tile(tris, (1, 3)),
                           return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n_nodes, minlength=n_nodes))])
    return indptr, keys % n_nodes, pair.reshape(-1, 3, 3)


def _mechanics_pattern(node_indptr, node_indices, pair):
    """CSR pattern of the mechanics rows [K_uu K_uc] (2N x 3N) from the node
    pattern, and the CSR data index of every element K_uu (6x6) and K_uc
    (6x3) entry, taken in the order ``fixed_jacobian`` concatenates them.

    A node with k neighbours (itself included) gives the rows u_x and u_y,
    each holding the three dofs of every neighbour: 3k entries. So the rows
    before node i hold 6 * node_indptr[i] entries, and each entry's position
    is arithmetic in the position of its node pair. This is the pattern and
    slot map of a stable sort of the triplets by (row, col):
    ``np.bincount(slot, vals)`` adds the entries sharing a slot in the
    summation order of that sort followed by duplicate summation. The
    concentration rows need no pattern of their own: the c dof of every
    neighbour is the node pattern, and ``pair`` its slot map.
    """
    deg = np.diff(node_indptr)
    row = np.repeat(np.arange(deg.size), deg)               # node row of every pair
    offset = np.arange(row.size) - node_indptr[row]         # its place in that row
    step = 3 * deg[row]
    u_slot = 6 * node_indptr[row] + 3 * offset      # the pair's u_x column in the u_x row

    indices = np.empty(6 * row.size, dtype=np.int32)        # scipy's CSR index type
    for comp in range(3):
        indices[u_slot + comp] = indices[u_slot + step + comp] = 3 * node_indices + comp
    indptr = np.concatenate([[0], np.cumsum(np.repeat(3 * deg, 2))])

    # element entry (2a + ra, 2b + cb) of K_uu sits at u_slot + ra * step + cb
    # of the pair (a, b), the K_uc entry (2a + ra, b) at cb = 2: each pair's
    # six slots (ra, cb), gathered by element as (e, a, ra, b, cb)
    n_elem = pair.shape[0]
    six = (u_slot[:, None, None] + np.arange(2)[:, None] * step[:, None, None]
           + np.arange(3)).astype(np.int32)
    slot = six[pair].transpose(0, 1, 3, 2, 4)
    return (indptr.astype(np.int32), indices,
            np.concatenate([slot[..., :2].reshape(n_elem, -1).ravel(),
                            slot[..., 2].reshape(n_elem, -1).ravel()]))


def _element_operator(cols, vals, n_cols, keep=None):
    """CSR matrix holding the rows of every element in turn: ``cols`` and
    ``vals`` broadcast to (n_elem, rows, entries), of which ``keep`` (rows,
    entries; all by default) picks the stored ones. Each row keeps its
    entries in the order given, so a matvec sums them in that order."""
    cols, vals = np.broadcast_arrays(cols, vals)
    keep = np.ones(cols.shape[1:], dtype=bool) if keep is None else keep
    lengths = np.tile(keep.sum(axis=1), cols.shape[0])
    return sp.csr_matrix((vals[:, keep].ravel(), cols[:, keep].ravel(),
                          np.concatenate([[0], np.cumsum(lengths)])), shape=(lengths.size, n_cols))


def precompute(mesh):
    """Assembly plan of ``mesh`` under the three-point rule ``QUAD_POINTS``."""
    tris = mesh.tris
    (x0, x1, x2), (y0, y1, y2) = corner_coords(mesh.nodes, tris)
    areas = signed_areas(mesh.nodes, tris)
    det = 2.0 * areas
    if np.any(areas <= 0):
        raise AssemblyError("precompute: mesh contains non-positively oriented elements")
    n_elem, n_nodes = tris.shape[0], mesh.n_nodes

    grads = np.empty((n_elem, 3, 2))
    grads[:, 0, 0] = (y1 - y2) / det
    grads[:, 1, 0] = (y2 - y0) / det
    grads[:, 2, 0] = (y0 - y1) / det
    grads[:, 0, 1] = (x2 - x1) / det
    grads[:, 1, 1] = (x0 - x2) / det
    grads[:, 2, 1] = (x1 - x0) / det

    b = np.zeros((n_elem, 4, 6))
    for i in range(3):
        b[:, 0, 2 * i] = grads[:, i, 0]       # eps_xx
        b[:, 1, 2 * i + 1] = grads[:, i, 1]   # eps_yy
        b[:, 3, 2 * i] = grads[:, i, 1]       # gamma_xy
        b[:, 3, 2 * i + 1] = grads[:, i, 0]

    wq = 2.0 * areas[:, None] * QUAD_WEIGHTS[None, :]
    m_e = np.einsum("eq,qi,qj->eij", wq, QUAD_SHAPE, QUAD_SHAPE)
    gg = np.einsum("eid,ejd->eij", grads, grads)

    node_indptr, node_indices, pair = _node_pattern(n_nodes, tris)
    indptr, indices, slot = _mechanics_pattern(node_indptr, node_indices, pair)

    def node_matrix(elem_vals):
        data = np.bincount(pair.ravel(), weights=elem_vals.ravel(), minlength=node_indices.size)
        return sp.csr_matrix((data, node_indices, node_indptr), shape=(n_nodes, n_nodes))

    # B's column 2i + d is the displacement 2 * tris[:, i] + d; its nonzero entries
    in_b = np.zeros((4, 6), dtype=bool)
    in_b[0, 0::2] = in_b[1, 1::2] = in_b[3] = True
    strain = _element_operator((2 * tris.repeat(2, axis=1) + np.tile(np.arange(2), 3))[:, None],
                               b, 2 * n_nodes, in_b)
    # one row per element, holding the integrals of its shape functions
    c_w = _element_operator(tris[:, None, :], (wq @ QUAD_SHAPE)[:, None], n_nodes)

    return ElementData(
        tris=tris, areas=areas, b_eng=b,
        wq=wq, shape_int=c_w.data.reshape(n_elem, 3), gg=gg,
        mech_indptr=indptr, mech_indices=indices, mech_slot=slot,
        cc_pair=pair.reshape(n_elem, 9).astype(np.int32),
        strain=strain, strain_t=strain.T,
        mass=node_matrix(m_e), lap=node_matrix(areas[:, None, None] * gg),
        c_w=c_w,
        recover=_recovery(tris, areas, n_nodes))


def element_strain(elem_data, u):
    """Engineering strain 4-vector per element (constant for linear triangles)."""
    return (elem_data.strain @ np.ravel(u)).reshape(-1, 4)


def _recovery(tris, areas, n_nodes):
    """(N, n_elem) lumped L2 projection: row n weights each element adjacent
    to node n by its area over the total area of those elements."""
    nodes = tris.ravel()
    total = np.bincount(nodes, weights=np.repeat(areas, 3), minlength=n_nodes)
    return sp.csr_matrix((np.repeat(areas, 3) / total[nodes],
                          (nodes, np.repeat(np.arange(tris.shape[0]), 3))),
                         shape=(n_nodes, tris.shape[0]))


def recover_hydrostatic(mesh, elem_sigma_h, areas):
    """Lumped L2 projection of elementwise values onto the nodes.

    Nodal value = area-weighted average of the adjacent element values,
    weighted by ``areas`` (``ElementData.areas``); exact for a globally
    linear field on structured patches. This is ``ElementData.recover``
    applied to ``elem_sigma_h``.
    """
    elem_sigma_h = np.asarray(elem_sigma_h, dtype=float)
    if elem_sigma_h.shape != (mesh.n_elements,):
        raise ValueError("recover_hydrostatic: need one value per element")
    return _recovery(mesh.tris, areas, mesh.n_nodes) @ elem_sigma_h


@dataclass
class BoundaryConditions:
    """Scenario boundary data, resolved against the mesh by ``plan_boundary``.

    dirichlet_u : list of (tag, component, value)  -- value float or callable(t)
    pins        : list of (node_id, component, value) point constraints
    dirichlet_c : list of (tag, value)
    tractions   : list of (tag, (tx, ty))          -- components float or callable(t)
    fluxes      : list of (tag, j_in)              -- positive = into the domain
    """
    dirichlet_u: list = field(default_factory=list)
    pins: list = field(default_factory=list)
    dirichlet_c: list = field(default_factory=list)
    tractions: list = field(default_factory=list)
    fluxes: list = field(default_factory=list)


@dataclass(frozen=True)
class BoundaryPlan:
    """Boundary data of one run resolved against the mesh by ``plan_boundary``.

    Fixed for the run; only the amplitudes (float or callable(t)) move.
    """
    n_dofs: int
    fixed_dofs: np.ndarray       # sorted unique constrained dofs
    dirichlet: tuple             # (positions in fixed_dofs, value) per entry, in order
    neumann_rows: np.ndarray     # load row of every edge quadrature term
    neumann_weights: np.ndarray  # its weight w * N
    neumann_amp: np.ndarray      # its index into ``amplitudes``
    amplitudes: tuple            # traction components and fluxes


_EDGE_GAUSS = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))


def plan_boundary(mesh, bcs):
    """Resolve ``bcs`` against ``mesh`` once: every tag is checked, the
    Dirichlet entries become positions in the sorted constrained dofs (a
    later entry wins where two overlap), and the traction and flux edge
    integrals (2-point Gauss) become one row, weight and amplitude index per
    term, in the order the load vector sums them."""
    for tag in [e[0] for e in bcs.dirichlet_u + bcs.dirichlet_c + bcs.tractions + bcs.fluxes]:
        if tag not in mesh.tags():
            raise AssemblyError(f"boundary condition references tag {tag!r}, "
                                f"mesh has {mesh.tags()}")
    entries = ([(3 * mesh.nodes_with_tag(tag) + comp, v) for tag, comp, v in bcs.dirichlet_u]
               + [(np.array([3 * int(node) + comp]), v) for node, comp, v in bcs.pins]
               + [(3 * mesh.nodes_with_tag(tag) + 2, v) for tag, v in bcs.dirichlet_c])
    fixed = np.unique(np.concatenate([d for d, _ in entries] + [np.zeros(0, np.int64)]))

    amplitudes, loads = [], []
    for tag, vec in bcs.tractions:
        loads.append((tag, ((0, len(amplitudes)), (1, len(amplitudes) + 1))))
        amplitudes += list(vec)
    for tag, j_in in bcs.fluxes:
        loads.append((tag, ((2, len(amplitudes)),)))
        amplitudes.append(j_in)
    terms = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64))]
    for tag, comps in loads:
        edges = mesh.edges_with_tag(tag)
        w = 0.5 * np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
        for s in _EDGE_GAUSS:
            for end, shape in ((0, 1.0 - s), (1, s)):
                for offset, k in comps:
                    terms.append((3 * edges[:, end] + offset, w * shape, np.full(len(edges), k)))
    rows, weights, amp = (np.concatenate(x) for x in zip(*terms))
    return BoundaryPlan(
        n_dofs=3 * mesh.n_nodes, fixed_dofs=fixed,
        dirichlet=tuple((np.searchsorted(fixed, d), v) for d, v in entries),
        neumann_rows=rows, neumann_weights=weights, neumann_amp=amp,
        amplitudes=tuple(amplitudes))


def dirichlet_values(plan, t):
    """Prescribed values of ``plan.fixed_dofs`` at time t."""
    vals = np.empty(plan.fixed_dofs.size)
    for pos, value in plan.dirichlet:
        vals[pos] = value(t) if callable(value) else value
    return vals


def neumann_load_vector(plan, t):
    """Boundary-edge integrals of traction and inbound flux at time t.

    Returns the (3N,) load vector entering the residual with a minus sign.
    """
    amps = np.array([a(t) if callable(a) else a for a in plan.amplitudes], dtype=float)
    return np.bincount(plan.neumann_rows, weights=plan.neumann_weights * amps[plan.neumann_amp],
                       minlength=plan.n_dofs)


def _with_data(matrix, data):
    """A CSR matrix over the pattern of ``matrix`` (shared, not copied)
    holding ``data``."""
    return sp.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)


def _magnitude(matrix):
    """Entrywise |matrix| over its pattern."""
    return _with_data(matrix, np.abs(matrix.data))


class JacobianRows(NamedTuple):
    """The Jacobian of the node-major dofs as its two row blocks, with K_cc's
    base.

    ``mech`` holds the mechanics rows [K_uu K_uc] (2N x 3N): the u_x and u_y
    rows of every node in turn, over the node-major columns. ``cc`` holds
    the concentration rows K_cc (N x N) over the nodes' c dofs, on the node
    pattern. The concentration rows have no displacement column, because the
    K_cu sensitivity is dropped, so the Jacobian is block upper-triangular.
    A row of either block holds the entries of the interleaved matrix's row
    in the same order, so ``mech @ w`` and ``cc @ w[2::3]`` sum them as the
    interleaved matrix's product with w does. ``cc_base`` holds K_cc's
    drift-free base at the time step dt, K_diff + M / dt: ``cc`` itself
    where there is no drift.
    """
    mech: sp.csr_matrix
    cc: sp.csr_matrix
    cc_base: sp.csr_matrix

    def interleaved(self):
        """The node-major (3N x 3N) CSR matrix of the two blocks, with
        sorted column indices in every row."""
        n = self.cc.shape[0]
        c_rows = sp.csr_matrix((self.cc.data, 3 * self.cc.indices + 2, self.cc.indptr),
                               shape=(n, 3 * n))
        order = np.empty((n, 3), dtype=np.int64)
        order[:, :2] = np.arange(2 * n).reshape(n, 2)
        order[:, 2] = 2 * n + np.arange(n)
        return sp.vstack([self.mech, c_rows], format="csr")[order.ravel()]


class FixedJacobian:
    """The Jacobian data that no iterate changes, for one mesh and material
    (``fixed_jacobian``), and the base Jacobian it gives at the current time
    step.

    ``mech`` holds the elastic mechanics rows, with read-only data. K_uc is
    elastic at every iterate: the plastic tangent correction is deviatoric,
    so it annihilates the swelling direction. ``k_diff`` and ``mass`` hold
    K_diff and the consistent mass M, CSR matrices on the node pattern. The
    base Jacobian at time step dt is ``mech`` and ``k_diff + mass / dt``
    (``at``), to which ``assemble_jacobian`` adds the changing part.
    """

    def __init__(self, mech, k_diff, mass):
        self.mech = mech
        self.k_diff = k_diff
        self.mass = mass
        self._dt = None
        self._base = self._abs_cc = None

    def at(self, dt):
        """The base Jacobian at time step ``dt``: ``JacobianRows`` whose
        blocks have read-only data. Its K_cc is formed when dt changes and
        kept until then, so every call at one dt returns the same object."""
        if dt != self._dt:
            self._base = self._abs_cc = None     # free the old base first
            data = self.k_diff.data + self.mass.data / dt
            data.flags.writeable = False
            cc = _with_data(self.k_diff, data)
            self._base = JacobianRows(self.mech, cc, cc)
            self._dt = dt
        return self._base

    def magnitude(self, block):
        """Entrywise |block| of one row block of a ``JacobianRows``, over the
        block's pattern; that of the base K_cc is formed once per dt."""
        if self._base is not None and block is self._base.cc:
            if self._abs_cc is None:
                self._abs_cc = _magnitude(block)
            return self._abs_cc
        return _magnitude(block)


def fixed_jacobian(elem_data, params):
    """Fixed Jacobian data of the mesh's assembly plan under ``params``."""
    ed = elem_data
    C = elastic_stiffness_eng(params)
    b_t = ed.b_eng.transpose(0, 2, 1)
    k_uu = b_t @ (ed.wq.sum(axis=1)[:, None, None] * C) @ ed.b_eng
    chem = (C @ _CHEM_VEC) * (params.Omega / 3.0)
    k_uc = -(b_t @ ((ed.wq[..., None] * chem).transpose(0, 2, 1) @ QUAD_SHAPE))
    k_diff = (params.D * ed.areas[:, None, None]) * ed.gg
    nnz, n = ed.mech_indices.size, ed.areas.size
    # the two blocks fill disjoint slots, so summing them block by block
    # adds the entries of every slot in the order one bincount would, without
    # a concatenated copy of them (peak memory)
    stiff = np.zeros(nnz)
    for k, slots in zip((k_uu, k_uc), np.split(ed.mech_slot, [36 * n])):
        stiff += np.bincount(slots, weights=k.ravel(), minlength=nnz)
    stiff.flags.writeable = False
    n_nodes = ed.mass.shape[0]
    mech = sp.csr_matrix((stiff, ed.mech_indices, ed.mech_indptr),
                         shape=(2 * n_nodes, 3 * n_nodes))
    # every node pair lies in some element, so the scatter fills the node pattern
    diff = np.bincount(ed.cc_pair.ravel(), weights=k_diff.ravel(), minlength=ed.mass.nnz)
    return FixedJacobian(mech, _with_data(ed.mass, diff), ed.mass)


def _swelling_modulus(params):
    """K_b Omega: the drop of the normal stresses per unit concentration
    (K_b = lam + 2 mu / 3)."""
    return (params.lam + 2.0 * params.mu / 3.0) * params.Omega


def _at_points(material, sigma):
    """Per-point ``MaterialState`` with stresses ``sigma`` (n_elem, n_qp, 4)
    and the element history broadcast over each element's points."""
    n_qp = sigma.shape[1]
    return MaterialState(sigma, *(np.repeat(a[:, None], n_qp, axis=1) for a in
                                  (material.eps_p, material.back_stress, material.eps_p_eq)))


def point_states(elem_data, params, c, material):
    """Per-quadrature-point ``MaterialState`` (n_elem, n_qp) of the element
    state ``material`` at the nodal concentration ``c``: sigma_q = S_e / A_e -
    K_b Omega (c_q - c_mean_e) I, and the element history at every point.

    This holds for states that start stress-free at a uniform concentration:
    the points of an element then differ only in the swelling of c_q, with
    c_mean_e = (c_w @ c)_e / A_e.
    """
    ed = elem_data
    c_qp = (ed.qp @ c).reshape(ed.wq.shape)
    offsets = _swelling_modulus(params) * (c_qp - ((ed.c_w @ c) / ed.areas)[:, None])
    return _at_points(material, (material.stress_sum / ed.areas[:, None])[:, None, :]
                      - offsets[..., None] * _CHEM_VEC)


@dataclass
class StepStart:
    """What every iterate of a step takes from the step start
    (``step_start``), fixed for the step attempt."""
    fields: FieldState
    strain: np.ndarray      # (n_elem, 4) engineering strain
    xi: np.ndarray          # (n_elem, 4) dev(S_e / A_e) - beta_e; None for an elastic material


def step_start(elem_data, fields, params, strain=None):
    """The step-start data of ``fields``: its element strains and, for a
    hardening material, its relative stresses. A caller that has the
    element strain of ``fields.u`` exactly (the time stepper: the committed
    iterate's ``Iterate.strain``) passes it as ``strain``."""
    m = fields.material
    xi = (None if params.hardening_kind == "none"
          else deviator(m.stress_sum / elem_data.areas[:, None]) - m.back_stress)
    return StepStart(fields, element_strain(elem_data, fields.u) if strain is None else strain,
                     xi)


@dataclass
class Iterate:
    """The residual pass at one iterate (``assemble_residual``), with what
    the Jacobian (``assemble_jacobian``) and the element state
    (``iterate_states``) of the same iterate need from it. When the iterate
    is committed, it is read only: its element strain is the next step's
    start strain, and its pass gives the next step's first pass where that
    step starts from it unchanged (``zero_increment``)."""
    residual: np.ndarray        # internal terms only
    sigma_h_nodal: np.ndarray
    stress_sum: np.ndarray      # (n_elem, 4) sum_q w_q sigma_q
    plastic: PlasticPoints      # trial-yielding elements
    drift: np.ndarray           # (nnz,) the drift block's data on the node pattern; None in one-way
    c_rows: np.ndarray          # (N,) the c rows of the residual without their mass term
    strain: np.ndarray          # (n_elem, 4) engineering strain of the iterate's u


def assemble_residual(elem_data, u, c, start, params, dt, mode, frozen_sigma_h=None):
    """Residual of the iterate (u, c) of the step that starts at ``start``.

    The strain is constant per element and the swelling strain volumetric,
    so each element's stress sum S_e is its step-start sum plus ``A_e C :
    d_eps_e - K_b Omega (c_w @ d_c)_e I``, less ``2 mu A_e d_lam n`` if the
    element yields. The yield test runs once per element: the trial
    relative stress is the step start's plus ``2 mu dev(d_eps_e)`` (the
    concentration drops out), and the return runs on the trial-yielding
    elements only. The mechanics rows are ``strain_t`` applied to the
    stress sums, the element hydrostatic stress is ``tr(S_e) / (3 A_e)``,
    recovered to the nodes by ``recover``, and the diffusion rows are
    ``mass @ (c - c_n) / dt`` plus the c rows without their mass term,
    ``D lap @ c`` less (two-way) the drift term. The drift term is the drift
    block applied to c: its node-pattern data is ``drift_coeff * drift_op @
    gn``, of the drift factors ``gn`` (``grad N_i . grad sigma_h`` per
    element vertex), and the Jacobian subtracts the same data from K_cc.
    ``frozen_sigma_h`` replaces the recovered hydrostatic field of the drift
    term.
    """
    ed = elem_data
    mu = params.mu
    material = start.fields.material
    strain = element_strain(ed, u)
    d_eps = strain - start.strain
    d_eps[:, 3] *= 0.5                                          # gamma -> tensor shear
    d_c = c - start.fields.c
    # column by column: numpy's (n_elem, 1) x (n_elem, 4) broadcasts cost
    # several times as much as these column updates
    stress = d_eps @ elastic_stiffness(params)
    for k in range(4):
        stress[:, k] *= ed.areas
    stress += material.stress_sum
    swelling = _swelling_modulus(params) * (ed.c_w @ d_c)
    for k in range(3):          # the swelling strain is volumetric
        stress[:, k] -= swelling
    if not np.isfinite(stress).all():
        bad = int(np.flatnonzero(~np.isfinite(stress).all(axis=1))[0])
        raise AssemblyError(f"constitutive update failed at element {bad}: "
                            "trial stress is not finite")

    plastic = PlasticPoints.none()
    if start.xi is not None:
        try:
            plastic = radial_return(start.xi + 2.0 * mu * deviator(d_eps), material.eps_p_eq,
                                    params)
        except ConstitutiveError as err:
            raise AssemblyError(f"constitutive update failed at element {err.flat_index}: "
                                f"{err}") from err
        pe = plastic.index
        a_lam = ed.areas[pe] * plastic.d_lam
        stress[pe] -= (2.0 * mu * a_lam)[:, None] * plastic.n_dir

    if frozen_sigma_h is not None:
        sigma_h_nodal = np.asarray(frozen_sigma_h, dtype=float)
    else:
        sigma_h_nodal = ed.recover @ (trace(stress) / (3.0 * ed.areas))

    residual = np.empty((ed.mass.shape[0], 3))
    # mechanics rows: B^T S_e (tensor comps == eng stress)
    residual[:, :2] = (ed.strain_t @ stress.ravel()).reshape(-1, 2)
    # diffusion rows
    c_rows = params.D * (ed.lap @ c)
    drift = None
    if mode == "two-way":
        drift = ed.drift_op @ (ed.gn @ sigma_h_nodal)
        drift *= params.drift_coeff
        c_rows -= _with_data(ed.mass, drift) @ c
    residual[:, 2] = ed.mass @ (d_c / dt) + c_rows
    return Iterate(residual.ravel(), sigma_h_nodal, stress, plastic, drift, c_rows, strain)


def zero_increment(committed, start, params):
    """The residual pass at the zero increment of the step that starts at
    ``start`` from the committed iterate whose pass is ``committed``, taken
    from that pass; None where an element trial-yields at zero increment
    (``trial_yields``), so that only a full pass (``assemble_residual``)
    gives its plastic set.

    At zero increment ``d_eps`` and ``d_c`` are exactly zero, so the stress
    sums are the committed ones bit for bit, and with them the mechanics
    rows, the recovered hydrostatic stress, the drift block and the c rows
    without their mass term. The mass term ``mass @ (0 / dt)`` is a zero
    vector, so the c rows are those. So this is ``assemble_residual`` at the
    committed (u, c), with an empty plastic set, without its passes over the
    elements.
    """
    if start.xi is not None and trial_yields(start.xi, start.fields.material.eps_p_eq, params):
        return None
    residual = committed.residual.copy()
    residual[2::3] = committed.c_rows
    return Iterate(residual, committed.sigma_h_nodal, committed.stress_sum, PlasticPoints.none(),
                   committed.drift, committed.c_rows, committed.strain)


def iterate_states(start, iterate, params):
    """Element state of ``iterate``: its stress sums, and the step-start
    history advanced at its plastic elements by their returns. The yield
    test is not run again, so the state, the residual and the Jacobian of
    the iterate share one plastic set."""
    old = start.fields.material
    return ElementState(iterate.stress_sum, *advance_history(
        old.eps_p, old.back_stress, old.eps_p_eq, iterate.plastic, params))


def assemble_jacobian(elem_data, fixed, iterate, dt):
    """Jacobian at ``iterate`` as ``JacobianRows``: the base Jacobian at dt
    (``fixed.at(dt)``), less the two-way drift block in K_cc (the
    iterate's ``drift`` data) and the tangent corrections of the plastic
    elements, ``A_e B^T C_corr B``, in their K_uu slots of the mechanics
    rows. A block with no such term is the base block itself, whose data is
    read-only (the mechanics rows without plastic elements, K_cc in one-way
    coupling); a block with one is a new CSR matrix over the base block's
    pattern, with new data. So the iterate with neither (one-way coupling,
    no plastic element) gets the base blocks themselves. The base K_cc is
    carried as ``cc_base`` in either case."""
    ed = elem_data
    mech, cc, base = fixed.at(dt)
    plastic = iterate.plastic
    if iterate.drift is not None:
        # frozen drift: the K_cu sensitivity is dropped (Picard)
        cc = _with_data(cc, cc.data - iterate.drift)
    if plastic.index.size:
        pe = plastic.index
        b_pe = ed.b_eng[pe]
        k_corr = b_pe.transpose(0, 2, 1) @ (ed.areas[pe, None, None] * plastic.correction()) @ b_pe
        data = mech.data.copy()
        np.subtract.at(data, ed.uu_slots[pe], k_corr.reshape(pe.size, 36))
        mech = _with_data(mech, data)
    return JacobianRows(mech, cc, base)


def assemble_system(mesh, dofmap, fields_new, fields_old, params, dt, mode,
                    elem_data=None, frozen_sigma_h=None, want_jacobian=True):
    """Residual, Jacobian and constitutive byproducts of one iterate.

    ``assemble_residual``, ``iterate_states`` and, with ``want_jacobian``,
    ``assemble_jacobian`` over ``fixed_jacobian`` data made for this call,
    as the node-major CSR matrix of its two row blocks: the time stepper
    makes the fixed data once per run and the step-start data
    (``step_start``) once per step, and keeps the Jacobian as its blocks.
    ``elem_data`` is the mesh's assembly plan from ``precompute``; without
    it the plan is rebuilt on every call. ``dofmap`` is the mesh's dof
    layout. The residual holds the internal terms only; the boundary load
    (``neumann_load_vector``) is the caller's to subtract. Returns
    (residual, jacobian_or_None, new per-point states, sigma_h_nodal).
    """
    if mode not in ("one-way", "two-way"):
        raise ValueError(f"assemble_system: unknown coupling mode {mode!r}")
    ed = elem_data if elem_data is not None else precompute(mesh)
    if dofmap.n_dofs != ed.n_dofs:
        raise ValueError("assemble_system: dof map and assembly plan disagree")
    start = step_start(ed, fields_old, params)
    it = assemble_residual(ed, fields_new.u, fields_new.c, start, params, dt, mode,
                           frozen_sigma_h=frozen_sigma_h)
    jacobian = (assemble_jacobian(ed, fixed_jacobian(ed, params), it, dt).interleaved()
                if want_jacobian else None)
    states = point_states(ed, params, fields_new.c, iterate_states(start, it, params))
    return it.residual, jacobian, states, it.sigma_h_nodal


def locate_points(mesh, points):
    """Containing element and barycentric coordinates for each query point;
    barycentrics down to -1e-10 count as inside, so edges and vertices are
    found. Of several containing elements the one with the largest smallest
    barycentric wins, the first of equals in element order. Raises
    ValueError naming the first point that no element contains.

    All points are tested against all elements at once, in blocks of points
    that keep each (points, elements) array near ``LOCATE_BLOCK`` entries.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tol = 1e-10
    (x0, x1, x2), (y0, y1, y2) = corner_coords(mesh.nodes, mesh.tris)
    det = 2.0 * signed_areas(mesh.nodes, mesh.tris)

    elems = np.empty(points.shape[0], dtype=np.int64)
    barys = np.empty((points.shape[0], 3))
    block = max(1, LOCATE_BLOCK // mesh.n_elements)
    for lo in range(0, points.shape[0], block):
        px, py = (points[lo:lo + block, d, None] for d in range(2))
        w0 = ((x1 - px) * (y2 - py) - (y1 - py) * (x2 - px)) / det
        w1 = ((x2 - px) * (y0 - py) - (y2 - py) * (x0 - px)) / det
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -tol) & (w1 >= -tol) & (w2 >= -tol)
        found = inside.any(axis=1)
        if not found.all():
            raise ValueError(f"locate_points: point {points[lo + np.argmin(found)]} "
                             "lies outside the mesh")
        # pick the containing element with the best-centered barycentrics
        best = np.argmax(np.where(inside, np.minimum(np.minimum(w0, w1), w2), -np.inf), axis=1)
        rows = np.arange(best.size)
        elems[lo:lo + block] = best
        barys[lo:lo + block] = np.column_stack([w[rows, best] for w in (w0, w1, w2)])
    return elems, barys


def interpolation_operator(mesh, elems, barys):
    """(n_points, N) CSR matrix of the barycentric interpolation at located
    points (``locate_points``): row p holds the weights of the vertices of
    element ``elems[p]`` in vertex order, so a product sums them in that
    order."""
    return _element_operator(mesh.tris[elems][:, None], np.asarray(barys)[:, None],
                             mesh.n_nodes)
