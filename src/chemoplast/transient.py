"""Backward-Euler time stepping for the coupled system.

Each step is one Newton solve of the coupled (u, c) system. The J2 return
map sits inside the residual: every iterate updates the material from the
states at the start of the step, so the quadrature-point states of the
converged iterate satisfy the discrete consistency condition and are
committed as they are.

``run`` resolves the boundary data once (``assembly.plan_boundary``). A step
writes the Dirichlet values into its initial iterate and computes the
traction and flux load once; every Newton residual subtracts it.

Newton updates come from one ``sparse_linalg.BlockSolver`` per run, which
solves the block upper-triangular Jacobian block by block and keeps the
factors of the blocks this module knows to be fixed: K_uu while no
quadrature point is plastic, K_cc in one-way coupling. Each step records
which of the four Newton exits it took (NEWTON_EXITS).

Step failures (Newton divergence, iteration cap, constitutive errors)
trigger time-step halving, at most four times per step, before the run
aborts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sparse_linalg
from .assembly import (AssemblyError, DofMap, FieldState, assemble_system, dirichlet_values,
                       interpolate_nodal, locate_points, neumann_load_vector,
                       plan_boundary, precompute)
from .constitutive import hydrostatic, von_mises


# Newton exits: both block residuals within tolerance; within tolerance or
# at the block's roundoff floor; the increment at the float64 floor of the
# solution; no progress for several corrections with the mechanics residual
# far below the run's force scale (yield-surface branch jitter).
NEWTON_EXITS = ("converged", "roundoff-floor", "stagnated", "stalled")


class StepFailure(RuntimeError):
    """A single time step could not be completed."""


class RunAborted(RuntimeError):
    """Time stepping failed even after exhausting the dt halvings."""


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    mode: str = "two-way"              # "one-way" | "two-way"
    plasticity: bool = True
    newton_abs_tol: float = 1e-10
    newton_rel_tol: float = 1e-8
    newton_max_iter: int = 40
    max_halvings: int = 4

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("SolverConfig: dt and t_end must be positive")
        for name in ("newton_abs_tol", "newton_rel_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"SolverConfig: {name} must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("SolverConfig: newton_max_iter must be >= 1")
        if self.mode not in ("one-way", "two-way"):
            raise ValueError(f"SolverConfig: unknown mode {self.mode!r}")


@dataclass
class StepInfo:
    newton_iters: int
    residual_norm: float
    newton_exit: str           # one of NEWTON_EXITS


@dataclass
class TimeHistory:
    """Per-step probe samples and global diagnostics of one run."""
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)    # dicts of step diagnostics
    samples: list = field(default_factory=list)    # dicts probe -> sampled values
    events: list = field(default_factory=list)     # dt refinements etc.

    def append(self, t, record, sample):
        if self.times and t <= self.times[-1]:
            raise ValueError("TimeHistory: times must be strictly increasing")
        self.times.append(t)
        self.records.append(record)
        self.samples.append(sample)

    def probe_series(self, name, key):
        return np.array([s[name][key] for s in self.samples])


def _newton_solve(w, fields_n, t_new, dt, scenario, config, ed, plan, block_solver,
                  refs=None):
    """Solve the coupled residual to tolerance from initial iterate ``w``.

    Convergence, backtracking, and floors are judged per physics block
    (mechanics rows vs concentration rows): the blocks carry different
    units, and the stiff block reaches its float64 noise floor long before
    the other is done, so a single mixed norm can neither detect
    convergence nor tell a necessary excursion from divergence. A block
    that sits at its own roundoff floor is free to move; a loaded block is
    damped by backtracking until its residual decreases.

    ``refs`` carries the largest starting block residuals seen so far in
    the run; the relative tolerance is measured against that force scale,
    so quiescent hold phases are not asked to out-resolve the yield-surface
    jitter of points flipping between the elastic and plastic branch.

    ``block_solver`` (a ``sparse_linalg.BlockSolver``) computes the updates
    and keeps its factors across calls. ``plan`` is the run's
    ``assembly.BoundaryPlan``; the boundary load at ``t_new`` is computed
    once and subtracted from every assembled residual.

    Returns (w, new_states, sigma_h_nodal, iters, norm, reason) with ``reason``
    one of NEWTON_EXITS. The Dirichlet dofs of ``w`` must already carry
    their prescribed values.
    """
    mesh, params = scenario.mesh, scenario.params
    dm = DofMap(mesh.n_nodes)
    fixed_dofs = plan.fixed_dofs
    load = neumann_load_vector(plan, t_new)
    refs = refs if refs is not None else {"u": 0.0, "c": 0.0}
    keep_cc = config.mode == "one-way"     # K_cc = M/dt + K_diff: fixed at this dt

    def block_norms(vec):
        v = vec.copy()
        if fixed_dofs.size:
            v[fixed_dofs] = 0.0
        m = v.reshape(-1, 3)
        return (float(np.linalg.norm(m[:, :2])), float(np.linalg.norm(m[:, 2])))

    def block_floors(jac, w_vec):
        # FP-error bound of evaluating each block's residual at w: below
        # this level the dimensional norm carries no information
        jw = np.abs(jac.scipy_csr()) @ np.abs(w_vec)
        fu, fc = block_norms(jw)
        eps20 = 20.0 * np.finfo(float).eps
        return eps20 * fu, eps20 * fc

    def assemble_at(w_vec):
        u, c = dm.split(w_vec)
        fields_it = FieldState(u=u, c=c, states=fields_n.states,
                               sigma_h_nodal=fields_n.sigma_h_nodal)
        res_int, *rest = assemble_system(mesh, dm, fields_it, fields_n, params, dt, config.mode,
                                         elem_data=ed, plasticity=config.plasticity)
        return (res_int - load, *rest)

    try:
        res, jac, new_states, sigma_h = assemble_at(w)
    except AssemblyError as err:
        raise StepFailure(f"assembly failed at t={t_new:g}: {err}") from err

    tol_u = tol_c = None
    norms = []
    grow = 0
    n_solves = 0
    stagnated = False
    while True:
        nu, nc = block_norms(res)
        norm = float(np.hypot(nu, nc))
        if tol_u is None:
            refs["u"] = max(refs["u"], nu)
            refs["c"] = max(refs["c"], nc)
            # an absolute tolerance looser than a block's initial residual
            # cannot judge scales it has never seen (a weak boundary flux
            # must still be solved for), so cap it at half the start value
            tol_u = max(config.newton_rel_tol * refs["u"],
                        min(config.newton_abs_tol, 0.5 * nu))
            tol_c = max(config.newton_rel_tol * refs["c"],
                        min(config.newton_abs_tol, 0.5 * nc))
        floor_u, floor_c = block_floors(jac, w)
        ok_u = nu <= max(tol_u, 2.0 * floor_u)
        ok_c = nc <= max(tol_c, 2.0 * floor_c)
        # stalled: no meaningful progress over several corrections while the
        # mechanics residual sits orders below the run's force scale; the
        # iteration is chasing the yield-surface branch jitter
        stalled = (len(norms) >= 5 and norm > 0.99 * norms[-5]
                   and nu <= 1e-3 * max(refs["u"], 1e-300) and nc <= max(tol_c, 2.0 * floor_c))
        reason = ("converged" if nu <= tol_u and nc <= tol_c else
                  "roundoff-floor" if ok_u and ok_c else
                  "stagnated" if stagnated else
                  "stalled" if stalled else None)
        if reason is not None:
            return w, new_states, sigma_h, n_solves, norm, reason
        if norms:
            meaningful = norm > 10.0 * (floor_u + floor_c)
            grow = grow + 1 if (meaningful and norm > norms[-1]) else 0
            if grow >= 3:
                raise StepFailure(f"Newton diverging at t={t_new:g}: residual grew over "
                                  f"3 consecutive iterations (last {norm:.3e})")
        norms.append(norm)
        if n_solves >= config.newton_max_iter:
            raise StepFailure(f"Newton did not converge within {config.newton_max_iter} "
                              f"iterations at t={t_new:g} (residual {norm:.3e}, "
                              f"tols {tol_u:.3e}/{tol_c:.3e})")
        # with no plastic quadrature point, K_uu is the elastic stiffness
        elastic = np.array_equal(new_states.eps_p_eq, fields_n.states.eps_p_eq)
        try:
            dw = block_solver.newton_update(jac, res, fixed_dofs, keep_uu=elastic,
                                            keep_cc=keep_cc)
        except sparse_linalg.SingularMatrixError as err:
            raise StepFailure(f"linear solve failed at t={t_new:g}: {err}") from err
        n_solves += 1

        # Full Newton step; robustness against genuinely diverging steps is
        # the divergence detector above plus the caller's dt halving, which
        # also shrinks the boundary-condition increment that causes them.
        w = w + dw
        # stagnated: the increment reached the float64 floor of the
        # solution itself; no further reduction is possible here
        stagnated = np.linalg.norm(dw) <= 1e-13 * (np.linalg.norm(w) + 1e-300)
        # the last iterate's Jacobian and states are dead: free them before
        # the next assembly allocates its temporaries (peak memory)
        res = jac = new_states = None
        try:
            res, jac, new_states, sigma_h = assemble_at(w)
        except AssemblyError as err:
            raise StepFailure(f"assembly failed at t={t_new:g}: {err}") from err


def step(fields_n, t_n, dt, scenario, config, elem_data=None, plan=None,
         newton_refs=None, block_solver=None):
    """Advance one backward-Euler step from t_n to t_n + dt.

    ``elem_data`` and ``plan`` are the run's assembly and boundary plans
    (``precompute``, ``plan_boundary``; made here if omitted).
    ``block_solver`` computes the Newton updates; pass the run's solver so
    that its kept factors carry over between steps (a fresh one is made if
    omitted). Returns (fields at t_n + dt, StepInfo). Raises StepFailure
    when the Newton solve cannot be completed.
    """
    ed = elem_data if elem_data is not None else precompute(scenario.mesh)
    plan = plan if plan is not None else plan_boundary(scenario.mesh, scenario.bcs)
    dm = DofMap(scenario.mesh.n_nodes)
    block_solver = block_solver or sparse_linalg.BlockSolver()
    t_new = t_n + dt

    w = dm.join(fields_n.u, fields_n.c)
    w[plan.fixed_dofs] = dirichlet_values(plan, t_new)

    w, new_states, sigma_h, iters, norm, reason = _newton_solve(
        w, fields_n, t_new, dt, scenario, config, ed, plan, block_solver, refs=newton_refs)
    u, c = dm.split(w)
    fields_new = FieldState(u=u, c=c, states=new_states, sigma_h_nodal=sigma_h)
    return fields_new, StepInfo(newton_iters=iters, residual_norm=norm, newton_exit=reason)


class ProbeSampler:
    """Samples nodal fields at fixed points by FE interpolation; the
    equivalent plastic strain comes from the nearest quadrature point."""

    def __init__(self, mesh, probes, elem_data):
        self.names = [p[0] for p in probes]
        self.points = np.array([[p[1], p[2]] for p in probes], dtype=float) \
            if probes else np.zeros((0, 2))
        if probes:
            self.elems, self.barys = locate_points(mesh, self.points)
            tri_pts = mesh.nodes[mesh.tris[self.elems]]          # (P, 3, 2)
            qp_xy = np.einsum("qk,pkd->pqd", elem_data.shape_qp, tri_pts)
            d = np.linalg.norm(qp_xy - self.points[:, None, :], axis=2)
            self.nearest_qp = np.argmin(d, axis=1)
        self.mesh = mesh
        self.weights = elem_data.weights

    def sample(self, fields):
        out = {}
        if not self.names:
            return out
        c_vals = interpolate_nodal(self.mesh, fields.c, self.elems, self.barys)
        sh_vals = interpolate_nodal(self.mesh, fields.sigma_h_nodal, self.elems, self.barys)
        u_vals = interpolate_nodal(self.mesh, fields.u, self.elems, self.barys)
        for i, name in enumerate(self.names):
            e = self.elems[i]
            sig_avg = np.einsum("q,qa->a", self.weights, fields.states.sigma[e]) / self.weights.sum()
            out[name] = {
                "x": float(self.points[i, 0]),
                "y": float(self.points[i, 1]),
                "c": float(c_vals[i]),
                "sigma_h": float(sh_vals[i]),
                "sigma_e": float(von_mises(sig_avg)),
                "eps_p_eq": float(fields.states.eps_p_eq[e, self.nearest_qp[i]]),
                "ux": float(u_vals[i, 0]),
                "uy": float(u_vals[i, 1]),
            }
        return out


def initial_fields(scenario):
    """Zero-displacement, uniform-concentration state consistent with the
    scenario's reference concentration."""
    return FieldState.zeros(scenario.mesh, c0=scenario.c_initial)


def run(scenario, config, elem_data=None, progress_cb=None):
    """March the scenario from t = 0 to t_end, recording probes every step.

    On a step failure the time step is halved (up to config.max_halvings)
    for the failing step only; refinement events are recorded in the
    history. ``progress_cb(step_no, record, fields)`` is invoked after every
    committed step. Raises RunAborted when the halvings are exhausted.
    """
    mesh = scenario.mesh
    ed = elem_data if elem_data is not None else precompute(mesh)
    plan = plan_boundary(mesh, scenario.bcs)
    sampler = ProbeSampler(mesh, scenario.probes, ed)
    # lumped nodal masses: a third of each element's area per vertex
    masses = np.bincount(mesh.tris.ravel(), weights=np.repeat(ed.areas / 3.0, 3),
                         minlength=mesh.n_nodes)

    fields = initial_fields(scenario)
    history = TimeHistory()
    t = 0.0
    t_end = config.t_end
    step_no = 0
    newton_refs = {"u": 0.0, "c": 0.0}
    block_solver = sparse_linalg.BlockSolver()

    while t < t_end * (1.0 - 1e-12):
        # a remainder equal to dt up to roundoff takes the full dt
        remaining = t_end - t
        dt = config.dt if remaining >= config.dt * (1.0 - 1e-9) else remaining
        attempt = 0
        while True:
            try:
                fields_new, info = step(fields, t, dt, scenario, config, ed, plan,
                                        newton_refs=newton_refs, block_solver=block_solver)
                break
            except StepFailure as err:
                attempt += 1
                if attempt > config.max_halvings:
                    raise RunAborted(f"step at t={t:g} failed after {config.max_halvings} "
                                     f"dt halvings: {err}") from err
                dt *= 0.5
                history.events.append({"time": t, "event": "dt_halved", "dt": dt,
                                       "reason": str(err)})
        t += dt
        step_no += 1
        fields = fields_new
        record = {
            "time": t,
            "dt": dt,
            "newton_iters": info.newton_iters,
            "residual_norm": info.residual_norm,
            "newton_exit": info.newton_exit,
            "total_concentration": float(masses @ fields.c),
            "max_eps_p_eq": float(fields.states.eps_p_eq.max()),
            "max_sigma_h": float(np.max(np.abs(hydrostatic(fields.states.sigma)))),
        }
        history.append(t, record, sampler.sample(fields))
        if progress_cb is not None:
            progress_cb(step_no, record, fields)
    return history, fields
