"""Backward-Euler time stepping for the coupled system.

``run`` marches a scenario from t = 0 to t_end at the solver's dt; a last
step shorter than dt takes the remainder. What every step of a run shares
is one ``RunData`` record, made once per run by ``run_data``: the scenario
(material and solver settings), the assembly plan (``assembly.precompute``),
the boundary plan (``assembly.plan_boundary``), the fixed Jacobian data
(``assembly.fixed_jacobian``), one ``sparse_linalg.BlockSolver``, whose
factors carry over between steps (its factor policy is described there),
the reference residuals ``refs`` and the ``assembly.DofMap``. The record
itself is frozen; its solver and ``refs`` carry the run's state.

Each step is one Newton solve of the coupled (u, c) system from the
committed fields, with the J2 return map inside the residual
(``assembly.assemble_residual``). A step writes the Dirichlet values at its
end time into its initial iterate and computes the traction and flux load
once; every residual subtracts it. The committed iterate
(``assembly.Iterate``) is read only and serves every attempt of the next
step: its strain is the step-start strain (``assembly.step_start``), and
where the step start moves no Dirichlet value (the load is subtracted
separately, so traction and flux ramps do not count), the first iterate is
the committed one unchanged and its residual pass is the committed pass at
zero increment (``assembly.zero_increment``), unless an element
trial-yields there beyond roundoff. Every other iterate costs one residual
pass. A Jacobian is evaluated at a step's first iterate and after that only
for a Newton update (``assembly.assemble_jacobian``).

Convergence is judged per physics block, the mechanics rows and the
concentration rows: against tolerances relative to ``refs``, the largest
starting block residuals of the committed step attempts so far and the
current one's (a failed attempt leaves ``refs`` unchanged, so it sets no
later tolerance), and against roundoff floors from the last
Jacobian evaluated (|K_u| |w| and |K_cc| |c|, of the blocks' entrywise
magnitudes, ``assembly.FixedJacobian.magnitude``). A step is committed only
through one of NEWTON_EXITS and records what it took (``StepInfo``). Step
failures halve dt for the failing step only, at most ``MAX_HALVINGS`` times,
before the run aborts. They are Newton divergence, the iteration cap,
constitutive errors and the block solver's SingularMatrixError: a block that
band Cholesky finds not positive definite or with a zero pivot, a fresh
factor's solve that misses a roundoff backward error, and a K_cc with drift
that neither CG nor GMRES solves from the factor of its base.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sparse_linalg
from .assembly import (AssemblyError, BoundaryPlan, DofMap, ElementData, FieldState,
                       FixedJacobian, assemble_jacobian, assemble_residual, dirichlet_values,
                       fixed_jacobian, interpolation_operator, iterate_states, neumann_load_vector,
                       plan_boundary, precompute, step_start, zero_increment)
from .constitutive import von_mises


# Newton exits, the only ways a step is committed: both block residuals
# within tolerance; each block within tolerance or at most twice its
# roundoff floor. A step that reaches neither fails and halves dt.
NEWTON_EXITS = ("converged", "roundoff-floor")

MAX_HALVINGS = 4    # dt halvings a failing step may take before the run aborts


class StepFailure(RuntimeError):
    """A single time step could not be completed."""


class RunAborted(RuntimeError):
    """Time stepping failed even after exhausting the dt halvings."""


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    mode: str = "two-way"              # "one-way" | "two-way"
    newton_abs_tol: float = 1e-10
    newton_rel_tol: float = 1e-8
    newton_max_iter: int = 40

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
    jacobians: int             # Jacobians evaluated in the step, the reused base included
    factors: int               # block factors computed by the step's Newton solve
    reused: int                # block solves of it served by a kept factor
    pcg_iters: int             # CG and GMRES iterations of its block solves
    plastic_qp: int            # plastic quadrature points at the committed iterate: n_qp
                               # per plastic element
    residual_passes: int       # residual passes computed; one fewer where the committed
                               # pass gave the first iterate's


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


@dataclass(frozen=True)
class RunData:
    """What every step of a run shares (see the module docstring)."""
    scenario: object        # scenarios.Scenario
    ed: ElementData
    plan: BoundaryPlan
    fixed: FixedJacobian
    block_solver: sparse_linalg.BlockSolver
    refs: dict              # "u" / "c" -> the block's largest starting residual so far
    dm: DofMap


def run_data(scenario):
    """The ``RunData`` of a run of ``scenario``, before its first step."""
    ed = precompute(scenario.mesh)
    plan = plan_boundary(scenario.mesh, scenario.bcs)
    fixed = fixed_jacobian(ed, scenario.params)
    # planned from the patterns: K_cc lies on the node pattern of the mass
    block_solver = sparse_linalg.BlockSolver(fixed.mech, fixed.mass, plan.fixed_dofs)
    return RunData(scenario, ed, plan, fixed, block_solver, {"u": 0.0, "c": 0.0},
                   DofMap(scenario.mesh.n_nodes))


def _newton_solve(rd, w, fields_n, t_new, dt, committed=None, held=False):
    """Solve the coupled residual to tolerance from initial iterate ``w``.

    Convergence and roundoff floors are judged per physics block (mechanics
    rows vs concentration rows): the blocks carry different units, and the
    stiff block reaches its float64 noise floor long before the other is
    done, so a single mixed norm cannot detect convergence. The loop takes
    full Newton steps, with no damping. It returns only at one of
    NEWTON_EXITS; it raises StepFailure when the residual grows, above ten
    times the summed floors, over three consecutive iterations, or when
    ``newton_max_iter`` updates do not reach an exit.

    ``rd`` is the run's ``RunData``. The boundary load at ``t_new`` is
    computed once and subtracted from every residual. The relative
    tolerance is measured against the force scale ``rd.refs``, so quiescent
    hold phases are not asked to out-resolve the yield-surface jitter of
    points flipping between the elastic and plastic branch; this attempt's
    starting residuals are folded into it only when it returns. The
    StepInfo counts the factors ``rd.block_solver`` computed, the block
    solves its kept factors served and the CG and GMRES iterations of the
    block solves, of both blocks, in this solve; the block norms are over its free dofs.

    ``committed`` is the read-only ``assembly.Iterate`` of ``fields_n``
    (None to compute its strain), and ``held`` says that ``w`` is its
    iterate unchanged. Where ``held``, the first iterate's residual pass
    comes from it (``assembly.zero_increment``), unless an element
    trial-yields there.
    Every other iterate costs one residual pass. A Jacobian is evaluated
    from that pass at the first iterate and after that only for a Newton
    update; the roundoff floors of an iterate come from the last Jacobian
    evaluated, each computed only when a test reads it. The element state
    is formed once, for the iterate the solve returns.

    Returns (w, new element state, the ``assembly.Iterate`` of w, StepInfo).
    The Dirichlet dofs of ``w`` must already carry their prescribed values.
    """
    config, params = rd.scenario.solver, rd.scenario.params
    ed, fixed, block_solver, refs = rd.ed, rd.fixed, rd.block_solver, rd.refs
    load = neumann_load_vector(rd.plan, t_new)
    start = step_start(ed, fields_n, params, None if committed is None else committed.strain)
    counts_0 = (block_solver.factors, block_solver.reused, block_solver.pcg_iters)
    free_u, free_c = block_solver.free_dofs
    free_rows = block_solver.free_rows
    eps20 = 20.0 * np.finfo(float).eps

    def block_norms(vec):
        return float(np.linalg.norm(vec[free_u])), float(np.linalg.norm(vec[free_c]))

    def block_floor(k):
        # FP-error bound of evaluating block k's residual at w, the rows of
        # |J| |w| (|K_u| |w| and |K_cc| |c|): below this level the
        # dimensional norm carries no information
        if floors[k] is None:
            if abs_jac[k] is None:
                abs_jac[k] = fixed.magnitude(jac[k])
            w_abs = np.abs(w if k == 0 else w[2::3])
            floors[k] = eps20 * float(np.linalg.norm((abs_jac[k] @ w_abs)[free_rows[k]]))
        return floors[k]

    def residual_at(w_vec):
        u, c = rd.dm.split(w_vec)
        try:
            it = assemble_residual(ed, u, c, start, params, dt, config.mode)
        except AssemblyError as err:
            raise StepFailure(f"assembly failed at t={t_new:g}: {err}") from err
        return it, it.residual - load

    it = zero_increment(committed, start, params) if held and committed is not None else None
    first_pass = int(it is None)        # the first iterate's pass is computed
    if first_pass:
        it, res = residual_at(w)
    else:
        res = it.residual - load
    jac = assemble_jacobian(ed, fixed, it, dt)
    abs_jac = [None, None]      # |jac| block by block, formed when a floor is first needed
    jacobians = 1

    tol_u = tol_c = None
    norm_prev = None
    grow = 0
    n_solves = 0

    def done(reason):
        refs.update(u=ref_u, c=ref_c)
        return w, iterate_states(start, it, params), it, StepInfo(
            newton_iters=n_solves, residual_norm=norm, newton_exit=reason,
            jacobians=jacobians, factors=block_solver.factors - counts_0[0],
            reused=block_solver.reused - counts_0[1],
            pcg_iters=block_solver.pcg_iters - counts_0[2],
            plastic_qp=ed.wq.shape[1] * int(it.plastic.index.size), residual_passes=n_solves + first_pass)

    while True:
        nu, nc = block_norms(res)
        norm = float(np.hypot(nu, nc))
        if tol_u is None:
            ref_u, ref_c = max(refs["u"], nu), max(refs["c"], nc)
            # an absolute tolerance looser than a block's initial residual
            # cannot judge scales it has never seen (a weak boundary flux
            # must still be solved for), so cap it at half the start value
            tol_u = max(config.newton_rel_tol * ref_u,
                        min(config.newton_abs_tol, 0.5 * nu))
            tol_c = max(config.newton_rel_tol * ref_c,
                        min(config.newton_abs_tol, 0.5 * nc))
        if nu <= tol_u and nc <= tol_c:
            return done("converged")
        floors = [None, None]       # of this iterate, computed where a test reads them
        if ((nc <= tol_c or nc <= 2.0 * block_floor(1))
                and (nu <= tol_u or nu <= 2.0 * block_floor(0))):
            return done("roundoff-floor")
        if norm_prev is not None:
            grown = norm > norm_prev and norm > 10.0 * (block_floor(0) + block_floor(1))
            grow = grow + 1 if grown else 0
            if grow >= 3:
                raise StepFailure(f"Newton diverging at t={t_new:g}: residual grew over "
                                  f"3 consecutive iterations (last {norm:.3e})")
        norm_prev = norm
        if n_solves >= config.newton_max_iter:
            raise StepFailure(f"Newton did not converge within {config.newton_max_iter} "
                              f"iterations at t={t_new:g} (residual {norm:.3e}, "
                              f"tols {tol_u:.3e}/{tol_c:.3e})")
        if n_solves > 0:            # jac is an earlier iterate's
            jac = None              # free the last Jacobian before evaluating the next
            abs_jac = [None, None]
            jac = assemble_jacobian(ed, fixed, it, dt)
            jacobians += 1
        try:
            dw = block_solver.newton_update(jac, res)
        except sparse_linalg.SingularMatrixError as err:
            raise StepFailure(f"linear solve failed at t={t_new:g}: {err}") from err
        n_solves += 1

        # Full Newton step; robustness against genuinely diverging steps is
        # the divergence detector above plus the caller's dt halving, which
        # also shrinks the boundary-condition increment that causes them.
        w = w + dw
        # the last iterate's residual pass is dead: free it before the next
        # residual pass allocates its temporaries (peak memory); its
        # Jacobian stays for the floors
        it = res = None
        it, res = residual_at(w)


def step(rd, fields_n, t_n, dt, committed=None):
    """Advance one backward-Euler step from t_n to t_n + dt.

    ``rd`` is the run's ``RunData``, and ``committed`` the read-only
    ``assembly.Iterate`` of ``fields_n`` (None to compute its strain), whose
    residual pass gives the first iterate's where the step start moves no
    Dirichlet value.
    Returns (fields at t_n + dt, StepInfo, their Iterate). Raises
    StepFailure when the Newton solve cannot be completed.
    """
    t_new = t_n + dt

    w = rd.dm.join(fields_n.u, fields_n.c)
    values = dirichlet_values(rd.plan, t_new)
    # the load is subtracted from every residual, so only the Dirichlet
    # values can move the iterate at the step start
    held = np.array_equal(w[rd.plan.fixed_dofs], values)
    w[rd.plan.fixed_dofs] = values

    w, material, it, info = _newton_solve(rd, w, fields_n, t_new, dt, committed, held)
    u, c = rd.dm.split(w)
    return FieldState(u=u, c=c, material=material, sigma_h_nodal=it.sigma_h_nodal,
                      elem_data=rd.ed, params=rd.scenario.params), info, it


class ProbeSampler:
    """Samples nodal fields at a scenario's probes (located by the Scenario)
    by FE interpolation, through one interpolation operator made per run;
    the von Mises stress is that of the containing element's mean stress
    S_e / A_e, and the equivalent plastic strain is the element's."""

    def __init__(self, scenario, elem_data):
        self.names = [p[0] for p in scenario.probes]
        self.points = np.array([[p[1], p[2]] for p in scenario.probes], dtype=float).reshape(-1, 2)
        self.elems = scenario.probe_elems
        self.areas = elem_data.areas[self.elems]
        self.interp = interpolation_operator(scenario.mesh, self.elems, scenario.probe_barys)

    def sample(self, fields):
        out = {}
        c_vals = self.interp @ fields.c
        sh_vals = self.interp @ fields.sigma_h_nodal
        u_vals = self.interp @ fields.u
        material = fields.material
        sigma_e = von_mises(material.stress_sum[self.elems] / self.areas[:, None])
        eps_p_eq = material.eps_p_eq[self.elems]
        for i, name in enumerate(self.names):
            out[name] = {
                "x": float(self.points[i, 0]),
                "y": float(self.points[i, 1]),
                "c": float(c_vals[i]),
                "sigma_h": float(sh_vals[i]),
                "sigma_e": float(sigma_e[i]),
                "eps_p_eq": float(eps_p_eq[i]),
                "ux": float(u_vals[i, 0]),
                "uy": float(u_vals[i, 1]),
            }
        return out


def initial_fields(scenario):
    """Zero-displacement, uniform-concentration state consistent with the
    scenario's reference concentration."""
    return FieldState.zeros(scenario.mesh, c0=scenario.c_initial)


def run(scenario, progress_cb=None):
    """March the scenario from t = 0 to t_end, recording probes every step.

    The settings are ``scenario.solver``'s and the material is
    ``scenario.params``. The committed iterate's residual pass
    (``assembly.Iterate``) is carried, read only, to every attempt of the
    next step, so the callback must not change the fields.

    On a step failure the time step is halved (up to ``MAX_HALVINGS``
    times) for the failing step only; refinement events are recorded in the
    history.
    ``progress_cb(step_no, record, fields)`` is invoked after every
    committed step. Raises RunAborted when the halvings are exhausted.
    """
    config = scenario.solver
    rd = run_data(scenario)
    sampler = ProbeSampler(scenario, rd.ed)
    # lumped nodal masses: a third of each element's area per vertex
    masses = np.bincount(scenario.mesh.tris.ravel(), weights=np.repeat(rd.ed.areas / 3.0, 3),
                         minlength=scenario.mesh.n_nodes)

    fields = initial_fields(scenario)
    history = TimeHistory()
    t = 0.0
    t_end = config.t_end
    step_no = 0
    committed = None    # the Iterate of ``fields``; the initial fields have none

    while t < t_end * (1.0 - 1e-12):
        # a remainder equal to dt up to roundoff takes the full dt
        remaining = t_end - t
        dt = config.dt if remaining >= config.dt * (1.0 - 1e-9) else remaining
        attempt = 0
        while True:
            try:
                fields_new, info, it = step(rd, fields, t, dt, committed)
                break
            except StepFailure as err:
                attempt += 1
                if attempt > MAX_HALVINGS:
                    raise RunAborted(f"step at t={t:g} failed after {MAX_HALVINGS} "
                                     f"dt halvings: {err}") from err
                dt *= 0.5
                history.events.append({"time": t, "event": "dt_halved", "dt": dt,
                                       "reason": str(err)})
        t += dt
        step_no += 1
        fields, committed = fields_new, it
        record = {
            "time": t,
            "dt": dt,
            **vars(info),
            "total_concentration": float(masses @ fields.c),
            "max_eps_p_eq": float(fields.material.eps_p_eq.max()),
        }
        history.append(t, record, sampler.sample(fields))
        if progress_cb is not None:
            progress_cb(step_no, record, fields)
    return history, fields
