"""Material-point model: plane-strain elasticity, concentration-induced
swelling strain, and rate-independent J2 plasticity with linear isotropic or
kinematic hardening.

Symmetric 2-D tensors are stored as 4-vectors in the component order
(xx, yy, zz, xy) where xy is the *tensor* shear component. The out-of-plane
normal component zz is carried explicitly so hydrostatic and von Mises
measures are exact in plane strain. All operations are vectorized: state and
increment arrays may carry any leading batch shape.

``update_stress`` is the material-point model: elastic predictor
(``trial_stress``), yield test and radial return (``radial_return``) and the
new state (``returned_state``). The element assembly holds its material
state per element instead (``assembly.ElementState``) and uses two of the
pieces on element rows: the yield test and the return (``radial_return``)
on relative stresses it updates element by element, and the history update
of the plastic rows (``advance_history``) for the iterate a step commits.

Plastic steps enforce the discrete consistency condition by an implicit
radial return, which is exact (no local iteration) for linear hardening;
the kinematic branch is the implicit time discretization of the back-stress
rate equations with beta_dot = h * eps_p_dot. The return and the tangent
correction run on the compacted set of trial-yielding points only
(``PlasticPoints``); every other point keeps its trial state and the
elastic moduli.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

GAS_CONSTANT = 8.314  # J/(mol K)

YIELD_TOL_FACTOR = 1e-6     # |f| <= tol_f = 1e-6 * sigma_y0 after any update
# f / sigma_y up to which ``trial_yields`` counts a row as on the yield surface
SURFACE_ROUNDOFF = 20.0 * np.finfo(float).eps
# the uniaxial material-point driver: lateral Newton iterations per step, and
# its lateral stresses' bound relative to sigma_y0 (1e-3 E without yield)
LOCAL_ITER_CAP = 50
LATERAL_TOL = 1e-9

_NORMALS = np.array([1.0, 1.0, 1.0, 0.0])


class ConstitutiveError(RuntimeError):
    """Raised when a stress update cannot satisfy its contracts.

    ``flat_index`` locates the worst offending point within the batch so
    callers can name the element/quadrature point."""

    def __init__(self, message, flat_index=None):
        super().__init__(message)
        self.flat_index = flat_index


@dataclass
class MaterialParams:
    """Material constants. Stress quantities in Pa, D in m^2/s, Omega in
    m^3/mol, T in K, concentrations in mol/m^3."""
    E: float
    nu: float
    D: float
    Omega: float
    T: float
    sigma_y0: float = 0.0
    hardening_kind: str = "none"      # "isotropic" | "kinematic" | "none"
    H: float = 0.0                    # isotropic hardening modulus d sigma_y / d eps_p_eq
    h: float = 0.0                    # kinematic hardening constant (back-stress rate)
    c_max: float = 1.0

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError("MaterialParams: E must be positive")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("MaterialParams: nu must lie in [0, 0.5)")
        if self.D <= 0:
            raise ValueError("MaterialParams: D must be positive")
        if self.T <= 0:
            raise ValueError("MaterialParams: T must be positive")
        if self.Omega < 0:
            raise ValueError("MaterialParams: Omega must be non-negative")
        if self.c_max <= 0:
            raise ValueError("MaterialParams: c_max must be positive")
        if self.hardening_kind not in ("isotropic", "kinematic", "none"):
            raise ValueError(f"MaterialParams: unknown hardening_kind {self.hardening_kind!r}")
        if self.hardening_kind != "none":
            if self.sigma_y0 <= 0:
                raise ValueError("MaterialParams: sigma_y0 must be positive with plasticity enabled")
            if self.H < 0:
                raise ValueError("MaterialParams: negative isotropic hardening H is not supported")
            if self.h < 0:
                raise ValueError("MaterialParams: negative kinematic hardening h is not supported")

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def drift_coeff(self):
        """D Omega / (R T) of the two-way drift term."""
        return self.D * self.Omega / (GAS_CONSTANT * self.T)

    @property
    def tol_f(self):
        return YIELD_TOL_FACTOR * (self.sigma_y0 if self.sigma_y0 > 0 else self.E)

    def as_elastic(self):
        """Copy with plasticity switched off (scenario-level override)."""
        return replace(self, hardening_kind="none")


def trace(t):
    return t[..., 0] + t[..., 1] + t[..., 2]


def deviator(t):
    # column by column: the (n, 1) x (4,) broadcast of the mean stress costs
    # about twice as much as these column updates, which give the same bits
    dev = np.array(t, dtype=float)
    mean = trace(dev) / 3.0
    for k in range(3):
        dev[..., k] -= mean
    return dev


def ddot(a, b):
    """Full double contraction; the single stored xy component counts twice."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + 2.0 * a[..., 3] * b[..., 3])


def hydrostatic(sigma):
    """sigma_h = (sigma_xx + sigma_yy + sigma_zz) / 3."""
    return trace(np.asarray(sigma, dtype=float)) / 3.0


def von_mises(sigma):
    """sigma_e = sqrt(3/2 S:S) with the full plane-strain deviator."""
    s = deviator(np.asarray(sigma, dtype=float))
    return np.sqrt(np.maximum(1.5 * ddot(s, s), 0.0))


def elastic_stiffness(params):
    """Plane-strain isotropic stiffness on the (xx, yy, zz, xy) tensor basis.

    Maps tensor strain components to stress: lam * tr(eps) I + 2 mu eps,
    so the shear entry is 2 mu (input is the tensor component, not gamma).
    """
    lam, mu = params.lam, params.mu
    C = np.zeros((4, 4))
    C[:3, :3] = lam
    C[0, 0] = C[1, 1] = C[2, 2] = lam + 2.0 * mu
    C[3, 3] = 2.0 * mu
    return C


def elastic_stiffness_eng(params):
    """Stiffness on the engineering basis (eps_xx, eps_yy, eps_zz, gamma_xy)."""
    C = elastic_stiffness(params)
    C[3, 3] = params.mu
    return C


@dataclass
class MaterialState:
    """Per-point history: stress, plastic strain, back stress, and the
    equivalent plastic strain. Arrays share a common batch shape."""
    sigma: np.ndarray
    eps_p: np.ndarray
    back_stress: np.ndarray
    eps_p_eq: np.ndarray

    @classmethod
    def zeros(cls, batch_shape=()):
        shape = tuple(batch_shape) if not isinstance(batch_shape, int) else (batch_shape,)
        return cls(
            sigma=np.zeros(shape + (4,)),
            eps_p=np.zeros(shape + (4,)),
            back_stress=np.zeros(shape + (4,)),
            eps_p_eq=np.zeros(shape),
        )


def _yield_stress(eps_p_eq, params):
    """Current yield stress sigma_y at the equivalent plastic strain
    ``eps_p_eq``; it does not move under kinematic hardening."""
    hardening = 0.0 if params.hardening_kind == "kinematic" else params.H * eps_p_eq
    return params.sigma_y0 + hardening


def _yield(xi, eps_p_eq, params):
    """von Mises value sigma_e of the relative stress ``xi`` = dev(sigma) -
    beta, and the yield function f = sigma_e - sigma_y in stress units for
    both hardening kinds."""
    sig_e = np.sqrt(np.maximum(1.5 * ddot(xi, xi), 0.0))
    return sig_e, sig_e - _yield_stress(eps_p_eq, params)


def trial_yields(xi_tr, eps_p_eq, params):
    """Whether any row of the flat batch yields at its trial relative stress
    ``xi_tr`` beyond roundoff: f_tr > SURFACE_ROUNDOFF sigma_y. A row that
    ``radial_return`` returned sits on the yield surface only to roundoff
    (a few eps sigma_y above it), and this test counts it as on the
    surface; ``radial_return`` itself returns every row with f_tr > 0."""
    _, f = _yield(xi_tr, eps_p_eq, params)
    return bool(np.any(f > SURFACE_ROUNDOFF * _yield_stress(eps_p_eq, params)))


# maps engineering strain to the tensor-component deviator
_DEV_PROJ = np.array([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 1.5]]) / 3.0


@dataclass
class PlasticPoints:
    """The rows of a batch whose trial state yields, compacted, with their
    radial return (``radial_return``). A row is a material point, or an
    element of the assembly, whose points share one return.

    A point's plastic strain increment is ``d_lam n_dir``. At these points
    the consistent tangent is the elastic stiffness minus ``b P + a n (x) n``
    (P: ``_DEV_PROJ``, n: the return direction); every other point keeps the
    elastic stiffness (Simo & Hughes, *Computational Inelasticity*, 1998,
    ch. 3). The correction is deviatoric, so it annihilates the swelling
    direction [1, 1, 1, 0].
    """
    index: np.ndarray   # (k,) flat indices into the batch, increasing
    d_lam: np.ndarray   # (k,) plastic multiplier (equivalent plastic strain increment)
    n_dir: np.ndarray   # (k, 4) return direction 3/2 xi / sigma_e
    b: np.ndarray       # (k,)
    a: np.ndarray       # (k,)

    @classmethod
    def none(cls):
        return cls(np.zeros(0, np.int64), np.zeros(0), np.zeros((0, 4)), np.zeros(0),
                   np.zeros(0))

    def correction(self):
        """(k, 4, 4) tangent corrections on the engineering basis."""
        nn = self.n_dir[:, :, None] * self.n_dir[:, None, :]
        return self.b[:, None, None] * _DEV_PROJ + self.a[:, None, None] * nn

    def tangent(self, params, batch_shape):
        """Dense consistent tangent, ``batch_shape + (4, 4)``."""
        tangent = np.broadcast_to(elastic_stiffness_eng(params), tuple(batch_shape) + (4, 4)).copy()
        tangent.reshape(-1, 4, 4)[self.index] -= self.correction()
        return tangent


def trial_stress(sigma_old, d_eps, d_c, params):
    """Elastic predictor: ``sigma_old`` plus the elastic response to the
    strain increment ``d_eps`` (tensor components) less the swelling strain
    of the concentration increment ``d_c``; broadcasts over the batch."""
    mech = d_eps - d_c[..., None] * (params.Omega / 3.0) * _NORMALS
    return sigma_old + params.lam * trace(mech)[..., None] * _NORMALS + 2.0 * params.mu * mech


def radial_return(xi_tr, eps_p_eq, params):
    """Trial yield test and radial return of a flat batch.

    ``xi_tr`` (n, 4) is the trial relative stress ``dev(sigma_tr) - beta``
    and ``eps_p_eq`` (n,) the step-start equivalent plastic strain. Returns
    the ``PlasticPoints`` of the points with f_tr > 0 (the material must
    harden: ``hardening_kind != "none"``). The return is exact for linear
    hardening; raises ConstitutiveError if it leaves f above
    ``tol_f`` at a returned point.
    """
    mu = params.mu
    kinematic = params.hardening_kind == "kinematic"
    H_eff = 1.5 * params.h if kinematic else params.H

    sig_e_tr, f = _yield(xi_tr, eps_p_eq, params)
    idx = np.flatnonzero(f > 0.0)
    if not idx.size:
        return PlasticPoints.none()
    sig_e = sig_e_tr[idx]
    d_lam = f[idx] / (3.0 * mu + H_eff)
    n_dir = 1.5 * xi_tr[idx] / sig_e[:, None]
    # the returned relative stress loses (2 mu + h) d_eps_p
    xi = xi_tr[idx] - (2.0 * mu + (params.h if kinematic else 0.0)) * (d_lam[:, None] * n_dir)
    _, f_new = _yield(xi, eps_p_eq[idx] + d_lam, params)
    if np.any(f_new > params.tol_f):
        worst = int(np.argmax(f_new))
        raise ConstitutiveError(
            f"radial return left f = {float(f_new[worst]):.3e} above tol {params.tol_f:.3e}",
            flat_index=int(idx[worst]))
    return PlasticPoints(
        index=idx, d_lam=d_lam, n_dir=n_dir, b=6.0 * mu**2 * d_lam / sig_e,
        a=4.0 * mu**2 / (3.0 * mu + H_eff) - 4.0 * mu**2 * d_lam / sig_e)


def _history(a, shape):
    """``a`` itself where it has ``shape``, else a copy broadcast to it."""
    return a if a.shape == shape else np.broadcast_to(a, shape).copy()


def advance_history(eps_p, back_stress, eps_p_eq, plastic, params):
    """The flat history (n, 4), (n, 4), (n,) after the returns ``plastic``:
    returned as it is when no row yields, and copied before any plastic row
    is written."""
    idx = plastic.index
    if idx.size:
        eps_p, back_stress, eps_p_eq = eps_p.copy(), back_stress.copy(), eps_p_eq.copy()
        d_eps_p = plastic.d_lam[:, None] * plastic.n_dir
        eps_p[idx] += d_eps_p
        if params.hardening_kind == "kinematic":
            back_stress[idx] += params.h * d_eps_p
        eps_p_eq[idx] += plastic.d_lam
    return eps_p, back_stress, eps_p_eq


def returned_state(state_old, sigma_tr, plastic, params):
    """The state after an increment with trial stress ``sigma_tr`` (a new
    array, written in place) whose trial-yielding points and their returns
    are ``plastic``. Every other point keeps its trial stress and the
    step-start history (``advance_history``)."""
    shape = sigma_tr.shape
    batch = shape[:-1]
    sigma = np.ascontiguousarray(sigma_tr).reshape(-1, 4)
    if plastic.index.size:
        sigma[plastic.index] -= 2.0 * params.mu * (plastic.d_lam[:, None] * plastic.n_dir)
    eps_p, beta, eps_p_eq = advance_history(
        _history(state_old.eps_p, shape).reshape(-1, 4),
        _history(state_old.back_stress, shape).reshape(-1, 4),
        _history(state_old.eps_p_eq, batch).reshape(-1), plastic, params)
    return MaterialState(sigma.reshape(shape), eps_p.reshape(shape), beta.reshape(shape),
                         eps_p_eq.reshape(batch))


def update_stress(state_old, d_eps, d_c, params, return_tangent=False):
    """Advance the material state by strain increment ``d_eps`` (tensor
    components) and concentration increment ``d_c``.

    Elastic predictor (``trial_stress``) / radial-return corrector
    (``radial_return``); the return map is rate independent. The return and
    the tangent correction run only on the compacted set of points whose
    trial state yields; every other point keeps its trial state. With
    ``return_tangent`` the ``PlasticPoints`` are returned alongside the new
    state; ``PlasticPoints.tangent`` gives the dense consistent tangent on
    the engineering basis (gamma shear).
    """
    sigma_tr = trial_stress(state_old.sigma, np.asarray(d_eps, dtype=float),
                            np.asarray(d_c, dtype=float), params)
    if not np.all(np.isfinite(sigma_tr)):
        bad = int(np.flatnonzero(~np.isfinite(sigma_tr).reshape(-1, 4).all(axis=1))[0])
        raise ConstitutiveError("trial stress is not finite", flat_index=bad)
    plastic = PlasticPoints.none()
    if params.hardening_kind != "none":
        beta = np.broadcast_to(state_old.back_stress, sigma_tr.shape)
        eps_p_eq = np.broadcast_to(state_old.eps_p_eq, sigma_tr.shape[:-1])
        plastic = radial_return((deviator(sigma_tr) - beta).reshape(-1, 4),
                                eps_p_eq.reshape(-1), params)
    new = returned_state(state_old, sigma_tr, plastic, params)
    if not return_tangent:
        return new
    return new, plastic


def drive_material_point_uniaxial(params, eps_axial_history):
    """Stress response of a single material point under a prescribed axial
    strain history, holding the lateral stresses at zero.

    The lateral strains (yy, zz) are found per step by a local Newton
    iteration on the consistent tangent; the returned axial stresses satisfy
    |sigma_yy|, |sigma_zz| <= LATERAL_TOL * sigma_ref at every step.
    """
    eps_hist = np.asarray(eps_axial_history, dtype=float)
    if eps_hist.size == 0 or eps_hist[0] != 0.0:
        raise ValueError("drive_material_point_uniaxial: strain history must start at 0")
    sigma_ref = params.sigma_y0 if params.sigma_y0 > 0 else 1e-3 * params.E

    state = MaterialState.zeros(())
    eps_prev = np.zeros(4)
    stresses = np.empty(eps_hist.size)

    for i, eps_ax in enumerate(eps_hist):
        lat = eps_prev[1:3].copy()
        for it in range(LOCAL_ITER_CAP):
            d_eps = np.array([eps_ax, lat[0], lat[1], 0.0]) - eps_prev
            trial, plastic = update_stress(state, d_eps, 0.0, params, return_tangent=True)
            res = trial.sigma[1:3]
            if np.max(np.abs(res)) <= LATERAL_TOL * sigma_ref:
                break
            J = plastic.tangent(params, ())[1:3, 1:3]
            lat -= np.linalg.solve(J, res)
        else:
            raise ConstitutiveError(
                f"uniaxial driver: lateral iteration stalled at step {i} "
                f"(|sigma_lat| = {np.max(np.abs(res)):.3e})")
        state = trial
        eps_prev = np.array([eps_ax, lat[0], lat[1], 0.0])
        stresses[i] = state.sigma[0]
    return stresses
