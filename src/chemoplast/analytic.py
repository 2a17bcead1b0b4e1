"""Closed-form reference solutions and scaling helpers.

Provides the analytical fields used to verify the finite-element solver:
the hydrostatic-stress and equilibrium-concentration fields around a
circular hole in a remotely loaded plate, the real Lambert W function (from
scipy), a 1-D transient-diffusion eigenfunction series, and the
nondimensional scales used to normalize solver output.

``scipy.special`` is imported by ``lambert_w`` on its first call, so only a
run that evaluates a closed form loads it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import GAS_CONSTANT

_INV_E = np.exp(-1.0)


def lambert_w(x):
    """Principal branch of the Lambert W function, w * exp(w) = x.

    Accepts scalars or arrays; requires x >= -1/e. The values are those of
    ``scipy.special.lambertw`` on the real branch. The float -exp(-1) lies
    just below the true -1/e, where scipy returns nan; it is mapped to the
    branch point W = -1. Raises ValueError below -1/e (no real value).
    ``scipy.special`` is imported here, not with the module.
    """
    from scipy.special import lambertw

    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -_INV_E):
        bad = x_arr[x_arr < -_INV_E]
        raise ValueError(f"lambert_w: argument {bad[0]:.17g} below -1/e has no real principal value")
    w = np.where(x_arr == -_INV_E, -1.0, lambertw(x_arr).real)
    return float(w) if x_arr.ndim == 0 else w


@dataclass
class AnalyticParams:
    """Inputs for the hole-in-plate reference fields.

    ``p`` is the remote uniaxial stress, tension-positive, along the axis
    from which the angle beta is measured (see ``hole_hydrostatic``);
    ``V_H`` is the partial molar volume entering the drift factor k and
    ``alpha_c`` the concentration-expansion coefficient entering Q. k and Q are recomputed on access so they can never go stale.
    """
    p: float            # remote load magnitude (Pa)
    R0: float           # hole radius (m)
    nu: float           # Poisson ratio
    E: float            # Young's modulus (Pa)
    C0: float           # reference concentration (normalized)
    V_H: float          # partial molar volume (m^3/mol)
    alpha_c: float      # concentration-expansion coefficient
    T: float            # temperature (K)

    def __post_init__(self):
        if self.R0 <= 0:
            raise ValueError("AnalyticParams: hole radius R0 must be positive")
        if not np.isfinite(self.p):
            raise ValueError("AnalyticParams: remote load p must be finite")

    @property
    def k(self):
        return self.V_H / (GAS_CONSTANT * self.T)

    @property
    def Q(self):
        return (2.0 * self.alpha_c * self.V_H * self.E
                / (9.0 * (1.0 - self.nu) * GAS_CONSTANT * self.T))


def hole_hydrostatic(r, beta, params):
    """Hydrostatic stress around a circular hole under remote uniaxial
    tension p (tension-positive) along beta = 0, in plane strain.

    Kirsch's solution (Kirsch 1898; Timoshenko & Goodier, *Theory of
    Elasticity*, 3rd ed., sec. 35) has the in-plane invariant

        sigma_rr + sigma_tt = p (1 - 2 R0^2 / r^2 cos 2 beta),

    and plane strain adds sigma_zz = nu (sigma_rr + sigma_tt), so

        sigma_h = (1 + nu) p / 3 * (1 - 2 R0^2 / r^2 * cos 2 beta).

    It is (1 + nu) p / 3 far from the hole and -(1 + nu) p / 3 where the load
    axis meets the hole.

    Raises ValueError for sample points inside the hole (r < R0).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < params.R0 * (1.0 - 1e-12)):
        raise ValueError("hole_hydrostatic: r < R0 lies inside the hole")
    beta_arr = np.asarray(beta, dtype=float)
    out = ((1.0 + params.nu) * params.p / 3.0) * (
        1.0 - 2.0 * params.R0**2 / r_arr**2 * np.cos(2.0 * beta_arr)
    )
    return float(out) if np.ndim(out) == 0 else out


def hole_concentration(r, beta, params):
    """Equilibrium concentration around the hole, Lambert-W closed form.

    Evaluates the printed composition

        A = C0 * exp(-k * (2 (1+nu) R0^2 p / (3 r^2)) * cos(2 beta) + C0 * Q)
        C = A * exp(-W(A))

    which is identically W(A). With p tension-positive (``AnalyticParams``)
    the exponent's first term is k (sigma_h - sigma_h far from the hole) of
    ``hole_hydrostatic``, so concentration rises where the hydrostatic
    stress is tensile. Domain errors from the Lambert kernel propagate
    unchanged.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < params.R0 * (1.0 - 1e-12)):
        raise ValueError("hole_concentration: r < R0 lies inside the hole")
    beta_arr = np.asarray(beta, dtype=float)
    g = (2.0 * (1.0 + params.nu) * params.R0**2 * params.p) / (3.0 * r_arr**2)
    a = params.C0 * np.exp(-params.k * g * np.cos(2.0 * beta_arr) + params.C0 * params.Q)
    c = a * np.exp(-lambert_w(a))
    return float(c) if np.ndim(c) == 0 else c


def slab_series(x, t, D, L, n_terms=50, return_bound=False):
    """Transient 1-D diffusion in a slab: c(0,t)=1, insulated at x=L, c(x,0)=0.

    Standard eigenfunction series

        c = 1 - sum_n 4/((2n+1) pi) sin((2n+1) pi x / (2L)) exp(-((2n+1) pi / (2L))^2 D t)

    With ``return_bound`` the magnitude of the first omitted term is returned
    alongside the value as a truncation-error bound.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -1e-14 * L) or np.any(x_arr > L * (1.0 + 1e-14)):
        raise ValueError("slab_series: x outside [0, L]")
    if t < 0:
        raise ValueError("slab_series: t must be non-negative")

    acc = np.zeros_like(x_arr, dtype=float)
    for n in range(n_terms):
        lam = (2 * n + 1) * np.pi / (2.0 * L)
        acc += 4.0 / ((2 * n + 1) * np.pi) * np.sin(lam * x_arr) * np.exp(-lam * lam * D * t)
    c = 1.0 - acc
    if np.ndim(c) == 0 or x_arr.ndim == 0:
        c = float(c)

    if return_bound:
        lam = (2 * n_terms + 1) * np.pi / (2.0 * L)
        bound = 4.0 / ((2 * n_terms + 1) * np.pi) * np.exp(-lam * lam * D * t)
        return c, bound
    return c


@dataclass
class NondimScales:
    """Reference scales: length L*, time t* = L*^2/D, concentration c*,
    hydrostatic stress sigma_h* = RT/Omega."""
    L_star: float
    t_star: float
    c_star: float
    sigma_h_star: float

    def __post_init__(self):
        for name in ("L_star", "t_star", "c_star", "sigma_h_star"):
            if getattr(self, name) <= 0:
                raise ValueError(f"NondimScales: {name} must be positive")

    # dimensional -> hatted
    def t_hat(self, t):
        return t / self.t_star

    def c_hat(self, c):
        return c / self.c_star

    def sigma_h_hat(self, sigma_h):
        return sigma_h / self.sigma_h_star


def nondim_scales(params, L_star):
    """Build the nondimensional scales for a material and a length scale.

    ``params`` needs attributes D, c_max, T, Omega (a MaterialParams
    does). The stress scale renders Omega * sigma_h / (R T) equal to
    sigma_h_hat, R being GAS_CONSTANT, and t* = L*^2 / D makes the diffusive
    time unit-free.
    """
    if L_star <= 0:
        raise ValueError("nondim_scales: L_star must be positive")
    return NondimScales(
        L_star=L_star,
        t_star=L_star**2 / params.D,
        c_star=params.c_max,
        sigma_h_star=GAS_CONSTANT * params.T / params.Omega,
    )
