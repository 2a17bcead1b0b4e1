"""Closed-form reference solutions and scaling helpers.

Provides the analytical fields used to verify the finite-element solver:
the hydrostatic-stress and equilibrium-concentration fields around a
circular hole in a remotely loaded plate, a Lambert-W kernel, a 1-D
transient-diffusion eigenfunction series, and the nondimensional scales
used to normalize solver output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAS_CONSTANT = 8.314  # J/(mol K)

_INV_E = np.exp(-1.0)


def lambert_w(x, tol=1e-13, max_iter=50):
    """Principal branch of the Lambert W function, w * exp(w) = x.

    Accepts scalars or arrays; requires x >= -1/e. Uses a region-dependent
    initial guess (branch-point series, small-x series, or the asymptotic
    log-log expansion) refined by Halley iteration.

    Raises
    ------
    ValueError
        If any input lies below -1/e (no real principal value).
    RuntimeError
        If the iteration fails to reach |w exp(w) - x| <= tol * max(1, |x|)
        within ``max_iter`` sweeps (not expected on the real branch).
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    z = np.atleast_1d(x_arr).copy()

    if np.any(z < -_INV_E):
        bad = z[z < -_INV_E]
        raise ValueError(f"lambert_w: argument {bad[0]:.17g} below -1/e has no real principal value")

    w = np.empty_like(z)

    # Branch-point series in p = sqrt(2(e x + 1)), accurate to O(p^4).
    near = z < -0.25
    if np.any(near):
        p = np.sqrt(np.maximum(2.0 * (np.e * z[near] + 1.0), 0.0))
        w[near] = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0

    small = (~near) & (z < 1.0)
    if np.any(small):
        zs = z[small]
        w[small] = zs * (1.0 - zs + 1.5 * zs * zs)

    mid = (~near) & (~small) & (z <= np.e)
    if np.any(mid):
        w[mid] = np.log1p(z[mid]) * 0.8

    large = z > np.e
    if np.any(large):
        l1 = np.log(z[large])
        l2 = np.log(l1)
        w[large] = l1 - l2 + l2 / l1

    target = tol * np.maximum(1.0, np.abs(z))
    for _ in range(max_iter):
        ew = np.exp(w)
        f = w * ew - z
        if np.all(np.abs(f) <= target):
            break
        wp1 = w + 1.0
        # Halley step; wp1 never vanishes on the principal branch interior,
        # guard anyway so a transient iterate cannot divide by zero.
        wp1 = np.where(np.abs(wp1) < 1e-30, 1e-30, wp1)
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
    else:
        ew = np.exp(w)
        if np.any(np.abs(w * ew - z) > target):
            raise RuntimeError("lambert_w: Halley iteration did not converge")

    return float(w[0]) if scalar else w.reshape(x_arr.shape)


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
    R: float = GAS_CONSTANT

    def __post_init__(self):
        if self.R0 <= 0:
            raise ValueError("AnalyticParams: hole radius R0 must be positive")
        if not np.isfinite(self.p):
            raise ValueError("AnalyticParams: remote load p must be finite")

    @property
    def k(self):
        return self.V_H / (self.R * self.T)

    @property
    def Q(self):
        return 2.0 * self.alpha_c * self.V_H * self.E / (9.0 * (1.0 - self.nu) * self.R * self.T)


def hole_hydrostatic(r, beta, params, beta_offset=0.0):
    """Hydrostatic stress around a circular hole under remote uniaxial
    tension p (tension-positive) along beta = 0, in plane strain.

    Kirsch's solution (Kirsch 1898; Timoshenko & Goodier, *Theory of
    Elasticity*, 3rd ed., sec. 35) has the in-plane invariant

        sigma_rr + sigma_tt = p (1 - 2 R0^2 / r^2 cos 2 beta),

    and plane strain adds sigma_zz = nu (sigma_rr + sigma_tt), so

        sigma_h = (1 + nu) p / 3 * (1 - 2 R0^2 / r^2 * cos(2 (beta + beta_offset))).

    It is (1 + nu) p / 3 far from the hole and -(1 + nu) p / 3 where the load
    axis meets the hole. ``beta_offset`` selects the angular convention (0
    or pi/2) when comparing against a numerically computed field.

    Raises ValueError for sample points inside the hole (r < R0).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < params.R0 * (1.0 - 1e-12)):
        raise ValueError("hole_hydrostatic: r < R0 lies inside the hole")
    beta_arr = np.asarray(beta, dtype=float)
    out = ((1.0 + params.nu) * params.p / 3.0) * (
        1.0 - 2.0 * params.R0**2 / r_arr**2 * np.cos(2.0 * (beta_arr + beta_offset))
    )
    return float(out) if np.ndim(out) == 0 else out


def hole_concentration(r, beta, params, beta_offset=0.0):
    """Equilibrium concentration around the hole, Lambert-W closed form.

    Evaluates the printed composition

        A = C0 * exp(-k * (2 (1+nu) R0^2 p / (3 r^2)) * cos(2 (beta+offset)) + C0 * Q)
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
    a = params.C0 * np.exp(-params.k * g * np.cos(2.0 * (beta_arr + beta_offset)) + params.C0 * params.Q)
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

    # forward maps (dimensional -> hatted)
    def x_hat(self, x):
        return x / self.L_star

    def t_hat(self, t):
        return t / self.t_star

    def c_hat(self, c):
        return c / self.c_star

    def sigma_h_hat(self, sigma_h):
        return sigma_h / self.sigma_h_star

    # backward maps
    def x_of(self, x_hat):
        return x_hat * self.L_star

    def t_of(self, t_hat):
        return t_hat * self.t_star

    def c_of(self, c_hat):
        return c_hat * self.c_star

    def sigma_h_of(self, sigma_h_hat):
        return sigma_h_hat * self.sigma_h_star


def nondim_scales(params, L_star):
    """Build the nondimensional scales for a material and a length scale.

    ``params`` needs attributes D, c_max, R, T, Omega (a MaterialParams
    does). The stress scale renders Omega * sigma_h / (R T) equal to
    sigma_h_hat, and t* = L*^2 / D makes the diffusive time unit-free.
    """
    if L_star <= 0:
        raise ValueError("nondim_scales: L_star must be positive")
    return NondimScales(
        L_star=L_star,
        t_star=L_star**2 / params.D,
        c_star=params.c_max,
        sigma_h_star=params.R * params.T / params.Omega,
    )
