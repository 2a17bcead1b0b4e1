from dataclasses import replace

import numpy as np
import pytest

from chemoplast import analytic


def bisect_lambert(x, tol=1e-14):
    """Independent oracle: bisection on w * exp(w) = x, principal branch."""
    lo, hi = -1.0, max(1.0, np.log(max(x, 1e-300)) + 1.0) if x > 0 else 0.0
    if x < 0:
        lo, hi = -1.0, 0.0
    else:
        while hi * np.exp(hi) < x:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_w_zero(self):
        assert analytic.lambert_w(0.0) == 0.0

    def test_w_e(self):
        assert analytic.lambert_w(np.e) == pytest.approx(1.0, abs=1e-13)

    def test_w_one_vs_bisection(self):
        assert analytic.lambert_w(1.0) == pytest.approx(bisect_lambert(1.0), abs=1e-12)
        # known digits of the omega constant
        assert analytic.lambert_w(1.0) == pytest.approx(0.5671432904, abs=1e-10)

    def test_defining_identity_wide_range(self):
        x = np.concatenate([
            np.logspace(-6, 6, 400),
            np.linspace(-1.0 / np.e + 1e-12, -1e-12, 100),
        ])
        w = analytic.lambert_w(x)
        assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_inverse_property(self):
        w_true = np.linspace(-1.0, 10.0, 111)
        x = w_true * np.exp(w_true)
        assert analytic.lambert_w(x) == pytest.approx(w_true, abs=1e-10)

    def test_monotone(self):
        x = np.linspace(-1.0 / np.e + 1e-9, 50.0, 5000)
        w = analytic.lambert_w(x)
        assert np.all(np.diff(w) > 0)

    def test_below_branch_point_raises(self):
        with pytest.raises(ValueError):
            analytic.lambert_w(-0.5)


@pytest.fixture
def steel_analytic():
    return analytic.AnalyticParams(p=100e6, R0=0.05, nu=0.3, E=210e9, C0=0.1,
                                   V_H=1.96e-6, alpha_c=1.96e-6 / 3.0, T=300.0)


class TestHoleHydrostatic:
    def test_far_field_limit(self, steel_analytic):
        # remote tension p: (1+nu) p / 3 far from the hole
        val = analytic.hole_hydrostatic(1e6, 0.3, steel_analytic)
        assert val == pytest.approx((1.3 * 100e6) / 3.0, rel=1e-9)
        assert val == pytest.approx(43.333e6, rel=1e-4)

    def test_at_hole_axis(self, steel_analytic):
        # where the load axis meets the hole the hoop stress is -p
        val = analytic.hole_hydrostatic(0.05, 0.0, steel_analytic)
        assert val == pytest.approx(-(1.3 * 100e6) / 3.0, rel=1e-12)

    def test_matches_kirsch_full_field(self, steel_analytic):
        # Kirsch's polar stresses for remote tension p along x (Timoshenko &
        # Goodier sec. 35), rotated to Cartesian components, with the
        # plane-strain sigma_zz = nu (sigma_xx + sigma_yy)
        p, a, nu = steel_analytic.p, steel_analytic.R0, steel_analytic.nu
        r, th = np.meshgrid([0.05, 0.055, 0.08, 0.2, 15.0], np.linspace(-np.pi, np.pi, 13))
        q2, q4 = (a / r) ** 2, (a / r) ** 4
        s_rr = p / 2 * (1 - q2) + p / 2 * (1 - 4 * q2 + 3 * q4) * np.cos(2 * th)
        s_tt = p / 2 * (1 + q2) - p / 2 * (1 + 3 * q4) * np.cos(2 * th)
        s_rt = -p / 2 * (1 + 2 * q2 - 3 * q4) * np.sin(2 * th)
        c, s = np.cos(th), np.sin(th)
        s_xx = s_rr * c**2 + s_tt * s**2 - 2 * s_rt * s * c
        s_yy = s_rr * s**2 + s_tt * c**2 + 2 * s_rt * s * c
        sigma_h = (1 + nu) * (s_xx + s_yy) / 3
        far = np.argmax(r[0])
        assert s_xx[:, far] == pytest.approx(np.full(13, p), rel=2e-3)      # the remote load
        assert s_yy[:, far] == pytest.approx(np.zeros(13), abs=2e-3 * p)
        got = analytic.hole_hydrostatic(r, th, steel_analytic)
        assert got == pytest.approx(sigma_h, rel=1e-12, abs=1e-9 * p)

    def test_zero_load(self, steel_analytic):
        p0 = analytic.AnalyticParams(p=0.0, R0=0.05, nu=0.3, E=210e9, C0=0.1,
                                     V_H=1.96e-6, alpha_c=0.0, T=300.0)
        r = np.linspace(0.05, 1.0, 7)
        assert np.all(analytic.hole_hydrostatic(r, 0.7, p0) == 0.0)

    def test_angular_symmetries(self, steel_analytic):
        r, beta = 0.08, 0.37
        base = analytic.hole_hydrostatic(r, beta, steel_analytic)
        assert analytic.hole_hydrostatic(r, beta + np.pi, steel_analytic) == pytest.approx(base, rel=1e-14)
        assert analytic.hole_hydrostatic(r, -beta, steel_analytic) == pytest.approx(base, rel=1e-14)

    def test_inside_hole_raises(self, steel_analytic):
        with pytest.raises(ValueError):
            analytic.hole_hydrostatic(0.04, 0.0, steel_analytic)


@pytest.mark.parametrize("field, value, message", [
    ("R0", 0.0, "hole radius R0 must be positive"),
    ("R0", -0.05, "hole radius R0 must be positive"),
    ("p", np.nan, "remote load p must be finite"),
    ("p", -np.inf, "remote load p must be finite"),
])
def test_invalid_analytic_params_rejected(steel_analytic, field, value, message):
    with pytest.raises(ValueError) as err:
        replace(steel_analytic, **{field: value})
    assert str(err.value) == f"AnalyticParams: {message}"


class TestHoleConcentration:
    def test_inside_hole_raises(self, steel_analytic):
        with pytest.raises(ValueError) as err:
            analytic.hole_concentration(np.array([0.06, 0.04]), 0.0, steel_analytic)
        assert str(err.value) == "hole_concentration: r < R0 lies inside the hole"

    def test_lambert_identity(self, steel_analytic):
        # A exp(-W(A)) is identically W(A); spot-check the implementation
        r = np.array([0.05, 0.07, 0.2, 1.0])
        c = analytic.hole_concentration(r, 0.4, steel_analytic)
        g = 2 * 1.3 * 0.05**2 * 100e6 / (3 * r**2)
        a = 0.1 * np.exp(-steel_analytic.k * g * np.cos(0.8) + 0.1 * steel_analytic.Q)
        assert c == pytest.approx(analytic.lambert_w(a), rel=1e-13)

    def test_no_load_reduces_to_w_of_c0(self):
        params = analytic.AnalyticParams(p=0.0, R0=0.05, nu=0.3, E=210e9, C0=0.1,
                                         V_H=1.96e-6, alpha_c=0.0, T=300.0)
        val = analytic.hole_concentration(0.3, 1.1, params)
        assert val == pytest.approx(bisect_lambert(0.1), abs=1e-12)
        assert val == pytest.approx(0.0912765, abs=1e-7)
        # independent of position and angle when p = 0
        assert analytic.hole_concentration(5.0, 0.2, params) == pytest.approx(val, rel=1e-14)

    def test_zero_reference_concentration(self, steel_analytic):
        params = analytic.AnalyticParams(p=100e6, R0=0.05, nu=0.3, E=210e9, C0=0.0,
                                         V_H=1.96e-6, alpha_c=1e-7, T=300.0)
        assert analytic.hole_concentration(0.06, 0.3, params) == 0.0


class TestSlabSeries:
    def test_steady_state(self):
        x = np.linspace(0, 1, 11)
        assert analytic.slab_series(x, 1e3, 1.0, 1.0) == pytest.approx(np.ones(11), abs=1e-12)

    def test_boundary_value(self):
        for t in (1e-4, 0.05, 2.0):
            assert analytic.slab_series(0.0, t, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_far_end_frozen_value(self):
        # frozen from the series itself and cross-checked below against an
        # independent Crank-Nicolson finite-difference solution
        val = analytic.slab_series(1.0, 0.1, 1.0, 1.0, n_terms=60)
        assert val == pytest.approx(0.05069464, abs=1e-7)

    def test_against_finite_difference(self):
        # independent oracle: implicit FD on a fine grid
        n, m = 400, 4000
        dx, dt = 1.0 / n, 0.1 / m
        c = np.zeros(n + 1)
        c[0] = 1.0
        main = np.full(n + 1, 1.0 + 2.0 * dt / dx**2)
        lower = np.full(n, -dt / dx**2)
        upper = np.full(n, -dt / dx**2)
        main[0] = 1.0; upper[0] = 0.0
        main[-1] = 1.0 + 2.0 * dt / dx**2; lower[-1] = -2.0 * dt / dx**2
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        A = sp.diags([lower, main, upper], [-1, 0, 1]).tocsc()
        lu = splu(A)
        for _ in range(m):
            rhs = c.copy()
            rhs[0] = 1.0
            c = lu.solve(rhs)
        xs = np.linspace(0, 1, n + 1)
        series = analytic.slab_series(xs, 0.1, 1.0, 1.0, n_terms=80)
        assert np.max(np.abs(series - c)) < 5e-4

    def test_truncation_bound_reported(self):
        val, bound = analytic.slab_series(0.5, 0.05, 1.0, 1.0, n_terms=8, return_bound=True)
        ref = analytic.slab_series(0.5, 0.05, 1.0, 1.0, n_terms=100)
        assert abs(val - ref) <= bound + 1e-15

    def test_pde_residual_within_bound(self):
        # d c/dt - D d2c/dx2 of the truncated series stays at truncation level
        D, L, t = 1.0, 1.0, 0.08
        x = np.linspace(0.2, 0.8, 13)
        h, dt = 1e-5, 1e-7
        c0 = analytic.slab_series(x, t, D, L, n_terms=60)
        ct = (analytic.slab_series(x, t + dt, D, L, n_terms=60) - c0) / dt
        cxx = (analytic.slab_series(x + h, t, D, L, n_terms=60)
               - 2 * c0 + analytic.slab_series(x - h, t, D, L, n_terms=60)) / h**2
        assert np.max(np.abs(ct - D * cxx)) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            analytic.slab_series(-0.1, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            analytic.slab_series(0.5, -1.0, 1.0, 1.0)


class TestNondimScales:
    def test_time_scale_fine_diffusivity(self, ):
        class P:
            D, c_max, T, Omega = 3.9e-14, 1.0, 300.0, 4.17e-6
        s = analytic.nondim_scales(P, 1e-6)
        assert s.t_star == pytest.approx(25.64, rel=1e-3)

    def test_time_scale_coarse_diffusivity(self):
        class P:
            D, c_max, T, Omega = 1.27e-8, 1.0, 300.0, 1.96e-6
        s = analytic.nondim_scales(P, 1e-2)
        assert s.t_star == pytest.approx(7874.0, rel=1e-3)

    def test_stress_scale_definition(self, steel=None):
        class P:
            D, c_max, T, Omega = 1.27e-8, 2.0, 300.0, 1.96e-6
        s = analytic.nondim_scales(P, 0.5)
        sigma = 8.314 * P.T / P.Omega
        assert s.sigma_h_hat(sigma) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("name", ["L_star", "t_star", "c_star", "sigma_h_star"])
    def test_every_scale_must_be_positive(self, name):
        scales = {**dict(L_star=1.0, t_star=2.0, c_star=3.0, sigma_h_star=4.0), name: 0.0}
        with pytest.raises(ValueError) as err:
            analytic.NondimScales(**scales)
        assert str(err.value) == f"NondimScales: {name} must be positive"

    def test_positivity_required(self):
        class P:
            D, c_max, T, Omega = 1.0, 1.0, 300.0, 1e-6
        with pytest.raises(ValueError):
            analytic.nondim_scales(P, 0.0)
