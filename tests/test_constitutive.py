import copy

import numpy as np
import pytest

from chemoplast import constitutive as ct
from conftest import chemical_strain, yield_function


class TestMaterialParams:
    def test_rejects_negative_hardening(self):
        with pytest.raises(ValueError):
            ct.MaterialParams(E=210e9, nu=0.3, D=1e-8, Omega=1e-6, T=300.0,
                              sigma_y0=400e6, hardening_kind="isotropic", H=-1.0)

    def test_requires_yield_stress_with_plasticity(self):
        with pytest.raises(ValueError):
            ct.MaterialParams(E=210e9, nu=0.3, D=1e-8, Omega=1e-6, T=300.0,
                              hardening_kind="isotropic", H=1e9)

    def test_poisson_range(self):
        with pytest.raises(ValueError):
            ct.MaterialParams(E=210e9, nu=0.5, D=1e-8, Omega=1e-6, T=300.0)

    def test_unknown_hardening_kind(self):
        with pytest.raises(ValueError) as err:
            ct.MaterialParams(E=210e9, nu=0.3, D=1e-8, Omega=1e-6, T=300.0,
                              hardening_kind="cubic")
        assert str(err.value) == "MaterialParams: unknown hardening_kind 'cubic'"

    def test_as_elastic_strips_plasticity(self, steel_plastic):
        el = steel_plastic.as_elastic()
        assert el.hardening_kind == "none"
        assert el.E == steel_plastic.E


class TestElasticStiffness:
    def test_lame_constants(self, steel):
        C = ct.elastic_stiffness(steel)
        lam = 210e9 * 0.3 / (1.3 * 0.4)
        mu = 210e9 / 2.6
        assert lam == pytest.approx(121.15e9, rel=1e-3)
        assert mu == pytest.approx(80.77e9, rel=1e-3)
        assert C[0, 0] == pytest.approx(lam + 2 * mu, rel=1e-12)
        assert C[0, 1] == pytest.approx(lam, rel=1e-12)
        assert C[3, 3] == pytest.approx(2 * mu, rel=1e-12)

    def test_zero_poisson_uncouples_normals(self):
        p = ct.MaterialParams(E=100e9, nu=0.0, D=1e-8, Omega=1e-6, T=300.0)
        C = ct.elastic_stiffness(p)
        off = C[:3, :3] - np.diag(np.diag(C[:3, :3]))
        assert np.all(off == 0.0)

    def test_spd_on_tensor_basis(self, steel):
        # SPD with respect to the double-contraction metric (xy counted twice)
        C = ct.elastic_stiffness(steel)
        W = np.diag([1.0, 1.0, 1.0, 2.0])
        eigs = np.linalg.eigvalsh(W @ C)
        assert np.all(eigs > 0)

    def test_pure_deviatoric_maps_to_2mu(self, steel):
        C = ct.elastic_stiffness(steel)
        dev = np.array([1.0, -0.5, -0.5, 0.7])
        sig = C @ dev
        assert sig == pytest.approx(2 * steel.mu * dev, rel=1e-12)
        assert ct.trace(sig) == pytest.approx(0.0, abs=1e-3)


class TestChemicalStrain:
    def test_reference_concentration_gives_zero(self, steel):
        assert np.all(chemical_strain(0.0, steel) == 0.0)

    def test_magnitude(self, steel):
        eps = chemical_strain(1e4, steel)
        assert eps[:3] == pytest.approx(np.full(3, 6.533e-3), rel=1e-3)
        assert eps[3] == 0.0

    def test_linearity(self, steel):
        c = 137.0
        d1 = chemical_strain(2 * c, steel) - chemical_strain(c, steel)
        d2 = chemical_strain(c, steel) - chemical_strain(0.0, steel)
        assert d1 == pytest.approx(d2, rel=1e-14)


class TestStressMeasures:
    def test_hydrostatic_of_diagonal(self):
        assert ct.hydrostatic(np.array([3.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_von_mises_uniaxial(self):
        s = 173e6
        assert ct.von_mises(np.array([s, 0.0, 0.0, 0.0])) == pytest.approx(s, rel=1e-12)

    def test_pure_shear(self):
        tau = 55e6
        sig = np.array([0.0, 0.0, 0.0, tau])
        assert ct.von_mises(sig) == pytest.approx(np.sqrt(3) * tau, rel=1e-12)
        assert ct.hydrostatic(sig) == 0.0

    @pytest.mark.parametrize("shape", [(4,), (384, 4), (384, 3, 4)])
    def test_deviator_is_the_mean_stress_broadcast_bitwise(self, shape, rng):
        # the column updates give the bits of t - (tr t / 3) [1, 1, 1, 0]
        # and leave their argument as it is
        t = rng.normal(scale=1e8, size=shape)
        kept = t.copy()
        ref = t - (ct.trace(t) / 3.0)[..., None] * np.array([1.0, 1.0, 1.0, 0.0])
        assert np.array_equal(ct.deviator(t), ref)
        assert np.array_equal(t, kept)


class TestUpdateStress:
    def test_elastic_step_below_yield(self, steel_plastic):
        state = ct.MaterialState.zeros(())
        d_eps = np.array([1e-5, 0.0, 0.0, 0.0])
        new = ct.update_stress(state, d_eps, 0.0, steel_plastic)
        C = ct.elastic_stiffness(steel_plastic)
        assert new.sigma == pytest.approx(C @ d_eps, rel=1e-12)
        assert new.eps_p_eq == 0.0

    def test_pure_chemical_step_leaves_stress(self, steel_plastic):
        state = ct.MaterialState.zeros(())
        d_c = 50.0
        d_eps = chemical_strain(d_c, steel_plastic)   # total strain = swelling
        new = ct.update_stress(state, d_eps, d_c, steel_plastic)
        assert np.all(new.sigma == 0.0)

    def test_chemical_strain_superposition_elastic(self, steel, rng):
        state = ct.MaterialState.zeros((6,))
        d_eps = rng.normal(scale=1e-4, size=(6, 4))
        d_c = rng.normal(scale=10.0, size=6)
        a = ct.update_stress(state, d_eps, d_c, steel)
        b = ct.update_stress(state, d_eps - chemical_strain(d_c, steel), np.zeros(6), steel)
        assert a.sigma == pytest.approx(b.sigma, rel=1e-12)

    def test_perfect_plasticity_supported(self, steel):
        from dataclasses import replace
        pp = replace(steel, sigma_y0=400e6, hardening_kind="isotropic", H=0.0)
        state = ct.MaterialState.zeros(())
        new = ct.update_stress(state, np.array([5e-3, 0, 0, 0]), 0.0, pp)
        assert ct.von_mises(new.sigma) == pytest.approx(400e6, rel=1e-9)

    def test_plastic_incompressibility(self, steel_plastic, rng):
        state = ct.MaterialState.zeros((40,))
        d_eps = rng.normal(scale=5e-3, size=(40, 4))
        new = ct.update_stress(state, d_eps, 0.0, steel_plastic)
        scale = np.abs(new.eps_p).max()
        assert np.abs(ct.trace(new.eps_p)).max() <= 1e-12 * max(scale, 1e-30)

    def test_yield_consistency_after_flow(self, steel_plastic, rng):
        state = ct.MaterialState.zeros((40,))
        new = ct.update_stress(state, rng.normal(scale=5e-3, size=(40, 4)), 0.0, steel_plastic)
        assert np.all(yield_function(new, steel_plastic) <= steel_plastic.tol_f)

    def test_flow_normality(self, steel_plastic, rng):
        state = ct.MaterialState.zeros((40,))
        new = ct.update_stress(state, rng.normal(scale=5e-3, size=(40, 4)), 0.0, steel_plastic)
        flowed = new.eps_p_eq > 0
        xi = ct.deviator(new.sigma) - new.back_stress
        num = ct.ddot(new.eps_p, xi)
        den = np.sqrt(ct.ddot(new.eps_p, new.eps_p) * ct.ddot(xi, xi))
        cos = num[flowed] / den[flowed]
        assert cos == pytest.approx(np.ones(cos.size), abs=1e-10)

    def test_elastic_reversibility(self, steel_plastic):
        state0 = ct.MaterialState.zeros(())
        d_eps = np.array([1e-3, -4e-4, 0.0, 2e-4])   # stays below yield
        up = ct.update_stress(state0, d_eps, 0.0, steel_plastic)
        down = ct.update_stress(up, -d_eps, 0.0, steel_plastic)
        assert ct.von_mises(up.sigma) < steel_plastic.sigma_y0
        assert np.abs(down.sigma).max() <= 1e-12 * np.abs(up.sigma).max()
        assert down.eps_p_eq == 0.0

    def test_isotropic_hardening_monotone(self, steel_plastic, rng):
        state = ct.MaterialState.zeros(())
        sy = [steel_plastic.sigma_y0]
        for _ in range(30):
            d = rng.normal(scale=2e-3, size=4)
            state = ct.update_stress(state, d, 0.0, steel_plastic)
            sy.append(steel_plastic.sigma_y0 + steel_plastic.H * state.eps_p_eq)
        assert np.all(np.diff(sy) >= 0)

    def test_eps_p_eq_never_decreases(self, steel_plastic, rng):
        state = ct.MaterialState.zeros((8,))
        prev = state.eps_p_eq.copy()
        for _ in range(10):
            state = ct.update_stress(state, rng.normal(scale=3e-3, size=(8, 4)), 0.0, steel_plastic)
            assert np.all(state.eps_p_eq >= prev)
            prev = state.eps_p_eq.copy()

    def test_nonfinite_input_raises_with_location(self, steel_plastic):
        state = ct.MaterialState.zeros((3,))
        d = np.zeros((3, 4)); d[1, 0] = np.nan
        with pytest.raises(ct.ConstitutiveError) as exc:
            ct.update_stress(state, d, 0.0, steel_plastic)
        assert exc.value.flat_index == 1

    @pytest.mark.parametrize("kind", ["isotropic", "kinematic"])
    def test_consistent_tangent_matches_finite_differences(self, steel, kind, rng):
        from dataclasses import replace
        params = replace(steel, sigma_y0=400e6, hardening_kind=kind, H=2.1e9, h=2.1e9)
        state = ct.MaterialState.zeros(())
        d0 = np.array([3e-3, -1e-3, 0.0, 1.2e-3])
        new, plastic = ct.update_stress(state, d0, 0.0, params, return_tangent=True)
        tan = plastic.tangent(params, ())
        assert new.eps_p_eq > 0
        step = 1e-9
        fd = np.zeros((4, 4))
        for j in range(4):
            d_t = d0.copy()
            d_t[j] += step / 2 if j == 3 else step   # engineering gamma column
            pert = ct.update_stress(state, d_t, 0.0, params)
            fd[:, j] = (pert.sigma - new.sigma) / step
        assert np.abs(fd - tan).max() / np.abs(tan).max() < 1e-6


def _dense_return_map(state_old, d_eps, d_c, params):
    """The return map evaluated at every point of the batch, elastic ones
    included, with the tangent correction masked by np.where: the reference
    for the compacted ``update_stress``. Returns (state, tangent)."""
    lam, mu = params.lam, params.mu
    normals = np.array([1.0, 1.0, 1.0, 0.0])
    mech = d_eps - d_c[..., None] * (params.Omega / 3.0) * normals
    sigma_tr = state_old.sigma + lam * ct.trace(mech)[..., None] * normals + 2.0 * mu * mech
    kinematic = params.hardening_kind == "kinematic"
    H_eff = 1.5 * params.h if kinematic else params.H
    xi_tr = ct.deviator(sigma_tr) - state_old.back_stress
    sig_e_tr = np.sqrt(np.maximum(1.5 * ct.ddot(xi_tr, xi_tr), 0.0))
    f_tr = sig_e_tr - (params.sigma_y0 + (0.0 if kinematic else params.H * state_old.eps_p_eq))
    plastic = f_tr > 0.0
    d_lam = np.where(plastic, f_tr / (3.0 * mu + H_eff), 0.0)
    safe_e = np.where(sig_e_tr > 0.0, sig_e_tr, 1.0)
    n_dir = 1.5 * xi_tr / safe_e[..., None]
    d_eps_p = d_lam[..., None] * n_dir
    new = ct.MaterialState(
        sigma=sigma_tr - 2.0 * mu * d_eps_p,
        eps_p=state_old.eps_p + d_eps_p,
        back_stress=state_old.back_stress + (params.h * d_eps_p if kinematic else 0.0),
        eps_p_eq=state_old.eps_p_eq + d_lam)
    P = np.array([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 1.5]]) / 3.0
    b = 6.0 * mu**2 * d_lam / safe_e
    a = 4.0 * mu**2 / (3.0 * mu + H_eff) - 4.0 * mu**2 * d_lam / safe_e
    corr = b[..., None, None] * P + a[..., None, None] * (n_dir[..., :, None] * n_dir[..., None, :])
    C = np.broadcast_to(ct.elastic_stiffness_eng(params), plastic.shape + (4, 4))
    return new, C - np.where(plastic[..., None, None], corr, 0.0)


def _mixed_batch(params, rng, shape=(50, 3)):
    """A loaded history (kinematic: non-zero back stress) and increments
    under which about 30% of the points yield."""
    state = ct.update_stress(ct.MaterialState.zeros(shape),
                             rng.normal(scale=3e-3, size=shape + (4,)), np.zeros(shape), params)
    if params.hardening_kind == "kinematic":
        assert np.abs(state.back_stress).max() > 0
    # the others unload along the deviator of their stress and stay elastic
    xi = ct.deviator(state.sigma) - state.back_stress
    unload = -2e-4 * xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    d_eps = np.where((rng.random(shape) < 0.3)[..., None],
                     rng.normal(scale=4e-3, size=shape + (4,)), unload)
    d_c = rng.normal(scale=20.0, size=shape)
    return state, d_eps, d_c


@pytest.fixture(params=["isotropic", "kinematic"])
def hardening(request, steel):
    from dataclasses import replace
    return replace(steel, sigma_y0=400e6, hardening_kind=request.param, H=2.1e9, h=2.1e9)


class TestCompactReturnMap:
    def test_matches_dense_reference(self, hardening, rng):
        state, d_eps, d_c = _mixed_batch(hardening, rng)
        new, plastic = ct.update_stress(state, d_eps, d_c, hardening, return_tangent=True)
        tangent = plastic.tangent(hardening, d_c.shape)
        ref, ref_tangent = _dense_return_map(state, d_eps, d_c, hardening)
        assert 0.1 < plastic.index.size / d_c.size < 0.6       # a mixed batch
        for name in ("sigma", "eps_p", "back_stress", "eps_p_eq"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        scale = np.abs(ref_tangent).max()
        assert np.abs(tangent - ref_tangent).max() <= 1e-15 * scale

    def test_elastic_points_keep_trial_state(self, hardening, rng):
        state, d_eps, d_c = _mixed_batch(hardening, rng)
        new, plastic = ct.update_stress(state, d_eps, d_c, hardening, return_tangent=True)
        elastic = np.ones(d_c.shape, dtype=bool)
        elastic.flat[plastic.index] = False
        trial = ct.update_stress(state, d_eps, d_c, hardening.as_elastic())
        assert np.array_equal(new.sigma[elastic], trial.sigma[elastic])
        assert np.array_equal(new.eps_p_eq[elastic], state.eps_p_eq[elastic])
        assert np.all(new.eps_p_eq.flat[plastic.index] > state.eps_p_eq.flat[plastic.index])

    def test_yielding_update_leaves_step_start_state(self, hardening, rng):
        # the history is copied before the plastic points are written
        state, d_eps, d_c = _mixed_batch(hardening, rng)
        before = copy.deepcopy(state)
        new, plastic = ct.update_stress(state, d_eps, d_c, hardening, return_tangent=True)
        assert plastic.index.size > 0
        for name in ("sigma", "eps_p", "back_stress", "eps_p_eq"):
            assert np.array_equal(getattr(state, name), getattr(before, name)), name
            assert not np.shares_memory(getattr(new, name), getattr(state, name)), name

    def test_elastic_update_returns_step_start_history(self, hardening, rng):
        # no point yields: the history is the step start's, not a copy of it
        state, _, d_c = _mixed_batch(hardening, rng)
        xi = ct.deviator(state.sigma) - state.back_stress          # unloading
        d_eps = -2e-4 * xi / np.linalg.norm(xi, axis=-1, keepdims=True)
        new, plastic = ct.update_stress(state, d_eps, np.zeros_like(d_c), hardening,
                                        return_tangent=True)
        assert plastic.index.size == 0
        for name in ("eps_p", "back_stress", "eps_p_eq"):
            assert np.shares_memory(getattr(new, name), getattr(state, name)), name
            assert np.array_equal(getattr(new, name), getattr(state, name)), name

    def test_correction_annihilates_swelling_direction(self, hardening, rng):
        # the plastic tangent correction is deviatoric, so the K_uc coupling
        # (tangent times [1, 1, 1, 0]) is the elastic one at every iterate
        state, d_eps, d_c = _mixed_batch(hardening, rng)
        _, plastic = ct.update_stress(state, d_eps, d_c, hardening, return_tangent=True)
        assert plastic.index.size > 0
        c_max = np.abs(ct.elastic_stiffness_eng(hardening)).max()
        swell = plastic.correction() @ np.array([1.0, 1.0, 1.0, 0.0])
        assert np.abs(swell).max() <= 1e-12 * c_max

    @pytest.mark.parametrize("excess, yields", [(0.0, False), (10.0, False), (40.0, True)])
    def test_trial_yields_counts_roundoff_above_the_surface_as_on_it(self, hardening, excess,
                                                                     yields):
        # a row above the yield surface by `excess` eps sigma_y: up to 20 eps
        # the zero-increment test counts it as on the surface, while the
        # return map returns every row above it
        eps_p_eq = np.array([2e-3])
        sig_y = hardening.sigma_y0 + (hardening.H if hardening.hardening_kind == "isotropic"
                                      else 0.0) * eps_p_eq
        direction = ct.deviator(np.array([[1.0, -0.4, 0.2, 0.3]]))
        unit = direction / np.sqrt(1.5 * ct.ddot(direction, direction))[:, None]
        xi = unit * (sig_y * (1.0 + excess * np.finfo(float).eps))[:, None]
        f = np.sqrt(1.5 * ct.ddot(xi, xi)) - sig_y
        assert abs(f[0] / sig_y[0] - excess * np.finfo(float).eps) <= 4.0 * np.finfo(float).eps
        assert ct.trial_yields(xi, eps_p_eq, hardening) is yields
        assert ct.radial_return(xi, eps_p_eq, hardening).index.size == int(f[0] > 0.0)

    def test_return_left_above_tolerance_raises_at_batch_index(self, hardening, monkeypatch):
        # a negative tolerance puts the returned row's f (zero to roundoff)
        # above it; the error names the row's index in the batch, 2, not
        # its index 0 among the returned rows
        monkeypatch.setattr(ct, "YIELD_TOL_FACTOR", -1.0)
        direction = ct.deviator(np.array([1.0, -0.4, 0.2, 0.3]))
        unit = direction / np.sqrt(1.5 * ct.ddot(direction, direction))
        xi = np.outer([0.5, 0.9, 2.0], unit) * hardening.sigma_y0    # elastic, elastic, yielding
        with pytest.raises(ct.ConstitutiveError,
                           match=r"^radial return left f = .* above tol -4\.000e\+08$") as exc:
            ct.radial_return(xi, np.zeros(3), hardening)
        assert exc.value.flat_index == 2

    def test_elastic_material_has_no_plastic_points(self, steel, rng):
        state = ct.MaterialState.zeros((7, 3))
        new, plastic = ct.update_stress(state, rng.normal(scale=1e-2, size=(7, 3, 4)),
                                        np.zeros((7, 3)), steel, return_tangent=True)
        assert plastic.index.size == 0
        assert np.array_equal(plastic.tangent(steel, (7, 3)),
                              np.broadcast_to(ct.elastic_stiffness_eng(steel), (7, 3, 4, 4)))


class TestUniaxialDriver:
    def test_elastic_slope(self, steel_plastic):
        eps = np.linspace(0.0, 1e-3, 11)   # below yield strain 1.9e-3
        s = ct.drive_material_point_uniaxial(steel_plastic, eps)
        slopes = s[1:] / eps[1:]
        assert slopes == pytest.approx(np.full(10, steel_plastic.E), rel=1e-9)

    def test_post_yield_tangent(self, steel_plastic):
        eps = np.linspace(0.0, 4e-3, 81)
        s = ct.drive_material_point_uniaxial(steel_plastic, eps)
        E, H = steel_plastic.E, steel_plastic.H
        slope = (s[-1] - s[-5]) / (eps[-1] - eps[-5])
        assert slope == pytest.approx(E * H / (E + H), rel=1e-3)

    def test_closed_form_oracle_at_4e3(self, steel_plastic):
        eps = np.linspace(0.0, 4e-3, 81)
        s = ct.drive_material_point_uniaxial(steel_plastic, eps)
        E, H, sy = steel_plastic.E, steel_plastic.H, steel_plastic.sigma_y0
        oracle = sy + (E * H / (E + H)) * (4e-3 - sy / E)
        assert s[-1] == pytest.approx(oracle, rel=1e-3)
        assert s[-1] == pytest.approx(404.36e6, rel=1e-3)

    def test_kinematic_bauschinger(self, steel_kinematic):
        up = np.linspace(0.0, 8e-3, 161)
        path = np.concatenate([up, up[-2::-1], -up[1:161]])
        s = ct.drive_material_point_uniaxial(steel_kinematic, path)
        peak = s[160]
        E, sy = steel_kinematic.E, steel_kinematic.sigma_y0
        unload = s[160:]
        eps_un = path[160:]
        elastic_line = peak + E * (eps_un - eps_un[0])
        dev = np.flatnonzero(np.abs(unload - elastic_line) > 1e-3 * sy)
        assert dev.size > 0
        re_yield = unload[dev[0]]
        # reverse yield strictly below the forward peak in magnitude, at a
        # span of about 2 sigma_y0 (back-stress translation)
        assert abs(re_yield) < peak
        assert re_yield == pytest.approx(peak - 2 * sy, abs=0.02 * sy)

    def test_lateral_stresses_vanish(self, steel_plastic, monkeypatch):
        # every trial of a step starts from that step's state, so the state
        # the driver accepts is the last trial before the start state changes
        calls = []
        real = ct.update_stress

        def recording(state, *args, **kwargs):
            out = real(state, *args, **kwargs)
            calls.append((state, out[0]))
            return out

        monkeypatch.setattr(ct, "update_stress", recording)
        eps = np.linspace(0.0, 4e-3, 41)
        s = ct.drive_material_point_uniaxial(steel_plastic, eps)
        starts = [start for start, _ in calls[1:]] + [None]
        accepted = [trial for (start, trial), nxt in zip(calls, starts) if nxt is not start]
        assert [a.sigma[0] for a in accepted] == list(s)
        assert accepted[-1].eps_p_eq > 0.0               # the path yields
        lateral = np.array([np.abs(a.sigma[1:3]).max() for a in accepted])
        assert np.all(lateral <= ct.LATERAL_TOL * steel_plastic.sigma_y0)

    def test_stalled_lateral_iteration_raises(self, steel_plastic, monkeypatch):
        # one iteration cannot bring the lateral stresses of a strained step
        # to the tolerance; the unstrained first step needs none
        monkeypatch.setattr(ct, "LOCAL_ITER_CAP", 1)
        with pytest.raises(ct.ConstitutiveError, match="lateral iteration stalled at step 1"):
            ct.drive_material_point_uniaxial(steel_plastic, np.linspace(0.0, 4e-3, 41))

    def test_history_must_start_at_zero(self, steel_plastic):
        with pytest.raises(ValueError):
            ct.drive_material_point_uniaxial(steel_plastic, np.array([1e-3, 2e-3]))
