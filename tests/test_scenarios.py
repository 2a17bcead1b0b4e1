import numpy as np
import pytest

from chemoplast import scenarios as sc, transient as tr
from chemoplast.assembly import FieldState


BASE_PLATE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.2
geometry.target_h = 0.09
material.preset = steel_table1
loading.kind = displacement
loading.u_bar = 4e-4
loading.t_ramp_hat = 0.1
coupling.mode = oneway
plasticity.enabled = off
solver.dt_hat = 0.05
solver.t_end_hat = 0.2
"""

BASE_ANNULUS = """
geometry.kind = annulus
geometry.r_i = 0.25
geometry.r_o = 1.0
geometry.target_h = 0.12
material.preset = graphite_table2
loading.kind = flux
loading.J = 0.0
coupling.mode = oneway
plasticity.enabled = off
solver.dt_hat = 0.02
solver.t_end_hat = 0.1
"""

# every key of the config table, each set away from its default
EVERY_SCALAR_KEY = """geometry.kind = annulus
geometry.L = 2.5
geometry.r = 0.3
geometry.r_i = 0.1
geometry.r_o = 0.9
geometry.target_h = 0.05
material.preset = graphite_table2
loading.kind = flux
loading.u_bar = 1e-4
loading.p = 2e6
loading.J = 3e-3
loading.t_ramp_hat = 0.2
concentration.initial_hat = 0.1
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = on
solver.dt = 0.5
solver.dt_hat = 0.01
solver.t_end = 5.0
solver.t_end_hat = 0.3
solver.newton_abs_tol = 1e-9
solver.newton_rel_tol = 1e-7
solver.newton_max_iter = 25
scales.L_star = 0.7
output.dir = elsewhere
output.snapshot_stride = 3
"""


class TestLoadConfig:
    def test_steel_preset_expands(self):
        cfg = sc.load_config(BASE_PLATE)
        p = cfg.material_params()
        assert p.E == 210e9
        assert p.nu == 0.3
        assert p.D == 1.27e-8
        assert p.T == 300.0
        assert p.Omega == 1.96e-6

    def test_graphite_preset_expands(self):
        cfg = sc.load_config(BASE_ANNULUS)
        p = cfg.material_params()
        assert p.E == 19.25e9
        assert p.D == 3.9e-14
        assert p.Omega == 4.17e-6

    def test_serialize_round_trip(self):
        for source in (BASE_PLATE + "probes.P = 0.3, 0.1\n"
                                    "concentration.dirichlet.left = 0.8\n"
                                    "material.sigma_y0 = 123e6\n",
                       EVERY_SCALAR_KEY):
            cfg = sc.load_config(source)
            text = sc.serialize_config(cfg)
            again = sc.load_config(text)
            assert again == cfg
            assert sc.serialize_config(again) == text

    def test_every_scalar_key_input_covers_the_table(self):
        cfg = sc.load_config(EVERY_SCALAR_KEY)
        keys = [line.split(" = ")[0] for line in EVERY_SCALAR_KEY.splitlines()]
        assert keys == list(sc._CONFIG_KEYS)
        default = sc.ScenarioConfig()
        for key, (name, _, _, _) in sc._CONFIG_KEYS.items():
            assert getattr(cfg, name) != getattr(default, name), key

    def test_unknown_key_is_hard_error_with_line(self):
        with pytest.raises(sc.ConfigError, match="line 2"):
            sc.load_config("geometry.kind = plate_with_hole\nsolver.dtt = 1\n")

    @pytest.mark.parametrize("key", ["solver.stagger_tol", "solver.stagger_max_iter"])
    def test_removed_stagger_keys_are_unknown(self, key):
        lineno = len(BASE_PLATE.splitlines()) + 1
        with pytest.raises(sc.ConfigError, match=f"line {lineno}: unknown key '{key}'"):
            sc.load_config(BASE_PLATE + f"{key} = 3\n")

    @pytest.mark.parametrize("line, message", [
        ("geometry.kind = cube",
         "line 1: geometry.kind must be one of ('plate_with_hole', 'annulus')"),
        ("material.preset = wood", "line 1: unknown material preset 'wood'"),
        ("loading.kind = shear",
         "line 1: loading.kind must be one of ('displacement', 'traction', 'flux', 'none')"),
        ("coupling.mode = both", "line 1: coupling.mode must be oneway or twoway"),
        ("plasticity.enabled = maybe",
         "line 1: bad value for plasticity.enabled: expected on/off, got 'maybe'"),
    ])
    def test_enumerated_choice_rejected_with_line(self, line, message):
        with pytest.raises(sc.ConfigError) as err:
            sc.load_config(line + "\n")
        assert str(err.value) == message

    def test_bad_value_reports_key(self):
        with pytest.raises(sc.ConfigError, match="solver.dt_hat"):
            sc.load_config("solver.dt_hat = soon\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(sc.ConfigError, match="duplicate"):
            sc.load_config("geometry.L = 1.0\ngeometry.L = 2.0\n")

    def test_comments_and_blank_lines(self):
        cfg = sc.load_config("# header\n\ngeometry.L = 2.0  # inline\n"
                             + BASE_PLATE.replace("geometry.L = 1.0\n", ""))
        assert cfg.L == 2.0

    def test_missing_time_settings_rejected(self):
        with pytest.raises(sc.ConfigError, match="solver.dt"):
            sc.load_config("geometry.kind = plate_with_hole\n")

    def test_material_override_on_preset(self):
        cfg = sc.load_config(BASE_PLATE.replace("plasticity.enabled = off",
                                                "plasticity.enabled = on")
                             + "material.sigma_y0 = 77e6\n")
        assert cfg.material_params().sigma_y0 == 77e6

    def test_material_without_preset_requires_core_values(self):
        with pytest.raises(sc.ConfigError, match="missing"):
            sc.load_config(BASE_PLATE.replace("material.preset = steel_table1\n", "")
                           ).material_params()


class TestBuildBvpA:
    def test_dirichlet_count_matches_edge_nodes(self):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_bvp_a(cfg)
        m = scen.mesh
        n_left = len(m.nodes_with_tag("left"))
        n_right = len(m.nodes_with_tag("right"))
        from chemoplast.assembly import plan_boundary
        fixed = plan_boundary(m, scen.bcs).fixed_dofs
        # u_x on both edges, one u_y pin, and the default c = 1 on the left
        assert len(fixed) == 2 * n_left + 1 + n_right
        u_cons = [d for d in fixed if d % 3 != 2]
        assert len(u_cons) == n_left + 1 + n_right

    def test_zero_pull_no_dirichlet_c_stays_still(self):
        cfg = sc.load_config(BASE_PLATE.replace("loading.u_bar = 4e-4",
                                                "loading.u_bar = 0.0")
                             + "concentration.insulated = on\n")
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen, scen.solver)
        assert np.abs(fields.u).max() == 0.0
        assert np.abs(fields.c).max() == 0.0
        # with a nonzero uniform reference concentration the state still never
        # moves beyond assembly roundoff
        cfg2 = sc.load_config(BASE_PLATE.replace("loading.u_bar = 4e-4",
                                                 "loading.u_bar = 0.0")
                              + "concentration.insulated = on\n"
                              + "concentration.initial_hat = 0.4\n")
        scen2 = sc.build_scenario(cfg2)
        _, fields2 = tr.run(scen2, scen2.solver)
        assert np.abs(fields2.u).max() <= 1e-18
        assert fields2.c == pytest.approx(np.full(scen2.mesh.n_nodes, 0.4), rel=1e-12)

    def test_traction_variant_is_insulated_and_pinned(self):
        cfg = sc.load_config(BASE_PLATE.replace("loading.kind = displacement",
                                                "loading.kind = traction")
                             .replace("loading.u_bar = 4e-4", "loading.p = 50e6")
                             + "concentration.insulated = on\n")
        scen = sc.build_bvp_a(cfg)
        assert len(scen.bcs.tractions) == 2
        assert len(scen.bcs.pins) == 3
        assert not scen.bcs.dirichlet_c

    def test_default_probes_on_hole(self):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_bvp_a(cfg)
        names = {p[0]: (p[1], p[2]) for p in scen.probes}
        assert names["A"] == (-0.2, 0.0)
        assert names["B"] == (0.0, 0.2)

    def test_probe_outside_domain_rejected(self):
        with pytest.raises(sc.ConfigError, match="probe"):
            sc.build_bvp_a(sc.load_config(BASE_PLATE + "probes.bad = 0.0, 0.0\n"))

    def test_unknown_c_tag_rejected(self):
        with pytest.raises(sc.ConfigError, match="inner"):
            sc.build_bvp_a(sc.load_config(BASE_PLATE
                                          + "concentration.dirichlet.inner = 1.0\n"))

    def test_conflicting_c_values_on_shared_node_rejected(self):
        # top and left share the corner (-L/2, L/2); which value it took used
        # to depend on the line order, which serialize_config does not keep
        text = (BASE_PLATE + "concentration.dirichlet.top = 0.5\n"
                + "concentration.dirichlet.left = 1.0\n")
        with pytest.raises(sc.ConfigError) as err:
            sc.build_bvp_a(sc.load_config(text))
        assert "concentration.dirichlet.top" in str(err.value)
        assert "concentration.dirichlet.left" in str(err.value)

    def test_equal_c_values_on_shared_node_accepted(self):
        text = (BASE_PLATE + "concentration.dirichlet.top = 0.5\n"
                + "concentration.dirichlet.left = 0.5\n"
                + "concentration.dirichlet.hole = 1.0\n")
        scen = sc.build_bvp_a(sc.load_config(text))
        again = sc.build_bvp_a(sc.load_config(sc.serialize_config(scen.config)))
        assert sorted(scen.bcs.dirichlet_c) == sorted(again.bcs.dirichlet_c)

    def test_wrong_geometry_rejected(self):
        with pytest.raises(sc.ConfigError):
            sc.build_bvp_a(sc.load_config(BASE_ANNULUS))


class TestBuildBvpB:
    def test_zero_flux_keeps_initial_concentration(self):
        cfg = sc.load_config(BASE_ANNULUS + "concentration.initial_hat = 0.25\n")
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen, scen.solver)
        c_hat = fields.c / scen.params.c_max
        assert c_hat == pytest.approx(np.full(scen.mesh.n_nodes, 0.25), abs=1e-12)

    def test_species_added_matches_flux_integral(self):
        j_in = 1e-3 * 2.64e4 * 3.9e-14   # modest dimensional influx
        cfg = sc.load_config(BASE_ANNULUS.replace("loading.J = 0.0",
                                                  f"loading.J = {j_in}"))
        scen = sc.build_scenario(cfg)
        from chemoplast.mesh import signed_areas
        hist, fields = tr.run(scen, scen.solver)
        total = hist.records[-1]["total_concentration"]
        t_end = hist.times[-1]
        expected = j_in * 2 * np.pi * 1.0 * t_end
        assert total == pytest.approx(expected, rel=0.01)

    def test_solid_disk_builds_without_inner_bcs(self):
        cfg = sc.load_config(BASE_ANNULUS.replace("geometry.r_i = 0.25",
                                                  "geometry.r_i = 0.0"))
        scen = sc.build_bvp_b(cfg)
        assert len(scen.mesh.edges_with_tag("inner")) == 0
        assert scen.probes[0][1] == 0.0   # inner probe collapses to the center

    def test_rigid_modes_pinned(self):
        cfg = sc.load_config(BASE_ANNULUS)
        scen = sc.build_bvp_b(cfg)
        assert len(scen.bcs.pins) == 3

    def test_insulated_drops_concentration_dirichlet(self):
        cfg = sc.load_config(BASE_ANNULUS + "concentration.insulated = on\n"
                             "concentration.dirichlet.outer = 1.0\n")
        assert sc.build_bvp_b(cfg).bcs.dirichlet_c == []


class TestWriters:
    def _small_history(self, tmp_path):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen, scen.solver)
        return scen, hist, fields

    def test_csv_schema(self, tmp_path):
        scen, hist, fields = self._small_history(tmp_path)
        path = tmp_path / "probes.csv"
        sc.write_probe_csv(hist, scen, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,t_hat,probe,x,y,c,c_hat,sigma_h,sigma_h_hat,sigma_e,eps_p_eq"
        assert len(lines) == 1 + len(hist.times) * len(scen.probes)
        cells = lines[1].split(",")
        assert len(cells) == 11
        float(cells[0])   # %.12e parses back
        assert "e" in cells[0]
        assert abs(float(cells[1]) - scen.scales.t_hat(hist.times[0])) < 1e-15

    def test_vtk_format(self, tmp_path):
        scen, hist, fields = self._small_history(tmp_path)
        path = tmp_path / "snap.vtk"
        sc.write_vtk_snapshot(scen.mesh, fields, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == f"POINTS {scen.mesh.n_nodes} double"
        assert f"CELLS {scen.mesh.n_elements} {4 * scen.mesh.n_elements}" in lines
        assert "SCALARS c double 1" in lines
        assert "SCALARS sigma_h double 1" in lines
        assert "VECTORS u double" in lines
        assert f"CELL_DATA {scen.mesh.n_elements}" in lines
        assert "SCALARS eps_p_eq double 1" in lines

    def test_vtk_uniform_field_round_trip(self, tmp_path):
        scen, hist, fields = self._small_history(tmp_path)
        uniform = FieldState.zeros(scen.mesh, c0=3.25)
        path = tmp_path / "uniform.vtk"
        sc.write_vtk_snapshot(scen.mesh, uniform, path)
        # minimal test-side parser: read the c scalars back
        lines = path.read_text().split("\n")
        i = lines.index("SCALARS c double 1") + 2
        vals = [float(v) for v in lines[i:i + scen.mesh.n_nodes]]
        assert vals == pytest.approx(np.full(scen.mesh.n_nodes, 3.25), abs=0)

    def test_analytic_comparison_columns(self, tmp_path):
        cfg = sc.load_config(BASE_PLATE.replace("loading.kind = displacement",
                                                "loading.kind = traction")
                             .replace("loading.u_bar = 4e-4", "loading.p = 50e6")
                             + "concentration.insulated = on\n"
                             + "concentration.initial_hat = 0.05\n")
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen, scen.solver)
        rows = sc.analytic_comparison(scen, fields)
        assert {"beta", "sigma_h_fe", "sigma_h_exact", "c_fe", "c_exact"} == set(rows[0])
        betas = [r["beta"] for r in rows]
        assert betas == sorted(betas)
        assert betas[0] == pytest.approx(0.0, abs=1e-12)
        assert betas[-1] == pytest.approx(np.pi / 2, abs=1e-12)
        path = tmp_path / "cmp.csv"
        sc.write_analytic_comparison(rows, path)
        assert path.read_text().startswith("beta,sigma_h_fe,sigma_h_exact,c_fe,c_exact\n")

    def test_run_scenario_writes_artifacts(self, tmp_path):
        cfg = sc.load_config(BASE_PLATE + f"output.snapshot_stride = 2\n")
        scen = sc.build_scenario(cfg)
        hist, fields = sc.run_scenario(scen, output_dir=tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "probes.csv").exists()
        assert (out / "final.vtk").exists()
        assert (out / "effective_config.txt").exists()
        assert (out / "snapshot_0000.vtk").exists()
        again = sc.load_config((out / "effective_config.txt").read_text())
        assert again.geometry_kind == "plate_with_hole"

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            cfg = sc.load_config(BASE_PLATE)
            scen = sc.build_scenario(cfg)
            hist, fields = tr.run(scen, scen.solver)
            path = tmp_path / f"{name}.csv"
            sc.write_probe_csv(hist, scen, path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
