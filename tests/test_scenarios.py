import copy
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chemoplast
from chemoplast import scenarios as sc, transient as tr
from chemoplast.assembly import FieldState
from conftest import build_two_element_square, read_binary_vtk
from test_transient import COARSE_HOLE, COARSE_PLATE


def _assert_vtk_holds(path, mesh, fields, title):
    """The VTK file at ``path`` has every text line of the writer's layout
    and arrays bitwise equal to ``mesh`` and ``fields``; returns the arrays
    read."""
    n, m = mesh.n_nodes, mesh.n_elements
    lines, arrays = read_binary_vtk(path)
    assert lines == ["# vtk DataFile Version 3.0", title, "BINARY", "DATASET UNSTRUCTURED_GRID",
                     f"POINTS {n} double", f"CELLS {m} {4 * m}", f"CELL_TYPES {m}",
                     f"POINT_DATA {n}", "SCALARS c double 1", "LOOKUP_TABLE default",
                     "SCALARS sigma_h double 1", "LOOKUP_TABLE default", "VECTORS u double",
                     f"CELL_DATA {m}", "SCALARS eps_p_eq double 1", "LOOKUP_TABLE default"]
    expected = {
        "points": np.column_stack([mesh.nodes, np.zeros(n)]),
        "cells": np.column_stack([np.full(m, 3), mesh.tris]).ravel(),
        "cell_types": np.full(m, 5),
        "c": fields.c,
        "sigma_h": fields.sigma_h_nodal,
        "u": np.column_stack([fields.u, np.zeros(n)]),
        "eps_p_eq": fields.material.eps_p_eq,
    }
    assert list(arrays) == list(expected)
    for name, values in expected.items():
        read = arrays[name]
        assert read.shape == np.shape(values), name
        assert read.tobytes() == np.asarray(values, dtype=read.dtype).tobytes(), name
    return arrays


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
solver.dt_hat = 0.01
solver.t_end_hat = 0.3
solver.newton_abs_tol = 1e-9
solver.newton_rel_tol = 1e-7
solver.newton_max_iter = 25
output.dir = elsewhere
output.snapshot_stride = 3
"""


def without_key(text, key):
    """``text`` without the line that sets ``key``."""
    return "".join(line + "\n" for line in text.splitlines()
                   if line.split(" = ")[0] != key)


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

    # times are hatted only (solver.dt_hat, solver.t_end_hat), and L* is the
    # plate side or the outer radius
    @pytest.mark.parametrize("key", ["solver.stagger_tol", "solver.stagger_max_iter",
                                     "solver.dt", "solver.t_end", "scales.L_star"])
    def test_removed_keys_are_unknown(self, key):
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
        ("coupling.mode = two-way", "line 1: coupling.mode must be oneway or twoway"),
        ("plasticity.enabled = maybe",
         "line 1: bad value for plasticity.enabled: expected on/off, got 'maybe'"),
        ("plasticity.enabled = yes",
         "line 1: bad value for plasticity.enabled: expected on/off, got 'yes'"),
        ("concentration.insulated = true",
         "line 1: bad value for concentration.insulated: expected on/off, got 'true'"),
        ("plasticity.enabled = ON",
         "line 1: bad value for plasticity.enabled: expected on/off, got 'ON'"),
    ])
    def test_enumerated_choice_rejected_with_line(self, line, message):
        with pytest.raises(sc.ConfigError) as err:
            sc.load_config(line + "\n")
        assert str(err.value) == message

    def test_bad_value_reports_key(self):
        with pytest.raises(sc.ConfigError, match="solver.dt_hat"):
            sc.load_config("solver.dt_hat = soon\n")

    @pytest.mark.parametrize("line", ["probes.A = 0.1, abc", "probes.A = nan, 0.1"])
    def test_bad_probe_coordinate_reports_line(self, line):
        lineno = len(BASE_PLATE.splitlines()) + 1
        with pytest.raises(sc.ConfigError, match=f"line {lineno}: bad value for probes.A"):
            sc.load_config(BASE_PLATE + line + "\n")

    @pytest.mark.parametrize("line", ["loading.u_bar = nan", "solver.t_end_hat = inf",
                                      "material.sigma_y0 = -inf",
                                      "concentration.dirichlet.hole = nan"])
    def test_non_finite_number_rejected_with_line(self, line):
        with pytest.raises(sc.ConfigError, match="line 1: bad value for .* is not finite"):
            sc.load_config(line + "\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(sc.ConfigError, match="duplicate"):
            sc.load_config("geometry.L = 1.0\ngeometry.L = 2.0\n")

    def test_comments_and_blank_lines(self):
        cfg = sc.load_config("# header\n\ngeometry.L = 2.0  # inline\n"
                             + BASE_PLATE.replace("geometry.L = 1.0\n", ""))
        assert cfg.L == 2.0

    @pytest.mark.parametrize("key", ["solver.dt_hat", "solver.t_end_hat",
                                     "output.snapshot_stride", "loading.t_ramp_hat"])
    def test_negative_unset_by_zero_value_rejected_with_line(self, key):
        # 0 leaves these unset; a negative value used to fall back to a
        # default (the times), to write a snapshot every step (the stride) or
        # to apply the load at t = 0 (the ramp)
        text = without_key(BASE_PLATE, key)
        lineno = len(text.splitlines()) + 1
        with pytest.raises(sc.ConfigError) as err:
            sc.load_config(text + f"{key} = -1\n")
        assert str(err.value).startswith(f"line {lineno}: {key} must be non-negative")
        assert getattr(sc.load_config(text + f"{key} = 0\n"), sc._CONFIG_KEYS[key][0]) == 0

    @pytest.mark.parametrize("line, message", [
        ("geometry.L 2.0", "expected 'section.key = value', got 'geometry.L 2.0'"),
        ("geometry.L =", "empty key or value"),
        ("= 2.0", "empty key or value"),
        ("material.hardening = cubic",
         "material.hardening must be isotropic/kinematic/none, got 'cubic'"),
        ("probes.A = 0.1", "probe A needs 'x, y', got '0.1'"),
    ])
    def test_malformed_line_rejected_with_line(self, line, message):
        lineno = len(BASE_PLATE.splitlines()) + 1
        with pytest.raises(sc.ConfigError) as err:
            sc.load_config(BASE_PLATE + line + "\n")
        assert str(err.value) == f"line {lineno}: {message}"

    def test_material_override_on_preset(self):
        cfg = sc.load_config(BASE_PLATE.replace("plasticity.enabled = off",
                                                "plasticity.enabled = on")
                             + "material.sigma_y0 = 77e6\n")
        assert cfg.material_params().sigma_y0 == 77e6


class TestBuildScenario:
    @pytest.mark.parametrize("drop", ["solver.dt_hat", "solver.t_end_hat"])
    def test_missing_time_settings_rejected(self, drop):
        cfg = sc.load_config(without_key(BASE_PLATE, drop))
        with pytest.raises(sc.ConfigError, match=r"set solver\.dt_hat and solver\.t_end_hat"):
            sc.build_scenario(cfg)

    def test_unknown_geometry_kind_rejected(self):
        # a ScenarioConfig made in code skips load_config's check of the key
        cfg = replace(sc.load_config(BASE_ANNULUS), geometry_kind="cube")
        with pytest.raises(sc.ConfigError, match="geometry.kind must be one of"):
            sc.build_scenario(cfg)

    @pytest.mark.parametrize("text, kind", [(BASE_PLATE, "flux"), (BASE_ANNULUS, "displacement"),
                                            (BASE_ANNULUS, "traction")])
    def test_loading_that_does_not_suit_the_geometry_rejected(self, text, kind):
        cfg = sc.load_config(text)
        with pytest.raises(sc.ConfigError, match=f"loading.kind '{kind}' not valid"):
            sc.build_scenario(replace(cfg, loading_kind=kind))

    def test_plasticity_off_builds_elastic_material(self):
        # BASE_PLATE switches plasticity off on a hardening preset
        preset = sc.MATERIAL_PRESETS["steel_table1"]
        assert preset["hardening_kind"] == "isotropic"
        scen = sc.build_scenario(sc.load_config(BASE_PLATE))
        assert scen.params.hardening_kind == "none"
        for key in ("E", "nu", "D", "Omega", "T", "sigma_y0", "H", "h", "c_max"):
            assert getattr(scen.params, key) == preset[key]
        # the material is validated before it is made elastic
        with pytest.raises(sc.ConfigError, match="sigma_y0"):
            sc.build_scenario(sc.load_config(BASE_PLATE + "material.sigma_y0 = -1\n"))

    def test_duplicate_probe_names_rejected(self):
        # a ScenarioConfig made in code skips load_config's duplicate-key check
        cfg = replace(sc.load_config(BASE_PLATE), probes=[("P", 0.3, 0.1), ("P", 0.4, 0.1)])
        with pytest.raises(sc.ConfigError) as err:
            sc.build_scenario(cfg)
        assert str(err.value) == "duplicate probe names in ['P', 'P']"

    def test_unknown_preset_rejected(self):
        cfg = replace(sc.load_config(BASE_PLATE), material_preset="wood")
        with pytest.raises(sc.ConfigError) as err:
            sc.build_scenario(cfg)
        assert str(err.value) == ("unknown material preset 'wood'; "
                                  "have ['graphite_table2', 'steel_table1']")

    @pytest.mark.parametrize("lines, message", [
        ("material.E = 0", "E must be positive"),
        ("material.D = 0", "D must be positive"),
        ("material.T = 0", "T must be positive"),
        ("material.Omega = -1", "Omega must be non-negative"),
        ("material.c_max = 0", "c_max must be positive"),
        ("material.hardening = kinematic\nmaterial.h = -1",
         "negative kinematic hardening h is not supported"),
    ])
    def test_invalid_material_rejected(self, lines, message):
        cfg = sc.load_config(BASE_PLATE + lines + "\n")
        with pytest.raises(sc.ConfigError) as err:
            sc.build_scenario(cfg)
        assert str(err.value) == f"MaterialParams: {message}"

    def test_material_without_preset_requires_core_values(self):
        with pytest.raises(sc.ConfigError, match="missing"):
            sc.build_scenario(sc.load_config(
                BASE_PLATE.replace("material.preset = steel_table1\n", "")))


class TestBuildPlate:
    def test_dirichlet_count_matches_edge_nodes(self):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_scenario(cfg)
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
        hist, fields = tr.run(scen)
        assert np.abs(fields.u).max() == 0.0
        assert np.abs(fields.c).max() == 0.0
        # with a nonzero uniform reference concentration the state still never
        # moves beyond assembly roundoff
        cfg2 = sc.load_config(BASE_PLATE.replace("loading.u_bar = 4e-4",
                                                 "loading.u_bar = 0.0")
                              + "concentration.insulated = on\n"
                              + "concentration.initial_hat = 0.4\n")
        scen2 = sc.build_scenario(cfg2)
        _, fields2 = tr.run(scen2)
        assert np.abs(fields2.u).max() <= 1e-18
        assert fields2.c == pytest.approx(np.full(scen2.mesh.n_nodes, 0.4), rel=1e-12)

    def test_traction_variant_is_insulated_and_pinned(self):
        cfg = sc.load_config(BASE_PLATE.replace("loading.kind = displacement",
                                                "loading.kind = traction")
                             .replace("loading.u_bar = 4e-4", "loading.p = 50e6")
                             + "concentration.insulated = on\n")
        scen = sc.build_scenario(cfg)
        assert len(scen.bcs.tractions) == 2
        assert len(scen.bcs.pins) == 3
        assert not scen.bcs.dirichlet_c

    def test_default_probes_on_hole(self):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_scenario(cfg)
        names = {p[0]: (p[1], p[2]) for p in scen.probes}
        assert names["A"] == (-0.2, 0.0)
        assert names["B"] == (0.0, 0.2)

    def test_probe_outside_domain_rejected(self):
        with pytest.raises(sc.ConfigError, match="outside the mesh"):
            sc.build_scenario(sc.load_config(BASE_PLATE + "probes.bad = 0.0, 0.0\n"))

    def test_probes_located_once_per_build_and_run(self, monkeypatch):
        from chemoplast import assembly
        calls = []
        locate = assembly.locate_points

        def counting(mesh, points):
            calls.append(len(points))
            return locate(mesh, points)

        for module in (assembly, sc, tr):
            if hasattr(module, "locate_points"):
                monkeypatch.setattr(module, "locate_points", counting)
        scen = sc.build_scenario(sc.load_config(BASE_PLATE))
        tr.run(scen)
        assert calls == [2]

    def test_unknown_c_tag_rejected(self):
        with pytest.raises(sc.ConfigError, match="inner"):
            sc.build_scenario(sc.load_config(BASE_PLATE
                                             + "concentration.dirichlet.inner = 1.0\n"))

    def test_conflicting_c_values_on_shared_node_rejected(self):
        # top and left share the corner (-L/2, L/2); which value it took used
        # to depend on the line order, which serialize_config does not keep
        text = (BASE_PLATE + "concentration.dirichlet.top = 0.5\n"
                + "concentration.dirichlet.left = 1.0\n")
        with pytest.raises(sc.ConfigError) as err:
            sc.build_scenario(sc.load_config(text))
        assert "concentration.dirichlet.top" in str(err.value)
        assert "concentration.dirichlet.left" in str(err.value)

    def test_equal_c_values_on_shared_node_accepted(self):
        text = (BASE_PLATE + "concentration.dirichlet.top = 0.5\n"
                + "concentration.dirichlet.left = 0.5\n"
                + "concentration.dirichlet.hole = 1.0\n")
        scen = sc.build_scenario(sc.load_config(text))
        again = sc.build_scenario(sc.load_config(sc.serialize_config(scen.config)))
        assert sorted(scen.bcs.dirichlet_c) == sorted(again.bcs.dirichlet_c)


class TestBuildParticle:
    def test_zero_flux_keeps_initial_concentration(self):
        cfg = sc.load_config(BASE_ANNULUS + "concentration.initial_hat = 0.25\n")
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen)
        c_hat = fields.c / scen.params.c_max
        assert c_hat == pytest.approx(np.full(scen.mesh.n_nodes, 0.25), abs=1e-12)

    def test_species_added_matches_flux_integral(self):
        j_in = 1e-3 * 2.64e4 * 3.9e-14   # modest dimensional influx
        cfg = sc.load_config(BASE_ANNULUS.replace("loading.J = 0.0",
                                                  f"loading.J = {j_in}"))
        scen = sc.build_scenario(cfg)
        from chemoplast.mesh import signed_areas
        hist, fields = tr.run(scen)
        total = hist.records[-1]["total_concentration"]
        t_end = hist.times[-1]
        expected = j_in * 2 * np.pi * 1.0 * t_end
        assert total == pytest.approx(expected, rel=0.01)

    def test_solid_disk_builds_without_inner_bcs(self):
        cfg = sc.load_config(BASE_ANNULUS.replace("geometry.r_i = 0.25",
                                                  "geometry.r_i = 0.0"))
        scen = sc.build_scenario(cfg)
        assert len(scen.mesh.edges_with_tag("inner")) == 0
        assert scen.probes[0][1] == 0.0   # inner probe collapses to the center

    def test_rigid_modes_pinned(self):
        cfg = sc.load_config(BASE_ANNULUS)
        scen = sc.build_scenario(cfg)
        assert len(scen.bcs.pins) == 3

    def test_insulated_drops_concentration_dirichlet(self):
        cfg = sc.load_config(BASE_ANNULUS + "concentration.insulated = on\n"
                             "concentration.dirichlet.outer = 1.0\n")
        assert sc.build_scenario(cfg).bcs.dirichlet_c == []


class TestWriters:
    def _small_history(self, tmp_path):
        cfg = sc.load_config(BASE_PLATE)
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen)
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

    def test_csv_matches_per_value_writer(self, tmp_path):
        # one format over all rows gives the bytes of formatting every value
        # on its own, probes sorted by name within each step
        scen = sc.build_scenario(sc.load_config(BASE_PLATE))
        hist = tr.TimeHistory()
        odd = [-0.0, 1e-300, -1.5e200, 7.0, 123456789.0, 0.1]
        for k, t in enumerate((0.5, 1.0, 2.25)):
            sample = {}
            for name in ("b", "a"):
                v = np.roll(odd, k + len(name) + (name == "a"))
                sample[name] = dict(zip(("x", "y", "c", "sigma_h", "sigma_e", "eps_p_eq"),
                                        map(float, v)))
            hist.append(t, {}, sample)
        path = tmp_path / "probes.csv"
        sc.write_probe_csv(hist, scen, path)
        scales = scen.scales
        expected = [sc.CSV_HEADER]
        for t, sample in zip(hist.times, hist.samples):
            for name in sorted(sample):
                s = sample[name]
                row = [t, scales.t_hat(t), name, s["x"], s["y"], s["c"], scales.c_hat(s["c"]),
                       s["sigma_h"], scales.sigma_h_hat(s["sigma_h"]), s["sigma_e"], s["eps_p_eq"]]
                expected.append(",".join(v if isinstance(v, str) else f"{v:.12e}" for v in row))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert len(expected) == 7 and "-0.000000000000e+00" in expected[1]

    def test_vtk_format(self, tmp_path):
        # every text line, and every array bitwise equal to the mesh and the
        # fields it was written from
        scen, hist, fields = self._small_history(tmp_path)
        path = tmp_path / "snap.vtk"
        sc.write_vtk_snapshot(scen.mesh, fields, path)
        _assert_vtk_holds(path, scen.mesh, fields, "chemoplast snapshot")

    def test_vtk_uniform_field_round_trip(self, tmp_path):
        scen, hist, fields = self._small_history(tmp_path)
        uniform = FieldState.zeros(scen.mesh, c0=3.25)
        path = tmp_path / "uniform.vtk"
        sc.write_vtk_snapshot(scen.mesh, uniform, path)
        arrays = _assert_vtk_holds(path, scen.mesh, uniform, "chemoplast snapshot")
        assert np.all(arrays["c"] == 3.25) and arrays["c"].size == scen.mesh.n_nodes

    def test_vtk_matches_per_value_writer(self, tmp_path):
        # the bytes of packing every value on its own, big-endian; the values
        # that 13 printed digits could not carry (the sign of -0.0, 1e-300,
        # -1.5e200, 1/3) come back with every bit
        m = build_two_element_square()
        fields = FieldState.zeros(m)
        fields.c[:] = [-0.0, 1e-300, -1.5e200, 7.0]
        fields.sigma_h_nodal[:] = [1.0 / 3.0, -0.0, 1e-300, -1.5e200]
        fields.u[:] = [[-0.0, 1.0], [1e-300, -2.0], [-1.5e200, 0.0], [123456789.0, -1.0]]
        fields.material.eps_p_eq[:] = [-0.0, -1.5e200]
        path = tmp_path / "small.vtk"
        sc.write_vtk_snapshot(m, fields, path, title="t=1")

        def doubles(values):
            return b"".join(struct.pack(">d", v) for v in np.ravel(values)) + b"\n"

        def ints(values):
            return b"".join(struct.pack(">i", v) for v in np.ravel(values)) + b"\n"

        def xy0(rows):
            return doubles([(x, y, 0.0) for x, y in rows])

        expected = b"".join([
            b"# vtk DataFile Version 3.0\nt=1\nBINARY\nDATASET UNSTRUCTURED_GRID\n",
            b"POINTS 4 double\n", xy0(m.nodes),
            b"CELLS 2 8\n", ints([(3, a, b, c) for a, b, c in m.tris]),
            b"CELL_TYPES 2\n", ints([5, 5]),
            b"POINT_DATA 4\nSCALARS c double 1\nLOOKUP_TABLE default\n", doubles(fields.c),
            b"SCALARS sigma_h double 1\nLOOKUP_TABLE default\n", doubles(fields.sigma_h_nodal),
            b"VECTORS u double\n", xy0(fields.u),
            b"CELL_DATA 2\nSCALARS eps_p_eq double 1\nLOOKUP_TABLE default\n",
            doubles([-0.0, -1.5e200]),
        ])
        assert path.read_bytes() == expected
        arrays = _assert_vtk_holds(path, m, fields, "t=1")
        assert np.signbit(arrays["c"][0]) and arrays["u"][3, 0] == 123456789.0

    def test_analytic_comparison_columns(self, tmp_path):
        cfg = sc.load_config(BASE_PLATE.replace("loading.kind = displacement",
                                                "loading.kind = traction")
                             .replace("loading.u_bar = 4e-4", "loading.p = 50e6")
                             + "concentration.insulated = on\n"
                             + "concentration.initial_hat = 0.05\n")
        scen = sc.build_scenario(cfg)
        hist, fields = tr.run(scen)
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
        # the stride snapshots (steps 2 and 4 of 4) and final.vtk hold the
        # fields of their steps, in the binary encoding
        cfg = sc.load_config(BASE_PLATE + f"output.snapshot_stride = 2\n")
        scen = sc.build_scenario(cfg)
        steps = []
        hist, fields = sc.run_scenario(scen, output_dir=tmp_path / "out",
                                       progress=lambda n, rec, f: steps.append(
                                           (rec["time"], copy.deepcopy(f))))
        out = tmp_path / "out"
        assert (out / "probes.csv").exists()
        assert (out / "effective_config.txt").exists()
        assert len(steps) == 4 and not (out / "snapshot_0002.vtk").exists()
        for k, (t, step_fields) in enumerate(steps[1::2]):
            _assert_vtk_holds(out / f"snapshot_{k:04d}.vtk", scen.mesh, step_fields, f"t={t:.9g}")
        _assert_vtk_holds(out / "final.vtk", scen.mesh, fields, f"t={hist.times[-1]:.9g}")
        again = sc.load_config((out / "effective_config.txt").read_text())
        assert again.geometry_kind == "plate_with_hole"

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            cfg = sc.load_config(BASE_PLATE)
            scen = sc.build_scenario(cfg)
            hist, fields = tr.run(scen)
            path = tmp_path / f"{name}.csv"
            sc.write_probe_csv(hist, scen, path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


# Run in a fresh interpreter: which of the SciPy subpackages that no solver
# step reads are loaded after a plate run and around a closed-form comparison
_FOOTPRINT_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import chemoplast.cli
from chemoplast import scenarios as sc

def loaded():
    return [m for m in ("scipy.spatial", "scipy.special") if m in sys.modules]

seen = {}
with tempfile.TemporaryDirectory() as out:
    sc.run_scenario(sc.build_scenario(sc.load_config(PLATE)), output_dir=out)
    seen["plate"] = loaded()
    hole = sc.build_scenario(sc.load_config(HOLE))
    _, fields = sc.run_scenario(hole, output_dir=out)
    seen["hole"] = loaded()
    sc.write_analytic_comparison(sc.analytic_comparison(hole, fields),
                                 Path(out) / "analytic_comparison.csv")
    seen["comparison"] = loaded()
    seen["outputs"] = sorted(p.name for p in Path(out).iterdir())
print(json.dumps(seen))
"""


def test_runs_load_scipy_special_only_for_closed_forms():
    # a two-way plastic plate run with its outputs written loads neither
    # scipy.spatial nor scipy.special; a closed-form comparison loads
    # scipy.special (for the Lambert W function), and scipy.spatial never
    script = (f"PLATE = {COARSE_PLATE!r}\nHOLE = {COARSE_HOLE!r}\n" + _FOOTPRINT_SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(chemoplast.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"plate": [], "hole": [], "comparison": ["scipy.special"],
                    "outputs": ["analytic_comparison.csv", "effective_config.txt", "final.vtk",
                                "probes.csv"]}
