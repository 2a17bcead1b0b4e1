import numpy as np
import pytest

from chemoplast import cli
from chemoplast.scenarios import load_config

COARSE_PLATE = """
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

VALIDATION_PLATE = """
geometry.kind = plate_with_hole
geometry.L = 1.0
geometry.r = 0.1
geometry.target_h = 0.04
material.preset = steel_table1
loading.kind = traction
loading.p = 100e6
concentration.initial_hat = 0.05
concentration.insulated = on
coupling.mode = twoway
plasticity.enabled = off
solver.dt_hat = 2e-3
solver.t_end_hat = 0.04
"""

ANNULUS = """
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


@pytest.fixture
def plate_cfg(tmp_path):
    path = tmp_path / "plate.cfg"
    path.write_text(COARSE_PLATE + f"output.dir = {tmp_path / 'out'}\n")
    return path


class TestExitCodes:
    def test_missing_config_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, plate_cfg):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(plate_cfg), "--frobnicate"])
        assert exc.value.code == 2

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.knid = plate\n")
        assert cli.main(["--config", str(bad), "--quiet"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_success_exits_0(self, plate_cfg, tmp_path):
        assert cli.main(["--config", str(plate_cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        assert (out / "probes.csv").exists()
        assert (out / "final.vtk").exists()

    @pytest.mark.parametrize("line", ["probes.A = 0.1, abc", "loading.t_ramp_hat = nan"])
    def test_bad_number_exits_1_with_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(COARSE_PLATE.replace("loading.t_ramp_hat = 0.1\n", "") + line + "\n")
        assert cli.main(["--config", str(bad), "--quiet"]) == 1
        lineno = len(COARSE_PLATE.splitlines())
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: bad value")

    @pytest.mark.parametrize("text", [
        COARSE_PLATE.replace("geometry.r = 0.2", "geometry.r = 0.6"),
        COARSE_PLATE.replace("geometry.target_h = 0.09", "geometry.target_h = 0.2"),
        ANNULUS.replace("geometry.r_i = 0.25", "geometry.r_i = -0.1"),
        COARSE_PLATE.replace("solver.dt_hat = ", "solver.dt_hat = -"),
        COARSE_PLATE + "solver.newton_rel_tol = -1\n",
        COARSE_PLATE + "solver.newton_max_iter = 0\n",
    ], ids=["hole-does-not-fit", "target_h-not-below-r", "negative-r_i", "negative-dt_hat",
            "negative-rel-tol", "zero-max-iter"])
    def test_bad_value_exits_1_with_one_error_line(self, tmp_path, capsys, text):
        # per-key values are checked by load_config, the conditions that
        # span keys or need the mesh by build_scenario: neither escapes as a
        # traceback, and nothing is written
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "bad_out"
        cfg.write_text(text + f"output.dir = {out}\n")
        assert cli.main(["--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [ANNULUS, COARSE_PLATE], ids=["annulus", "displacement-plate"])
    def test_validate_analytic_off_the_plate_exits_1_before_the_run(self, tmp_path, capsys, text):
        # the closed forms hold for the traction-loaded, insulated plate only
        cfg = tmp_path / "off.cfg"
        out = tmp_path / "off_out"
        cfg.write_text(text + f"output.dir = {out}\n")
        assert cli.main(["--config", str(cfg), "--quiet", "--validate-analytic"]) == 1
        assert ("analytic comparison requires the traction-loaded, insulated plate"
                in capsys.readouterr().err)
        assert not out.exists()


class TestOverridesAndOutputs:
    def test_mode_override_echoed(self, plate_cfg, tmp_path):
        out = tmp_path / "out2"
        assert cli.main(["--config", str(plate_cfg), "--quiet",
                         "--mode", "twoway", "--output-dir", str(out)]) == 0
        echoed = load_config((out / "effective_config.txt").read_text())
        assert echoed.mode == "two-way"

    def test_plasticity_override_echoed(self, plate_cfg, tmp_path):
        out = tmp_path / "out3"
        assert cli.main(["--config", str(plate_cfg), "--quiet",
                         "--plasticity", "off", "--output-dir", str(out)]) == 0
        echoed = load_config((out / "effective_config.txt").read_text())
        assert echoed.plasticity is False

    def test_per_step_summary_unless_quiet(self, plate_cfg, tmp_path, capsys):
        assert cli.main(["--config", str(plate_cfg),
                         "--output-dir", str(tmp_path / "loud")]) == 0
        stdout = capsys.readouterr().out
        assert "newton=" in stdout and "pcg=" in stdout and "passes=" in stdout
        assert cli.main(["--config", str(plate_cfg), "--quiet",
                         "--output-dir", str(tmp_path / "quiet")]) == 0
        assert "newton=" not in capsys.readouterr().out

    def test_deterministic_reruns_byte_identical(self, plate_cfg, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["--config", str(plate_cfg), "--quiet",
                             "--output-dir", str(out)]) == 0
            outs.append((out / "probes.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_validate_analytic_emits_report(self, tmp_path):
        cfg = tmp_path / "validate.cfg"
        cfg.write_text(VALIDATION_PLATE)
        out = tmp_path / "val_out"
        assert cli.main(["--config", str(cfg), "--quiet", "--validate-analytic",
                         "--output-dir", str(out)]) == 0
        report = out / "analytic_comparison.csv"
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "beta,sigma_h_fe,sigma_h_exact,c_fe,c_exact"
        assert len(lines) > 3
        row = [float(v) for v in lines[1].split(",")]
        assert len(row) == 5
