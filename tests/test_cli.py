import json
import time
from pathlib import Path

import numpy as np
import pytest

from lpmink import cli, solver, sphere
from lpmink.cli import main


def run_cli(args):
    return main(list(args))


def test_solve_const_density_end_to_end(tmp_path):
    code = run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "1",
                    "--resolution", "128", "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["residual_l1"] <= 0.02
    assert (tmp_path / "residuals.csv").exists()
    body = json.loads((tmp_path / "body.json").read_text())
    assert len(body["normals"]) == 128


def test_solve_verifies_once(tmp_path, monkeypatch):
    calls = []
    verify = solver.verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(solver, "verify", counted)
    monkeypatch.setattr(cli, "verify", counted)
    code = run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "1",
                    "--resolution", "64", "--output-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


def test_solve_config_file(tmp_path):
    cfg = {
        "n": 2, "p": -0.5,
        "measure": {"density": "dipole", "params": {"a": 0.3}},
        "grid": {"resolution": 128},
        "solver": {"stages": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["stages"]) <= 4


def test_solve_n3_writes_off_mesh(tmp_path):
    code = run_cli(["solve", "--n", "3", "--p", "-1", "--c", "1",
                    "--resolution", "200", "--output-dir", str(tmp_path)])
    assert code == 0
    off = (tmp_path / "body.off").read_text()
    assert off.startswith("OFF\n")


def test_check_antipodal_pair_exits_2(tmp_path):
    cfg = {
        "n": 2, "resolution": 64,
        "measure": {"atoms": [{"u": [1, 0], "mass": 0.5},
                              {"u": [-1, 0], "mass": 0.5}]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["positive_hull"]["antipodal_pair"] is True
    assert "antipodal" in report["positive_hull"]["detail"]


def test_check_good_measure_exits_0(tmp_path):
    cfg = {
        "n": 2, "resolution": 64,
        "measure": {"density": "const", "params": {"c": 1.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0


def test_check_default_n3_grid_finishes(tmp_path):
    # the toolbox benchmark's bump density on all 500 nodes of the default grid
    cfg = {
        "n": 3,
        "measure": {"density": "bump", "params": {
            "center": [0.6, 0.0, 0.8], "amplitude": 0.5, "width": 0.5}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert time.perf_counter() - start < 10.0
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["positive_hull"]["passes"] is True
    assert report["subspace_concentration"]["satisfied"] is True


def test_check_default_dipole_runs_no_lp(tmp_path, no_lp):
    # the positive-hull pre-flight is certified without its LP
    cfg = {"n": 2, "measure": {"density": "dipole"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0


def test_identity_critical_case(tmp_path):
    cfg = {"n": 2, "p": -2.0, "ellipse": [1.5, 1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["identity", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_abs_deviation"] <= 1e-6


def test_identity_allows_p_equal_minus_n(tmp_path):
    code = run_cli(["identity", "--n", "2", "--p", "-2",
                    "--output-dir", str(tmp_path)])
    assert code == 0
    # but p = 0 is rejected as malformed
    code = run_cli(["identity", "--n", "2", "--p", "0",
                    "--output-dir", str(tmp_path)])
    assert code == 1


def test_symmetrize_command(tmp_path):
    cfg = {
        "n": 2, "resolution": 360,
        "measure": {"atoms": [{"u": [1, 0], "mass": 1.0}]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["symmetrize", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["simplex"]) == 3
    assert report["mu0_total_mass"] == pytest.approx(3.0)
    measure0 = json.loads((tmp_path / "measure0.json").read_text())
    assert len(measure0["atoms"]) == 3


def test_symmetrize_hypothesis_failure_exits_2(tmp_path):
    cfg = {
        "n": 2, "resolution": 64,
        "measure": {"density": "const", "params": {"c": 1.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["symmetrize", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 2


def test_solve_closed_hemisphere_support_exits_2(tmp_path):
    cfg = {
        "n": 2, "p": 0.5, "resolution": 256,
        "measure": {"density": "arc", "params": {"theta_min": -1.5707963267948966,
                                                 "theta_max": 1.5707963267948966}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "solve" and report["seed"] == 0
    assert "closed hemisphere" in report["error"]


def test_smooth_command(tmp_path):
    cfg = {
        "n": 2, "resolution": 360, "m": 8,
        "measure": {"atoms": [{"u": [1, 0], "mass": 1.0}]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["smooth", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["total_mass"] > 1.0
    assert report["density_bounds"][0] > 0


def test_malformed_config_exits_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert run_cli(["solve", "--config", str(cfg_path)]) == 1
    # missing measure
    cfg_path.write_text(json.dumps({"n": 2, "p": 0.5}))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1
    # two measure sources
    cfg_path.write_text(json.dumps({
        "n": 2, "p": 0.5,
        "measure": {"density": "const", "atoms": []}}))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1
    # p out of range
    cfg_path.write_text(json.dumps({
        "n": 2, "p": 1.5, "measure": {"density": "const"}}))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1


def test_unknown_solver_option_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    base = {"n": 2, "p": 0.5, "measure": {"density": "const"},
            "grid": {"resolution": 64}}
    cfg_path.write_text(json.dumps({**base, "solver": {"body_tol": 1e-5}}))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "'body_tol'" in err
    assert "tol, max_iter, eps0, stages" in err
    assert not (tmp_path / "report.json").exists()
    for solver_cfg in ({"stages": "six"}, [4]):
        cfg_path.write_text(json.dumps({**base, "solver": solver_cfg}))
        assert run_cli(["solve", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path)]) == 1


def test_unknown_config_field_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    base = {"n": 2, "p": 0.5, "measure": {"density": "const"}}
    for cfg, key, have in (
            ({**base, "grid": {"resolutoin": 64}}, "'resolutoin'",
             "(have: resolution, symmetry)"),
            ({**base, "body_tol": 1e-5, "grid": {"resolution": 64}}, "'body_tol'",
             "(have: n, p, m, seed, output_dir, resolution, tol, max_iter, eps0, "
             "stages, grid, measure, solver, body_file, ellipse, center)")):
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["solve", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert key in err and have in err
        assert not (tmp_path / "report.json").exists()
    # cmd_smooth reads the grid object through the same check
    cfg_path.write_text(json.dumps({
        "n": 2, "grid": {"resolution": 64, "symetry": None},
        "measure": {"atoms": [{"u": [1, 0], "mass": 1.0}]}}))
    assert run_cli(["smooth", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1
    assert "'symetry'" in capsys.readouterr().err


def test_smooth_takes_the_grid_symmetry(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "grid": {"resolution": 64,
                         "symmetry": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
        "measure": {"atoms": [{"u": [0.8, 0.6], "mass": 1.0},
                              {"u": [0.8, -0.6], "mass": 1.0},
                              {"u": [-1, 0], "mass": 2.0}]}}))
    assert run_cli(["smooth", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    atoms = json.loads((tmp_path / "measure.json").read_text())["atoms"]
    mass = {tuple(np.round(a["u"], 9)): a["mass"] for a in atoms}
    for (x, y), m in mass.items():
        assert mass[(x, -y)] == pytest.approx(m, rel=1e-12)


def test_c_flag_requires_the_const_density(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "p": 0.5, "grid": {"resolution": 64},
        "measure": {"density": "dipole", "params": {"a": 0.3}}}))
    assert run_cli(["solve", "--config", str(cfg_path), "--c", "5",
                    "--output-dir", str(tmp_path)]) == 1
    assert "--c" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # on a const density it sets the value
    cfg_path.write_text(json.dumps({
        "n": 2, "p": 0.5, "grid": {"resolution": 64},
        "measure": {"density": "const", "params": {"c": 1.0}}}))
    assert run_cli(["solve", "--config", str(cfg_path), "--c", "2",
                    "--output-dir", str(tmp_path)]) == 0
    mu = float((tmp_path / "residuals.csv").read_text().splitlines()[1].split(",")[2])
    assert mu == pytest.approx(2.0 * 2.0 * np.pi / 64, rel=1e-12)


def test_default_grid_resolution_comes_from_sphere(tmp_path, monkeypatch):
    monkeypatch.setitem(sphere.DEFAULT_RESOLUTION, 2, 24)
    assert run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "1",
                    "--output-dir", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "body.json").read_text())
    assert len(body["normals"]) == 24


def test_readme_sample_config_solves(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sample = readme.split("A solve config looks like:")[1]
    sample = sample.split("```json\n")[1].split("```")[0]
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(sample)
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True


def test_solver_nonconvergence_exits_3(tmp_path):
    cfg = {
        "n": 2, "p": -1.99,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": 256},
        "solver": {"max_iter": 3, "stages": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 3


def test_stalled_solve_exits_3_with_its_body(tmp_path):
    # near p = -n every finish attempt fails, and three steps per stage
    # leave every stage short of stationarity
    cfg = {
        "n": 2, "p": -1.99,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": 256},
        "solver": {"max_iter": 3, "stages": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False
    assert [s["iterations"] for s in report["stages"]] == [3, 3, 3]
    assert (tmp_path / "body.json").exists()


def test_solve_and_verify_a_density_vanishing_on_an_arc(tmp_path):
    # the density is 0 on 1/3 of the circle; the body still has one row
    # per grid node, and verify reproduces solve's residual from body.json
    cfg = {
        "n": 2, "p": 0.5,
        "measure": {"density": "arc",
                    "params": {"theta_min": -2.0, "theta_max": 2.0}},
        "grid": {"resolution": 256},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    solved = tmp_path / "solve"
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(solved)]) == 0
    report = json.loads((solved / "report.json").read_text())
    assert report["converged"] is True and report["residual_l1"] <= 1e-9
    rows = (solved / "residuals.csv").read_text().splitlines()
    assert len(rows) == 1 + 256
    cfg["body_file"] = str(solved / "body.json")
    cfg_path.write_text(json.dumps(cfg))
    checked = tmp_path / "verify"
    assert run_cli(["verify", "--config", str(cfg_path),
                    "--output-dir", str(checked)]) == 0
    verified = json.loads((checked / "report.json").read_text())
    assert verified["residual_l1"] == pytest.approx(report["residual_l1"],
                                                    abs=1e-12)


def test_solve_dipole_n2048_converges(tmp_path):
    # the descent alone takes 5000 iterations here and exits 3
    cfg = {
        "n": 2, "p": -1.0,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": 2048},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["residual_l1"] <= 1e-10
    assert report["newton_attempts"] >= 1
    assert report["stages"][-1]["newton_steps"] >= 1


def test_reports_are_byte_reproducible(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "2",
                        "--resolution", "128", "--output-dir", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "residuals.csv").read_bytes() == (out2 / "residuals.csv").read_bytes()
    assert (out1 / "body.json").read_bytes() == (out2 / "body.json").read_bytes()


def test_verify_command(tmp_path):
    # produce a body with solve, then verify it against the same measure
    assert run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "1",
                    "--resolution", "128", "--output-dir", str(tmp_path)]) == 0
    cfg = {
        "n": 2, "p": 0.5,
        "body_file": str(tmp_path / "body.json"),
        "measure": {"density": "const", "params": {"c": 1.0}},
        "grid": {"resolution": 128},
    }
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["verify", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "verify"
    assert report["residual_l1"] <= 0.02


@pytest.mark.parametrize("command,cfg", [
    ("solve", {"n": 2, "p": 0.5, "grid": {"resolution": "abc"}}),
    ("solve", {"n": "two", "p": 0.5}),
    ("solve", {"n": 2, "p": "half"}),
    ("solve", {"n": 2, "p": 0.5, "grid": {"symmetry": 5}}),
    ("solve", {"n": 2, "p": 0.5,
               "measure": {"density": "const", "params": {"c": "x"}}}),
    ("check", {"n": 2, "measure": {"file": "no-such-measure.json"}}),
    ("verify", {"n": 2, "p": 0.5, "body_file": "no-such-body.json"}),
])
def test_malformed_values_exit_1_with_one_error_line(tmp_path, capsys,
                                                      command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": {"density": "const"}, **cfg}))
    assert run_cli([command, "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
