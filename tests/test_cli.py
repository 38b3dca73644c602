import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        "n": 2, "grid": {"resolution": 64},
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
        "n": 2, "grid": {"resolution": 64},
        "measure": {"density": "const", "params": {"c": 1.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0


def test_check_reports_an_equality_witness(tmp_path):
    # each axis carries half the mass: equality in the subspace
    # concentration condition, with a complementary line
    cfg = {
        "n": 2, "grid": {"resolution": 64},
        "measure": {"atoms": [{"u": [1, 0], "mass": 1.0},
                              {"u": [0, 1], "mass": 1.0}]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    witnesses = report["subspace_concentration"]["witnesses"]
    assert [(w["equality"], w["complement_exists"]) for w in witnesses] == [(True, True)] * 2


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
        "n": 2, "grid": {"resolution": 360},
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
        "n": 2, "grid": {"resolution": 64},
        "measure": {"density": "const", "params": {"c": 1.0}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["symmetrize", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 2


def test_solve_closed_hemisphere_support_exits_2(tmp_path):
    cfg = {
        "n": 2, "p": 0.5, "grid": {"resolution": 256},
        "measure": {"density": "arc", "params": {"theta_min": -1.5707963267948966,
                                                 "theta_max": 1.5707963267948966}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "solve"
    assert "closed hemisphere" in report["error"]


def test_smooth_command(tmp_path):
    cfg = {
        "n": 2, "grid": {"resolution": 360}, "m": 8,
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
    assert "(have: max_iter, stages)" in err
    assert not (tmp_path / "report.json").exists()
    for solver_cfg in ({"stages": "six"}, [4]):
        cfg_path.write_text(json.dumps({**base, "solver": solver_cfg}))
        assert run_cli(["solve", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("flag", ["--tol", "--eps0", "--seed"])
def test_removed_flags_exit_1(tmp_path, flag):
    assert run_cli(["solve", "--n", "2", "--p", "0.5", "--c", "1", flag, "0",
                    "--output-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "report.json").exists()


def test_unknown_config_field_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    base = {"n": 2, "p": 0.5, "measure": {"density": "const"}}
    root = ("(have: n, p, m, output_dir, grid, measure, solver, body_file, "
            "ellipse, center)")
    # each setting has one place: the solver options and the resolution
    # sit in their objects, never at the root
    for cfg, key, have in (
            ({**base, "grid": {"resolutoin": 64}}, "'resolutoin'",
             "(have: resolution, symmetry)"),
            ({**base, "body_tol": 1e-5, "grid": {"resolution": 64}}, "'body_tol'", root),
            ({**base, "tol": 1e-6}, "'tol'", root),
            ({**base, "stages": 4}, "'stages'", root),
            ({**base, "resolution": 64}, "'resolution'", root),
            ({**base, "seed": 0}, "'seed'", root)):
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
    # the flags set the solver options over the config's
    flagged = tmp_path / "flagged"
    assert run_cli(["solve", "--config", str(cfg_path), "--stages", "2",
                    "--max-iter", "2", "--output-dir", str(flagged)]) == 3
    report = json.loads((flagged / "report.json").read_text())
    assert [s["iterations"] for s in report["stages"]] == [2, 2]


def test_solve_raising_the_diameter_guard_exits_3_with_an_error_report(tmp_path):
    # near p = -n the descent's iterates grow past the diameter guard
    cfg = {
        "n": 2, "p": -1.99,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": 64},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "solve"
    assert "diameter exceeded the guard" in report["error"]
    assert not (tmp_path / "body.json").exists()


def test_measure_file_written_by_smooth_feeds_check_and_solve(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "grid": {"resolution": 64}, "m": 8,
        "measure": {"atoms": [{"u": [1, 0], "mass": 1.0},
                              {"u": [0, 1], "mass": 2.0},
                              {"u": [-0.6, -0.8], "mass": 1.5}]}}))
    assert run_cli(["smooth", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path / "smooth")]) == 0
    cfg = {"n": 2, "p": 0.5, "grid": {"resolution": 64},
           "measure": {"file": str(tmp_path / "smooth" / "measure.json")}}
    cfg_path.write_text(json.dumps(cfg))
    for command in ("check", "solve"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--output-dir", str(tmp_path / command)]) == 0
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert report["residual_l1"] <= 1e-9


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


@pytest.mark.parametrize("resolution,l1", [(2048, 1e-10), (8192, 1e-9)])
def test_solve_dipole_on_a_fine_grid_converges(tmp_path, resolution, l1):
    # at N = 2048 the descent alone takes 5000 iterations and exits 3; at
    # N = 8192 the finish's rounding floor (3e-10) lies above FINISH_TOL
    cfg = {
        "n": 2, "p": -1.0,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": resolution},
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
    assert report["residual_l1"] <= l1
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
    ("check", {"n": 2, "measure": {"atoms": [{"u": [1, 0], "mass": "x"}]}}),
    ("smooth", {"n": 2, "measure": {"atoms": [{"u": [1, 0], "mass": "x"}]}}),
    ("verify", {"n": 2, "p": 0.5, "body_file": "offsets-only.json"}),
    ("solve", {"n": 2, "p": 0.5,
               "measure": {"density": "dipole", "params": 5}}),
    ("solve", {"n": 2, "p": 0.5,
               "measure": {"density": "bump", "params": {"center": "x"}}}),
    ("identity", {"n": 2, "p": -1.0, "ellipse": 5}),
    ("identity", {"n": 2, "p": -1.0, "ellipse": ["a", 1]}),
    ("identity", {"n": 2, "p": -1.0, "ellipse": {"a": 1, "b": 2}}),
    ("identity", {"n": 2, "p": -1.0, "center": "x"}),
    ("identity", {"n": 2, "p": -1.0, "center": [0.1]}),
    ("check", {"n": 2, "measure": {"density": []}}),
    ("solve", {"n": 2, "p": 0.5, "measure": {"density": {}}}),
    ("solve --stages 0", {"n": 2, "p": 0.5}),
    ("solve", {"n": 2, "p": 0.5, "solver": {"stages": -1}}),
    ("solve", {"n": 2, "p": 0.5, "solver": {"max_iter": -1}}),
    ("verify", {"n": 2, "p": 0.5, "grid": {"resolution": 64},
                "body_file": "off-grid-square.json"}),
    ("solve", {"n": 2, "p": 0.5,
               "measure": {"density": "bump", "params": {"center": [1, 0, 0]}}}),
    ("smooth", {"n": 2, "grid": {"symmetry": [[[1, 0], [0, 1]], [[None, 0], [0, -1]]]},
                "measure": {"atoms": [{"u": [1, 0], "mass": 1.0}]}}),
    ("check", {"n": 2, "measure": {"atoms": [{"u": [1, 0], "mass": 1.0},
                                             {"u": [0, 1], "mass": None},
                                             {"u": [-1, 0], "mass": 1.0},
                                             {"u": [0, -1], "mass": 1.0}]}}),
    ("symmetrize", {"n": 2, "measure": {"atoms": [{"u": [1, 0], "mass": []}]}}),
    ("verify", {"n": 2, "p": 0.5, "body_file": "nan-offset.json"}),
    ("verify", {"n": 2, "p": 0.5, "body_file": "infinite-offset.json"}),
    ("verify", {"n": 2, "p": 0.5, "body_file": "nan-normal.json"}),
])
def test_malformed_values_exit_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                      command, cfg):
    monkeypatch.chdir(tmp_path)
    # a body file without normals
    Path("offsets-only.json").write_text(json.dumps({"offsets": [1.0] * 4}))
    # a square whose normals, at 1, 91, 181 and 271 degrees, are no grid nodes
    angles = np.radians([1.0, 91.0, 181.0, 271.0])
    Path("off-grid-square.json").write_text(json.dumps({
        "normals": np.column_stack([np.cos(angles), np.sin(angles)]).tolist(),
        "offsets": [1.0] * 4}))
    # the unit square with a NaN or infinite offset, or a NaN normal
    square = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    for name, normals, offsets in [
            ("nan-offset", square, [1.0, float("nan"), 1.0, 1.0]),
            ("infinite-offset", square, [1.0, float("inf"), 1.0, 1.0]),
            ("nan-normal", [[float("nan"), 0.0]] + square[1:], [1.0] * 4)]:
        Path(name + ".json").write_text(json.dumps({"normals": normals,
                                                    "offsets": offsets}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": {"density": "const"}, **cfg}))
    assert run_cli(command.split() + ["--config", str(cfg_path),
                                      "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_NODES16 = sphere.build_grid(2, 16).nodes
#: a small valid config per command, at resolution 16; the verify body is
#: written by the test, and "missing.json" never exists
_VALID = {
    "solve": {"n": 2, "p": 0.5, "grid": {"resolution": 16},
              "measure": {"density": "dipole", "params": {"a": 0.3}},
              "solver": {"stages": 2, "max_iter": 50}},
    "verify": {"n": 2, "p": 0.5, "grid": {"resolution": 16},
               "measure": {"density": "const", "params": {"c": 1.0}},
               "body_file": "body-in.json"},
    "identity": {"n": 2, "p": -1.0, "ellipse": [1.5, 1.0], "center": [0.1, 0.0],
                 "grid": {"resolution": 16}},
    "check": {"n": 2, "grid": {"resolution": 16},
              "measure": {"atoms": [{"u": u, "mass": 1.0}
                                    for u in _NODES16[[0, 5, 10]].tolist()]}},
    "smooth": {"n": 2, "m": 4,
               "grid": {"resolution": 16,
                        "symmetry": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
               "measure": {"atoms": [{"u": [1.0, 0.0], "mass": 1.0},
                                     {"u": [-1.0, 0.0], "mass": 2.0}]}},
    "symmetrize": {"n": 2, "grid": {"resolution": 16},
                   "measure": {"atoms": [{"u": [1.0, 0.0], "mass": 1.0},
                                         {"u": [0.0, 1.0], "mass": 2.0}]}},
}


def _write_verify_body():
    Path("body-in.json").write_text(json.dumps(
        {"normals": _NODES16.tolist(), "offsets": [1.0] * 16}))


@pytest.mark.parametrize("command", sorted(_VALID))
def test_small_valid_configs_exit_0(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    _write_verify_body()
    Path("cfg.json").write_text(json.dumps(_VALID[command]))
    assert run_cli([command, "--config", "cfg.json",
                    "--output-dir", str(tmp_path)]) == 0


def _paths(value, prefix=()):
    """Every key or index path into a JSON value, outermost first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_CASES = [(command, path) for command, cfg in _VALID.items()
          for path in _paths(cfg)]
# strings come from a fixed list, so no file a config names can be a
# device or a large file; the test runs in tmp_path, where none of them exists
_STRINGS = st.sampled_from(["", "x", "1", "missing.json"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64)
    | st.floats(-3.0, 64.0) | _STRINGS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_CASES), value=_JSON)
def test_no_config_ends_in_a_traceback(tmp_path, monkeypatch, capsys, case, value):
    monkeypatch.chdir(tmp_path)
    _write_verify_body()
    command, path = case
    cfg = json.loads(json.dumps(_VALID[command]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    Path("cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run_cli([command, "--config", "cfg.json", "--output-dir", str(tmp_path)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
