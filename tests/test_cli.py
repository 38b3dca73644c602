import json
import os
import subprocess
import sys
import time
import warnings
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


@pytest.mark.parametrize("n,stages", [("3", "400"), ("2", "600")])
def test_solve_whose_final_eps_no_double_can_bridge_exits_1(tmp_path, capsys,
                                                           n, stages):
    # the bridge data at eps = 0.1 * 2^-(stages-1) overflow a double
    code = run_cli(["solve", "--n", n, "--p", "0.5", "--c", "1",
                    "--stages", stages, "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_with_a_long_schedule_and_no_bridge_exits_0(tmp_path):
    # p = -1 = -(n-1): phi_eps is -1/t at every eps, so no bridge can
    # overflow; an overflow warning would fail this test
    code = run_cli(["solve", "--n", "2", "--p", "-1", "--c", "1",
                    "--stages", "600", "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] and report["stages"][-1]["eps"] == 0.1 * 2.0 ** -599


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


def test_no_lp_refuses_the_lps_imported_where_they_run(no_lp):
    from lpmink import geometry, measures

    square = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    with pytest.raises(AssertionError, match="an LP was called"):
        geometry.chebyshev_center(square, np.ones(4))
    with pytest.raises(AssertionError, match="an LP was called"):
        measures._positive_hull_lp(square)


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_loads_neither_superlu_nor_highs():
    # a fresh interpreter: SuperLU loads at the first n = 3 facet system
    # and HiGHS at the first LP, not with the CLI
    probe = ("import json, sys, lpmink.cli; print(json.dumps(["
             "m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.optimize')]))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_src_env(), check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False]


_LP_PROBE = """
import json, sys
from lpmink import cli
loaded = ["scipy.optimize" in sys.modules]
for argv in json.loads(sys.argv[1]):
    loaded.append((cli.main(argv), "scipy.optimize" in sys.modules))
print(json.dumps(loaded))
"""


def test_highs_loads_at_the_first_lp(tmp_path):
    # a fresh interpreter: importing the CLI, checking the default dipole
    # and solving the dipoles run no LP; criterion 07's symmetrize does
    arc = {"n": 2, "grid": {"resolution": 360, "symmetry": [
        [[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]]},
        "measure": {"density": "arc", "params": {"value": 1.3}}}
    runs = [("check", {"n": 2, "measure": {"density": "dipole"}}),
            ("solve", {"n": 2, "p": -1.0,
                       "measure": {"density": "dipole", "params": {"a": 0.4}}}),
            ("solve", {"n": 3, "p": 0.5,
                       "measure": {"density": "dipole", "params": {"a": 0.3}}}),
            ("symmetrize", arc)]
    argvs = []
    for i, (command, cfg) in enumerate(runs):
        path = tmp_path / ("cfg%d.json" % i)
        path.write_text(json.dumps(cfg))
        argvs.append([command, "--config", str(path),
                      "--output-dir", str(tmp_path / ("out%d" % i))])
    done = subprocess.run([sys.executable, "-c", _LP_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=_src_env(), check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [False, [0, False], [0, False], [0, False], [0, True]]


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


def test_identity_on_a_large_ball(tmp_path):
    # at p = -n f_p of a centered ball is constant, and its gradient 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 3, "p": -3, "ellipse": [5, 5, 5]}))
    assert run_cli(["identity", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_abs_deviation"] <= 1e-6


@pytest.mark.parametrize("params,name", [
    ({"width": 0}, "width"), ({"width": -0.5}, "width"),
    ({"center": [0, 0]}, "center"), ({"center": [float("nan"), 1]}, "center")])
def test_bad_bump_parameters_exit_1_with_one_error_line(tmp_path, capsys,
                                                        params, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 2, "measure": {
        "density": "bump", "params": params}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["check", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


@pytest.mark.parametrize("command,text,where", [
    ("identity", '{"n": 2, "p": -1, "ellipse": [Infinity, 1]}', '["ellipse"][0]'),
    ("check", '{"n": 2, "measure": {"atoms": [{"u": [Infinity, 0], "mass": 1}]}}',
     '["measure"]["atoms"][0]["u"][0]'),
    ("check", '{"n": 2, "measure": {"density": "bump", "params": {"base": NaN}}}',
     '["measure"]["params"]["base"]'),
    ("identity", '{"n": 2, "p": -Infinity}', '["p"]'),
    # a literal past the doubles, which Python reads as inf
    ("check", '{"n": 2, "measure": {"file": "measure.json"}}', '["atoms"][0]["mass"]'),
    ("verify", '{"n": 2, "p": 0.5, "body_file": "body.json"}', '["offsets"][1]'),
])
def test_non_finite_json_numbers_exit_1_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                            command, text, where):
    monkeypatch.chdir(tmp_path)
    Path("measure.json").write_text('{"atoms": [{"u": [1, 0], "mass": 1e999}]}')
    Path("body.json").write_text('{"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]], '
                                 '"offsets": [1, NaN, 1, 1]}')
    Path("cfg.json").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([command, "--config", "cfg.json", "--output-dir", "out"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("the number at %s is not finite\n" % where)
    assert not Path("out", "report.json").exists()


@pytest.mark.parametrize("ellipse", [[1e200, 1.0], [1e-200, 1.0], [1e-100, 1.0]])
def test_identity_of_a_body_past_the_doubles_exits_1_with_one_error_line(
        tmp_path, capsys, ellipse):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 2, "p": -1.0, "ellipse": ellipse,
                                    "grid": {"resolution": 64}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["identity", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


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


def test_symmetrize_builds_only_the_problem_grid(tmp_path, built_grids):
    # the toolbox benchmark's arc config: reading the support of the arc and
    # of mu0, and writing mu0, build no sub-grid
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "grid": {"resolution": 360, "symmetry": [
            [[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]]},
        "measure": {"density": "arc", "params": {"value": 1.3}}}))
    assert run_cli(["symmetrize", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    assert built_grids == [360]


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


def test_measure_files_hold_one_line_per_atom(tmp_path):
    # the atoms are written compactly, every other field as _dump_json
    # writes it; the file reads back as the smoothed measure
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 2, "m": 4, "grid": {"resolution": 64},
                                    "measure": {"atoms": _SQUARE_ATOMS}}))
    assert run_cli(["smooth", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "measure.json").read_text()
    data = json.loads(text)
    atoms = data.pop("atoms")
    lines = text.splitlines()
    assert lines[:2] == ["{", '  "atoms": [']
    assert [json.loads(line.strip().rstrip(",")) for line in lines[2:2 + len(atoms)]] == atoms
    assert "\n".join(lines[2 + len(atoms):]) == "  ],\n" + json.dumps(
        data, indent=2, sort_keys=True)[2:]


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
    assert report["newton_steps"] >= 1


def test_reports_are_byte_reproducible(tmp_path):
    # at n = 3 the N = 500 dipole's body.off is read off its ridge record
    dipole3 = tmp_path / "dipole3.json"
    dipole3.write_text(json.dumps({"n": 3, "p": 0.5, "grid": {"resolution": 500},
                                   "measure": {"density": "dipole", "params": {"a": 0.3}}}))
    cases = [(["--n", "2", "--p", "0.5", "--c", "2", "--resolution", "128"],
              ["report.json", "residuals.csv", "body.json"]),
             (["--config", str(dipole3)],
              ["report.json", "residuals.csv", "body.json", "body.off"])]
    for k, (args, files) in enumerate(cases):
        out1 = tmp_path / ("a%d" % k)
        out2 = tmp_path / ("b%d" % k)
        for out in (out1, out2):
            assert run_cli(["solve", *args, "--output-dir", str(out)]) == 0
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


#: the 4-node circle's nodes as atoms of unit mass
_SQUARE_ATOMS = [{"u": u, "mass": 1} for u in sphere.build_grid(2, 4).nodes.tolist()]


@pytest.mark.parametrize("field", ["u", "mass", "normals", "offsets"])
def test_numeric_strings_in_atoms_and_body_files_exit_1_with_one_error_line(
        tmp_path, capsys, monkeypatch, field):
    # every field is read by its JSON type: a string of digits is no number
    monkeypatch.chdir(tmp_path)
    atoms = [dict(atom) for atom in _SQUARE_ATOMS]
    body = {"normals": [atom["u"] for atom in atoms], "offsets": [1, 1, 1, 1]}
    if field in ("u", "mass"):
        atoms[0][field] = ["1", "0"] if field == "u" else "1.5"
        command = "check"
    else:
        body[field] = [[str(x) for x in row] for row in body["normals"]] \
            if field == "normals" else ["1", "1", "1", "1"]
        command = "verify"
    Path("body.json").write_text(json.dumps(body))
    Path("cfg.json").write_text(json.dumps({
        "n": 2, "p": 0.5, "body_file": "body.json", "grid": {"resolution": 4},
        "measure": {"atoms": atoms}}))
    assert run_cli([command, "--config", "cfg.json", "--output-dir", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not Path("out", "report.json").exists()
    # the same files with numbers run
    atoms[0] = dict(_SQUARE_ATOMS[0])
    Path("body.json").write_text(json.dumps({"normals": [a["u"] for a in atoms],
                                             "offsets": [1, 1, 1, 1]}))
    Path("cfg.json").write_text(json.dumps({
        "n": 2, "p": 0.5, "body_file": "body.json", "grid": {"resolution": 4},
        "measure": {"atoms": atoms}}))
    assert run_cli([command, "--config", "cfg.json", "--output-dir", "out"]) in (0, 2)


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


#: finite masses whose total overflows a double
_OVERFLOWING_ATOMS = [{"u": [1, 0], "mass": 1e308}, {"u": [-1, 0], "mass": 1e308},
                      {"u": [0, 1], "mass": 1.0}, {"u": [0, -1], "mass": 1.0}]


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
    ("check", {"n": 2, "measure": {"file": "five.json"}}),
    ("solve", {"n": 2, "p": 0.5, "measure": {"file": "null.json"}}),
    ("check", {"n": 2, "measure": {"file": "string.json"}}),
    ("solve", {"n": 2, "p": 0.5, "measure": {"file": "self.json"}}),
    ("check", {"n": 2, "measure": {"atoms": _OVERFLOWING_ATOMS}}),
    ("solve", {"n": 2, "p": 0.5, "measure": {"atoms": _OVERFLOWING_ATOMS}}),
    ("solve", {"n": 2, "p": 0.5, "grid": {"symmetry": [
        [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[1, 0], [0, -1]]]}}),
    ("identity", {"n": 2, "p": -1.0, "grid": {"symmetry": [
        [[1, 0], [0, 1]], [[0.5, 0], [0, 1]]]}}),
    ("solve", {"n": 2.7, "p": 0.5}),
    ("solve", {"n": 2, "p": 0.5, "grid": {"resolution": 64.9}}),
    ("solve", {"n": 2, "p": 0.5, "solver": {"stages": True}}),
    # C8 typed to 7 digits: a group only within GROUP_TOL
    ("check", {"n": 2, "grid": {"symmetry": [
        np.round([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], 7).tolist()
        for t in np.pi / 4 * np.arange(8)]}}),
    # values of another JSON type, which are not converted: the file "5"
    # holds a body that verifies
    ("verify", {"n": 2, "p": 0.5, "grid": {"resolution": 16}, "body_file": 5}),
    ("check", {"n": 2, "measure": {"density": ["dipole"]}}),
    ("solve", {"n": 2, "p": "0.5"}),
    ("solve", {"n": 2, "p": 0.5, "measure": {"density": "const", "params": {"c": True}}}),
    ("check", {"n": "2"}),
    ("identity", {"n": 2, "p": -1.0, "ellipse": [1.5, "1"]}),
    ("identity", {"n": 2, "p": -1.0, "center": [0.1, False]}),
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
    # measure files that hold no JSON object, or name a file themselves
    for name, data in [("five", 5), ("null", None), ("string", "atoms"),
                       ("self", {"file": "self.json"})]:
        Path(name + ".json").write_text(json.dumps(data))
    Path("5").write_text(json.dumps({"normals": _NODES16.tolist(), "offsets": [1.0] * 16}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": {"density": "const"}, **cfg}))
    assert run_cli(command.split() + ["--config", str(cfg_path),
                                      "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("output_dir", [5, None, [1], True])
def test_a_non_string_output_dir_exits_1_with_one_error_line(tmp_path, capsys,
                                                              monkeypatch, output_dir):
    # no --output-dir flag, which would override the field
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"n": 2, "output_dir": output_dir,
                                            "measure": {"density": "const"}}))
    assert run_cli(["check", "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err == "error: field 'output_dir' must be a string\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("output_dir", ["a-file", "a-file/sub"])
def test_an_output_dir_that_cannot_be_made_exits_1_with_one_error_line(
        tmp_path, capsys, monkeypatch, output_dir):
    # the path names a file, or runs through one
    monkeypatch.chdir(tmp_path)
    Path("a-file").write_text("")
    assert run_cli(["check", "--n", "2", "--c", "1", "--output-dir", output_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make output directory %s: " % output_dir)
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["a-file"]


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
