import json

import pytest

from lpmink import cli, solver
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


def test_solver_nonconvergence_exits_3(tmp_path):
    cfg = {
        "n": 2, "p": 0.5,
        "measure": {"density": "dipole", "params": {"a": 0.4}},
        "grid": {"resolution": 256},
        "solver": {"max_iter": 3, "stages": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["solve", "--config", str(cfg_path),
                    "--output-dir", str(tmp_path)])
    assert code == 3


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
