"""Command-line entry point: config ingestion, pipelines, report emission.

Commands: solve, verify, identity, check, symmetrize, smooth. Configuration
comes from a single JSON file; scalar flags override config values. All
outputs (report.json, residuals.csv, body.json, body.off) are written to
the output directory and are byte-reproducible for identical configs.

Exit codes: 0 success, 1 malformed config, 2 hypothesis-check failure,
3 solver non-convergence.
"""

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from lpmink.energy import CenterError
from lpmink.geometry import (GeometryError, body_to_off, lp_surface_area_measure,
                             wulff_shape)
from lpmink.identities import IdentityError, ellipsoid_model, fp_identity_matrix
from lpmink.measures import (HypothesisError, MeasureError, SphericalMeasure,
                             density_measure, positive_hull_check, smooth_discrete,
                             subspace_concentration_check, symmetrize_hemisphere)
from lpmink.solver import SolveOptions, SolverError, solve, verify
from lpmink.sphere import DEFAULT_RESOLUTION, GridError, build_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGED = 3


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


DENSITIES = {}


def _density(name):
    def wrap(fn):
        DENSITIES[name] = fn
        return fn
    return wrap


@_density("const")
def _const_density(params, n):
    c = _require(params, "c", float, 1.0)
    if c <= 0:
        raise ConfigError("const density requires c > 0")
    return lambda U: np.full(len(np.atleast_2d(U)), c)


@_density("dipole")
def _dipole_density(params, n):
    a = _require(params, "a", float, 0.5)
    if not -1 < a < 1:
        raise ConfigError("dipole density requires |a| < 1")
    return lambda U: 1.0 + a * np.atleast_2d(U)[:, 0]


@_density("arc")
def _arc_density(params, n):
    if n != 2:
        raise ConfigError("arc density is only defined for n = 2")
    lo = _require(params, "theta_min", float, -np.pi / 4)
    hi = _require(params, "theta_max", float, np.pi / 4)
    value = _require(params, "value", float, 1.0)

    def f(U):
        U = np.atleast_2d(U)
        ang = np.arctan2(U[:, 1], U[:, 0])
        return np.where((ang >= lo - 1e-12) & (ang <= hi + 1e-12), value, 0.0)

    return f


@_density("bump")
def _bump_density(params, n):
    base = _require(params, "base", float, 1.0)
    amp = _require(params, "amplitude", float, 1.0)
    width = _require(params, "width", float, 0.5)
    center = np.asarray(params.get("center", [1.0] + [0.0] * (n - 1)), dtype=float)
    center = center / np.linalg.norm(center)

    def f(U):
        U = np.atleast_2d(U)
        ang = np.arccos(np.clip(U @ center, -1.0, 1.0))
        return base + amp * np.exp(-((ang / width) ** 2))

    return f


def _read_json(path, what):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError("cannot read %s: %s" % (what, exc)) from exc


def _check_keys(obj, allowed, what):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown %s '%s' (have: %s)"
                              % (what, key, ", ".join(allowed)))


def load_config(args):
    cfg = {}
    if args.config:
        cfg = _read_json(args.config, "config")
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    # the fields some command reads; the solver options may sit at the root
    _check_keys(cfg, ("n", "p", "m", "seed", "output_dir", "resolution")
                + tuple(f.name for f in fields(SolveOptions))
                + ("grid", "measure", "solver", "body_file", "ellipse", "center"),
                "config field")
    for key in ("n", "p", "resolution", "tol", "eps0", "stages", "max_iter",
                "seed", "m", "c", "output_dir"):
        val = getattr(args, key, None)
        if val is not None:
            if key == "c":
                spec = cfg.setdefault("measure", {"density": "const"})
                if not isinstance(spec, dict) or spec.get("density") != "const":
                    raise ConfigError("--c sets the value of the const density, "
                                      "and the config's measure is another")
                spec.setdefault("params", {})["c"] = val
            else:
                cfg[key] = val
    cfg["command"] = args.command
    return cfg


def _require(cfg, key, kind=None, default=None):
    """cfg[key], converted by ``kind``; required unless a default is given."""
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError("missing config field '%s'" % key)
    try:
        return val if kind is None else kind(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError("field '%s' has the wrong type" % key) from exc


def _grid_config(cfg):
    """The config's ``grid`` object; ``build_grid`` validates its symmetry."""
    grid_cfg = cfg.get("grid", {})
    if not isinstance(grid_cfg, dict):
        raise ConfigError("field 'grid' must be a JSON object")
    _check_keys(grid_cfg, ("resolution", "symmetry"), "grid field")
    return grid_cfg


def build_problem_grid(cfg, n):
    if n not in DEFAULT_RESOLUTION:
        raise ConfigError("only dimensions 2 and 3 are supported")
    grid_cfg = _grid_config(cfg)
    resolution = _require(cfg, "resolution", int,
                          grid_cfg.get("resolution", DEFAULT_RESOLUTION[n]))
    return build_grid(n, resolution, symmetry=grid_cfg.get("symmetry"))


def build_problem_measure(cfg, grid):
    n = grid.dim
    spec = cfg.get("measure")
    if spec is None:
        raise ConfigError("missing config field 'measure'")
    sources = [k for k in ("density", "atoms", "file") if k in spec]
    if len(sources) != 1:
        raise ConfigError("measure must have exactly one source "
                          "(density | atoms | file)")
    if "file" in spec:
        data = _read_json(spec["file"], "measure file")
        spec = {"atoms": data["atoms"]} if "atoms" in data else data
        return build_problem_measure({**cfg, "measure": spec}, grid)
    if "density" in spec:
        name = spec["density"]
        if name not in DENSITIES:
            raise ConfigError("unknown density '%s' (have: %s)"
                              % (name, ", ".join(sorted(DENSITIES))))
        f = DENSITIES[name](spec.get("params", {}), n)
        return density_measure(f, grid)
    masses = np.zeros(len(grid))
    for atom in spec["atoms"]:
        u = np.asarray(atom["u"], dtype=float)
        if len(u) != n:
            raise ConfigError("atom direction has wrong dimension")
        u = u / np.linalg.norm(u)
        idx = grid.nearest_node(u)
        if np.linalg.norm(grid.nodes[idx] - u) > 1e-8:
            raise ConfigError("atom direction %s is not a grid node" % atom["u"])
        masses[idx] += float(atom["mass"])
    return SphericalMeasure(grid, masses)


def _dump_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dump_residuals_csv(path, nodes, mu, sp):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "normal", "mu", "sp", "diff"])
        for i, (u, m, s) in enumerate(zip(nodes, mu, sp)):
            writer.writerow([i, " ".join("%.17g" % x for x in u),
                             "%.17g" % m, "%.17g" % s, "%.17g" % (s - m)])


def _solve_options(cfg):
    solver_cfg = cfg.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("field 'solver' must be a JSON object")
    keys = [f.name for f in fields(SolveOptions)]
    _check_keys(solver_cfg, keys, "solver option")
    opts = SolveOptions()
    for key in keys:
        default = getattr(opts, key)
        setattr(opts, key, _require(cfg, key, type(default),
                                    solver_cfg.get(key, default)))
    return opts


def cmd_solve(cfg, outdir):
    n = _require(cfg, "n", int)
    p = _require(cfg, "p", float)
    if not (-n < p < 1):
        raise ConfigError("solve requires p in (-n, 1)")
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    opts = _solve_options(cfg)
    try:
        M, report = solve(measure, p, opts)
    except (HypothesisError, SolverError, CenterError) as exc:
        _dump_json(outdir / "report.json",
                   {"command": "solve", "error": str(exc), "seed": cfg.get("seed", 0)})
        if isinstance(exc, HypothesisError):
            sys.stderr.write("hypothesis check failed: %s\n" % exc)
            return EXIT_HYPOTHESIS
        return EXIT_NONCONVERGED
    payload = report.to_dict()
    payload.update({"command": "solve", "n": n, "seed": cfg.get("seed", 0)})
    _dump_json(outdir / "report.json", payload)
    # solve() verified M, which is index-aligned with the grid
    _dump_residuals_csv(outdir / "residuals.csv", grid.nodes, measure.masses,
                        lp_surface_area_measure(M, p))
    _dump_json(outdir / "body.json", M.to_dict())
    if n == 3:
        (outdir / "body.off").write_text(body_to_off(M))
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_verify(cfg, outdir):
    n = _require(cfg, "n", int)
    p = _require(cfg, "p", float)
    if not (-n < p < 1):
        raise ConfigError("verify requires p in (-n, 1)")
    body_file = _require(cfg, "body_file", str)
    data = _read_json(body_file, "body file")
    body = wulff_shape(n, np.asarray(data["normals"], dtype=float),
                       np.asarray(data["offsets"], dtype=float))
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    res_l1, res_linf, sp = verify(body, measure, p)
    _dump_json(outdir / "report.json",
               {"command": "verify", "residual_l1": res_l1,
                "residual_linf": res_linf, "seed": cfg.get("seed", 0)})
    _dump_residuals_csv(outdir / "residuals.csv", grid.nodes, measure.masses, sp)
    return EXIT_OK


def cmd_identity(cfg, outdir):
    n = _require(cfg, "n", int)
    p = _require(cfg, "p", float)
    if not (-n <= p < 1) or p == 0:
        raise ConfigError("identity requires p in [-n, 1), p != 0")
    semiaxes = cfg.get("ellipse", [1.0] * n)
    if len(semiaxes) != n:
        raise ConfigError("ellipse must list %d semiaxes" % n)
    center = cfg.get("center")
    resolution = _require(cfg, "resolution", int, 720 if n == 2 else 2000)
    grid = build_grid(n, resolution)
    body = ellipsoid_model(semiaxes, center=center)
    M, target, dev = fp_identity_matrix(body, p, grid)
    _dump_json(outdir / "report.json", {
        "command": "identity", "n": n, "p": p,
        "semiaxes": list(map(float, semiaxes)),
        "volume": body.volume,
        "matrix": M.tolist(), "target": target.tolist(),
        "deviation": dev.tolist(),
        "max_abs_deviation": float(np.abs(dev).max()),
        "seed": cfg.get("seed", 0),
    })
    return EXIT_OK


def cmd_check(cfg, outdir):
    n = _require(cfg, "n", int)
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    hull = positive_hull_check(measure)
    subspace = subspace_concentration_check(measure)
    payload = {
        "command": "check",
        "positive_hull": {
            "passes": bool(hull.passes), "L_dim": int(hull.L_dim),
            "pos_equals_L": bool(hull.pos_equals_L),
            "antipodal_pair": bool(hull.antipodal_pair),
            "detail": hull.detail,
        },
        "subspace_concentration": {
            "satisfied": bool(subspace.satisfied),
            "worst_ratio": float(subspace.worst_ratio),
            "witnesses": [
                {"dim": w.dim, "ratio": w.ratio, "equality": w.equality,
                 "complement_exists": w.complement_exists,
                 "atom_indices": w.atom_indices}
                for w in subspace.witnesses
            ],
        },
        "seed": cfg.get("seed", 0),
    }
    _dump_json(outdir / "report.json", payload)
    if not hull.passes or not subspace.satisfied:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_symmetrize(cfg, outdir):
    n = _require(cfg, "n", int)
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    mu0, simplex, A, cone = symmetrize_hemisphere(measure)
    _dump_json(outdir / "report.json", {
        "command": "symmetrize",
        "simplex": simplex.tolist(),
        "rotation": A.tolist(),
        "cone_normals": cone.tolist(),
        "mu0_total_mass": mu0.total_mass,
        "seed": cfg.get("seed", 0),
    })
    _dump_json(outdir / "measure0.json", mu0.to_dict())
    return EXIT_OK


def cmd_smooth(cfg, outdir):
    n = _require(cfg, "n", int)
    m = _require(cfg, "m", int, 8)
    grid = build_problem_grid(cfg, n)
    spec = cfg.get("measure", {})
    if "atoms" not in spec:
        raise ConfigError("smooth requires an inline atomic measure")
    dirs = np.array([a["u"] for a in spec["atoms"]], dtype=float)
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    masses = np.array([a["mass"] for a in spec["atoms"]], dtype=float)
    group = _grid_config(cfg).get("symmetry")
    smoothed = smooth_discrete(dirs, masses, grid, group=group, m=m)
    _dump_json(outdir / "report.json", {
        "command": "smooth", "m": m,
        "total_mass": smoothed.total_mass,
        "density_bounds": list(smoothed.density_bounds),
        "seed": cfg.get("seed", 0),
    })
    _dump_json(outdir / "measure.json", smoothed.to_dict())
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "identity": cmd_identity,
    "check": cmd_check,
    "symmetrize": cmd_symmetrize,
    "smooth": cmd_smooth,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="lpmink",
        description="Lp Minkowski problem solver and measure toolbox")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON problem configuration")
    parser.add_argument("--output-dir", dest="output_dir", default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--c", type=float, default=None,
                        help="constant density value (shorthand measure)")
    parser.add_argument("--resolution", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--eps0", type=float, default=None)
    parser.add_argument("--stages", type=int, default=None)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as malformed config
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = load_config(args)
        outdir = Path(cfg.get("output_dir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, outdir)
    except (ConfigError, GridError, MeasureError, GeometryError,
            IdentityError) as exc:
        if isinstance(exc, HypothesisError):
            sys.stderr.write("hypothesis check failed: %s\n" % exc)
            return EXIT_HYPOTHESIS
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
