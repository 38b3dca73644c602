"""Command-line entry point: config ingestion, pipelines, report emission.

Commands: solve, verify, identity, check, symmetrize, smooth. Configuration
comes from a single JSON file, where each setting has one place; flags
override config values. All
outputs (report.json, residuals.csv, body.json, body.off) are written to
the output directory and are byte-reproducible for identical configs.

Exit codes: 0 success, 1 malformed config, 2 hypothesis-check failure,
3 solver non-convergence.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from lpmink.energy import CenterError, ProfileError
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


def _const_density(params, n):
    c = _require(params, "c", float, 1.0)
    if c <= 0:
        raise ConfigError("const density requires c > 0")
    return lambda U: np.full(len(np.atleast_2d(U)), c)


def _dipole_density(params, n):
    a = _require(params, "a", float, 0.5)
    if not -1 < a < 1:
        raise ConfigError("dipole density requires |a| < 1")
    return lambda U: 1.0 + a * np.atleast_2d(U)[:, 0]


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


def _bump_density(params, n):
    """base + amplitude exp(-(angle to the direction center / width)^2)."""
    base = _require(params, "base", float, 1.0)
    amp = _require(params, "amplitude", float, 1.0)
    width = _require(params, "width", float, 0.5)
    center = _require(params, "center", _vector(n), [1.0] + [0.0] * (n - 1))
    if not width > 0:
        raise ConfigError("bump density requires width > 0")
    norm = np.linalg.norm(center)
    if not 0 < norm < np.inf:
        raise ConfigError("bump density requires a center of finite nonzero norm")
    center = center / norm

    def f(U):
        U = np.atleast_2d(U)
        ang = np.arccos(np.clip(U @ center, -1.0, 1.0))
        return base + amp * np.exp(-((ang / width) ** 2))

    return f


DENSITIES = {"const": _const_density, "dipole": _dipole_density,
             "arc": _arc_density, "bump": _bump_density}


def _read_json(path, what):
    """The JSON value in a config, measure or body file. Python's json reads
    NaN, Infinity and literals such as 1e999, none a JSON number: an error."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError("cannot read %s: %s" % (what, exc)) from exc
    todo = [((), data)]
    while todo:
        where, value = todo.pop()
        if type(value) is float and not math.isfinite(value):
            raise ConfigError("cannot read %s: the number at %s is not finite" % (
                what, "".join("[%s]" % json.dumps(key) for key in where) or "its root"))
        if type(value) in (dict, list):
            todo += [(where + (key,), child) for key, child in
                     (value.items() if type(value) is dict else enumerate(value))]
    return data


def _check_keys(obj, allowed, what):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown %s '%s' (have: %s)"
                              % (what, key, ", ".join(allowed)))


def _object(cfg, key):
    """cfg[key], which must be a JSON object; an empty one when absent."""
    obj = cfg.setdefault(key, {})
    if not isinstance(obj, dict):
        raise ConfigError("field '%s' must be a JSON object" % key)
    return obj


def load_config(args):
    cfg = {}
    if args.config:
        cfg = _read_json(args.config, "config")
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    # the fields some command reads
    _check_keys(cfg, ("n", "p", "m", "output_dir", "grid", "measure", "solver",
                      "body_file", "ellipse", "center"), "config field")
    for key in ("n", "p", "m", "output_dir"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for obj, key in (("grid", "resolution"), ("solver", "stages"),
                     ("solver", "max_iter")):
        if getattr(args, key) is not None:
            _object(cfg, obj)[key] = getattr(args, key)
    if args.c is not None:
        spec = cfg.setdefault("measure", {"density": "const"})
        if not isinstance(spec, dict) or spec.get("density") != "const":
            raise ConfigError("--c sets the value of the const density, "
                              "and the config's measure is another")
        _object(spec, "params")["c"] = args.c
    cfg["command"] = args.command
    return cfg


def _require(cfg, key, kind, default=None):
    """cfg[key], read by its JSON type; required unless a default is given.

    ``kind`` is str, float (a number; type() keeps true and false out), int
    (a whole number, so 64.0 is 64) or a ``_vector``.
    """
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError("missing config field '%s'" % key)
    try:
        if (kind is str and type(val) is not str
                or kind in (int, float) and type(val) not in (int, float)
                or kind is int and not float(val).is_integer()):
            raise ValueError("not a JSON %s" % kind.__name__)
        return kind(val)
    except (ValueError, OverflowError) as exc:
        raise ConfigError("field '%s' has the wrong type" % key) from exc


def _vector(n):
    """A ``_require`` kind: a list of n numbers, as a float array."""
    def kind(val):
        if type(val) is not list or len(val) != n or not all(
                type(x) in (int, float) for x in val):
            raise ValueError("expected a list of %d numbers" % n)
        return np.array(val, dtype=float)
    return kind


def _rows(n):
    """A ``_require`` kind: a nonempty list of ``_vector(n)``s, as an array."""
    def kind(val):
        if type(val) is not list or not val:
            raise ValueError("expected a nonempty list of lists")
        return np.array([_vector(n)(row) for row in val])
    return kind


def _grid_config(cfg):
    """The config's ``grid`` object; ``build_grid`` validates its symmetry."""
    grid_cfg = _object(cfg, "grid")
    _check_keys(grid_cfg, ("resolution", "symmetry"), "grid field")
    return grid_cfg


def build_problem_grid(cfg, n):
    if n not in DEFAULT_RESOLUTION:
        raise ConfigError("only dimensions 2 and 3 are supported")
    grid_cfg = _grid_config(cfg)
    resolution = _require(grid_cfg, "resolution", int, DEFAULT_RESOLUTION[n])
    return build_grid(n, resolution, symmetry=grid_cfg.get("symmetry"))


def _read_atoms(spec, n):
    """Unit directions and masses of the measure's inline ``atoms``, each
    field read by its JSON type."""
    atoms = spec["atoms"]
    try:
        if type(atoms) is not list or not all(type(atom) is dict for atom in atoms):
            raise ConfigError("not a list of objects")
        dirs = _rows(n)([atom.get("u") for atom in atoms])
        masses = np.array([_require(atom, "mass", float) for atom in atoms])
    except (ConfigError, ValueError, OverflowError) as exc:
        raise ConfigError("atoms must be a nonempty list of {\"u\": [%d numbers], "
                          "\"mass\": m}" % n) from exc
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise ConfigError("every atom needs a nonzero direction")
    return dirs / norms, masses


def build_problem_measure(cfg, grid):
    n = grid.dim
    if cfg.get("measure") is None:
        raise ConfigError("missing config field 'measure'")
    spec = _object(cfg, "measure")
    sources = [k for k in ("density", "atoms", "file") if k in spec]
    if len(sources) != 1:
        raise ConfigError("measure must have exactly one source "
                          "(density | atoms | file)")
    if "file" in spec:
        data = _read_json(spec["file"], "measure file")
        if not isinstance(data, dict) or "file" in data:
            raise ConfigError("a measure file must hold a JSON object "
                              "that names no other file")
        spec = {"atoms": data["atoms"]} if "atoms" in data else data
        return build_problem_measure({**cfg, "measure": spec}, grid)
    if "density" in spec:
        name = _require(spec, "density", str)
        if name not in DENSITIES:
            raise ConfigError("unknown density '%s' (have: %s)"
                              % (name, ", ".join(sorted(DENSITIES))))
        f = DENSITIES[name](_object(spec, "params"), n)
        return density_measure(f, grid)
    masses = np.zeros(len(grid))
    for u, mass in zip(*_read_atoms(spec, n)):
        idx = grid.nearest_node(u)
        if np.linalg.norm(grid.nodes[idx] - u) > 1e-8:
            raise ConfigError("atom direction %s is not a grid node" % u.tolist())
        masses[idx] += mass
    return SphericalMeasure(grid, masses)


def _dump_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dump_measure(path, measure):
    """measure.to_dict() as _dump_json writes it, but with one line per atom:
    json's indenting encoder is pure Python, slow on many thousand atoms."""
    data = measure.to_dict()
    atoms = json.dumps(data.pop("atoms"), sort_keys=True)[1:-1].replace("}, {", "},\n    {")
    text = json.dumps({**data, "atoms": None}, indent=2, sort_keys=True)
    path.write_text(text.replace('"atoms": null', '"atoms": [\n    %s\n  ]' % atoms) + "\n")


def _dump_residuals_csv(path, nodes, mu, sp):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "normal", "mu", "sp", "diff"])
        for i, (u, m, s) in enumerate(zip(nodes, mu, sp)):
            writer.writerow([i, " ".join("%.17g" % x for x in u),
                             "%.17g" % m, "%.17g" % s, "%.17g" % (s - m)])


def _solve_options(cfg):
    solver_cfg = _object(cfg, "solver")
    keys = [f.name for f in fields(SolveOptions)]
    _check_keys(solver_cfg, keys, "solver option")
    opts = SolveOptions()
    for key in keys:
        default = getattr(opts, key)
        setattr(opts, key, _require(solver_cfg, key, type(default), default))
    if opts.stages < 1 or opts.max_iter < 0:
        raise ConfigError("solver needs stages >= 1 and max_iter >= 0")
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
        _dump_json(outdir / "report.json", {"command": "solve", "error": str(exc)})
        if isinstance(exc, HypothesisError):
            sys.stderr.write("hypothesis check failed: %s\n" % exc)
            return EXIT_HYPOTHESIS
        return EXIT_NONCONVERGED
    _dump_json(outdir / "report.json",
               {**report.to_dict(), "command": "solve", "n": n})
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
    data = _read_json(_require(cfg, "body_file", str), "body file")
    try:
        if type(data) is not dict:
            raise ConfigError("not a JSON object")
        normals = _require(data, "normals", _rows(n))
        offsets = _require(data, "offsets", _vector(len(normals)))
    except ConfigError as exc:
        raise ConfigError("body file needs 'normals', a list of lists of %d numbers, "
                          "and 'offsets', a list of as many numbers" % n) from exc
    body = wulff_shape(n, normals, offsets)
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    res_l1, res_linf, sp = verify(body, measure, p)
    _dump_json(outdir / "report.json",
               {"command": "verify", "residual_l1": res_l1,
                "residual_linf": res_linf})
    _dump_residuals_csv(outdir / "residuals.csv", grid.nodes, measure.masses, sp)
    return EXIT_OK


def cmd_identity(cfg, outdir):
    n = _require(cfg, "n", int)
    p = _require(cfg, "p", float)
    if not (-n <= p < 1) or p == 0:
        raise ConfigError("identity requires p in [-n, 1), p != 0")
    semiaxes = _require(cfg, "ellipse", _vector(n), [1.0] * n)
    center = _require(cfg, "center", _vector(n), [0.0] * n)
    _grid_config(cfg).setdefault("resolution", 720 if n == 2 else 2000)
    grid = build_problem_grid(cfg, n)
    body = ellipsoid_model(semiaxes, center=center)
    M, target, dev = fp_identity_matrix(body, p, grid)
    _dump_json(outdir / "report.json", {
        "command": "identity", "n": n, "p": p,
        "semiaxes": list(map(float, semiaxes)),
        "volume": body.volume,
        "matrix": M.tolist(), "target": target.tolist(),
        "deviation": dev.tolist(),
        "max_abs_deviation": float(np.abs(dev).max()),
    })
    return EXIT_OK


def cmd_check(cfg, outdir):
    n = _require(cfg, "n", int)
    grid = build_problem_grid(cfg, n)
    measure = build_problem_measure(cfg, grid)
    hull = positive_hull_check(measure)
    subspace = subspace_concentration_check(measure)
    _dump_json(outdir / "report.json", {"command": "check",
                                        "positive_hull": asdict(hull),
                                        "subspace_concentration": asdict(subspace)})
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
    })
    _dump_measure(outdir / "measure0.json", mu0)
    return EXIT_OK


def cmd_smooth(cfg, outdir):
    n = _require(cfg, "n", int)
    m = _require(cfg, "m", int, 8)
    grid = build_problem_grid(cfg, n)
    spec = _object(cfg, "measure")
    if "atoms" not in spec:
        raise ConfigError("smooth requires an inline atomic measure")
    dirs, masses = _read_atoms(spec, n)
    group = _grid_config(cfg).get("symmetry")
    smoothed = smooth_discrete(dirs, masses, grid, group=group, m=m)
    _dump_json(outdir / "report.json", {
        "command": "smooth", "m": m,
        "total_mass": smoothed.total_mass,
        "density_bounds": list(smoothed.density_bounds),
    })
    _dump_measure(outdir / "measure.json", smoothed)
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
    parser.add_argument("--stages", type=int, default=None)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
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
        outdir = cfg.get("output_dir", ".")
        if not isinstance(outdir, str):
            raise ConfigError("field 'output_dir' must be a string")
        try:
            Path(outdir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot make output directory %s: %s" % (outdir, exc)) from exc
        return COMMANDS[args.command](cfg, Path(outdir))
    except (ConfigError, GridError, MeasureError, GeometryError,
            IdentityError, ProfileError, SolverError) as exc:
        if isinstance(exc, HypothesisError):
            sys.stderr.write("hypothesis check failed: %s\n" % exc)
            return EXIT_HYPOTHESIS
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
