"""Outer variational loop for the Lp Minkowski problem.

Minimizes the regularized energy over volume-one Wulff shapes on the
measure's grid by projected gradient descent on the offset vector, with the
optimal center recomputed at every iterate. Stationarity is the discrete
Euler-Lagrange identity phi_eps'(h - <u, xi>) mu = lambda_eps S; the
continuation drives eps to zero and the final body is rescaled by the
multiplier to match the prescribed measure.
"""

from dataclasses import dataclass, field

import numpy as np

from lpmink.energy import CenterError, build_profile, optimal_center
from lpmink.geometry import WulffError, lp_surface_area_measure, wulff_shape


class SolverError(RuntimeError):
    """Solver failure with diagnostic context."""

    def __init__(self, message, body=None):
        super().__init__(message)
        self.body = body


class LineSearchError(SolverError):
    """Backtracking step underflow; carries the last iterate."""


class DivergenceError(SolverError):
    """Residuals failed to decrease across continuation stages."""


@dataclass
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 5000
    eps0: float = 0.1
    stages: int = 6
    body_tol: float = 1e-5
    touch_threshold: float = None
    max_diameter: float = 60.0
    center_tol: float = 1e-10


@dataclass
class StageRecord:
    eps: float
    iterations: int
    residual: float
    lambda_eps: float
    energy: float
    converged: bool

    def to_dict(self):
        return {
            "eps": self.eps,
            "iterations": self.iterations,
            "residual": self.residual,
            "lambda_eps": self.lambda_eps,
            "energy": self.energy,
            "converged": self.converged,
        }


@dataclass
class SolveReport:
    p: float
    stages: list = field(default_factory=list)
    lambda0: float = np.nan
    lam: float = np.nan
    touch_mass: float = 0.0
    residual_l1: float = np.nan
    residual_linf: float = np.nan
    converged: bool = False

    def to_dict(self):
        return {
            "p": self.p,
            "stages": [s.to_dict() for s in self.stages],
            "lambda0": self.lambda0,
            "lambda": self.lam,
            "touch_mass": self.touch_mass,
            "residual_l1": self.residual_l1,
            "residual_linf": self.residual_linf,
            "converged": self.converged,
        }


def _check_alignment(body, measure):
    nodes = measure.grid.nodes
    if len(nodes) != len(body.normals) or not np.array_equal(nodes, body.normals):
        raise SolverError("measure grid and body normals must be index-aligned")


def el_residual(body, xi, measure, profile):
    """Euler-Lagrange residuals and the multiplier lambda_eps.

    For a volume-one body with interior center xi,

        lambda_eps = (1/n) sum_a t_a phi_eps'(t_a) mu_a,   t_a = h_a - <u_a, xi>
        r_a = phi_eps'(t_a) mu_a - lambda_eps S_a.

    The residual vector is the a.e. gradient of the normalized energy in the
    offsets, and vanishes exactly at the constrained minimizer.
    """
    _check_alignment(body, measure)
    if abs(body.volume - 1.0) > 1e-8:
        raise SolverError("el_residual requires a volume-one body")
    xi = np.asarray(xi, dtype=float)
    t = body.support_values - body.normals @ xi
    if np.min(t) <= 0:
        raise SolverError("xi must be strictly interior to the body")
    w = profile.dphi(t) * measure.masses
    lambda_eps = float(np.sum(t * w) / body.dim)
    r = w - lambda_eps * body.facet_areas
    return r, lambda_eps


def evaluate_offsets(measure, profile, h, center_tol=1e-10, xi0=None,
                     validate=True):
    """Build the volume-normalized Wulff shape at offsets h and score it.

    Returns (body, xi, energy, r, lambda_eps) where the body has volume one,
    xi is its optimal center, energy is Phi_eps(body, xi), and (r,
    lambda_eps) are the Euler-Lagrange data at the iterate.
    """
    grid = measure.grid
    raw = wulff_shape(grid.dim, grid.nodes, np.asarray(h, dtype=float),
                      validate=validate, interior_hint=xi0)
    body = raw.scaled(raw.volume ** (-1.0 / grid.dim))
    xi, _, _ = optimal_center(body, measure, profile, tol=center_tol, x0=xi0)
    t = body.support_values - body.normals @ xi
    energy = float(np.sum(profile.phi(t) * measure.masses))
    r, lambda_eps = el_residual(body, xi, measure, profile)
    return body, xi, energy, r, lambda_eps


def minimize_fixed_eps(measure, profile, grid, opts=None, h0=None,
                       group_average=False, energy_trace=None, xi0=None):
    """Projected gradient descent for the fixed-eps minimum body.

    At each iterate the offsets are renormalized to volume one, the optimal
    center and the Euler-Lagrange residual r are computed, and the step
    h <- h_support - eta * r is backtracked until the energy decreases.
    Step sizes follow a safeguarded Barzilai-Borwein rule. Terminates when
    max |r| <= opts.tol * lambda_eps or after opts.max_iter iterations.

    Returns (body, xi, StageRecord). When ``energy_trace`` is a list it
    receives the energy of every accepted iterate, in order. ``xi0`` warm
    starts the first center computation (continuation stages reuse the
    previous stage's center).
    """
    opts = opts or SolveOptions()
    if grid is not measure.grid:
        raise SolverError("the solver grid must be the measure's support grid")
    h = np.ones(len(grid)) if h0 is None else np.asarray(h0, dtype=float).copy()

    body, xi, energy, r, lam = evaluate_offsets(measure, profile, h,
                                                opts.center_tol, xi0=xi0,
                                                validate=False)
    if energy_trace is not None:
        energy_trace.append(energy)
    h = body.support_values.copy()
    direction = grid.orbit_average(r) if group_average else r
    eta = 0.1 * max(np.max(np.abs(h)), 1.0) / max(np.max(np.abs(direction)), 1e-300)
    prev_h = None
    prev_dir = None

    def finish(iters, res, converged):
        body._check_invariants()
        return body, xi, StageRecord(profile.eps, iters, res / lam, lam,
                                     energy, converged)

    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        res = float(np.max(np.abs(r)))
        if res <= opts.tol * lam:
            return finish(iterations - 1, res, True)
        if prev_h is not None:
            dh = h - prev_h
            dg = direction - prev_dir
            num = float(dh @ dh) if iterations % 2 else float(dh @ dg)
            den = float(dh @ dg) if iterations % 2 else float(dg @ dg)
            if den > 0 and num > 0:
                eta = num / den
            eta = float(np.clip(eta, 1e-12, 1e6))
        prev_h, prev_dir = h.copy(), direction.copy()

        accepted = False
        step = eta
        dir_norm2 = float(direction @ direction)
        for _ in range(60):
            cand = h - step * direction
            try:
                nbody, nxi, nenergy, nr, nlam = evaluate_offsets(
                    measure, profile, cand, opts.center_tol, xi0=xi,
                    validate=False)
            except (WulffError, SolverError, CenterError):
                step *= 0.5
                continue
            if nenergy <= energy - 1e-4 * step * dir_norm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise LineSearchError("line search underflow at iteration %d "
                                  "(residual %.3e)" % (iterations, res), body)
        body, xi, energy, r, lam = nbody, nxi, nenergy, nr, nlam
        if energy_trace is not None:
            energy_trace.append(energy)
        h = body.support_values.copy()
        direction = grid.orbit_average(r) if group_average else r
        R = float(np.max(np.linalg.norm(body.vertices - body.centroid, axis=1)))
        if 2.0 * R > opts.max_diameter:
            raise SolverError("iterate diameter exceeded the guard %.1f"
                              % opts.max_diameter, body)

    res = float(np.max(np.abs(r)))
    return finish(iterations, res, False)


def solve(measure, p, opts=None):
    """Solve S_{M,p} = mu by eps-continuation and the multiplier rescale.

    Runs minimize_fixed_eps on the schedule eps_k = eps0 * 2^-k with warm
    starts, extracts lambda0 from the final stage, and returns
    (M, SolveReport) with M = lambda * K0,

        lambda = (lambda0 / |p|)^(1/(n-p))   for p != 0,
        lambda = lambda0^(1/n)               for p = 0.

    The supported regime is a discrete density bounded between positive
    constants; measures with vanishing or unbounded density should first go
    through smoothing or symmetrization, though the descent is attempted
    for any nontrivial measure.
    """
    opts = opts or SolveOptions()
    n = measure.dim
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    grid = measure.grid
    # invariant descent needs the grid's node permutations; without them
    # (grid not built with the symmetry) fall back to plain descent
    group_average = bool(measure.group) and grid.permutations is not None

    report = SolveReport(p=p)
    h = None
    body = None
    xi = None
    prev_support = None
    for k in range(opts.stages):
        eps_k = opts.eps0 * 2.0 ** (-k)
        profile = build_profile(p, n, eps_k)
        body, xi, record = minimize_fixed_eps(
            measure, profile, grid, opts, h0=h, group_average=group_average,
            xi0=xi)
        report.stages.append(record)
        h = body.support_values.copy()
        if len(report.stages) >= 2:
            prev = report.stages[-2]
            if (not record.converged and not prev.converged
                    and record.residual >= prev.residual):
                raise DivergenceError(
                    "stage residual failed to decrease: %.3e -> %.3e"
                    % (prev.residual, record.residual), body)
        if prev_support is not None and \
                float(np.max(np.abs(h - prev_support))) < opts.body_tol:
            break
        prev_support = h.copy()

    # the limit identity holds for the body recentered at its optimal center
    centered = body.translated(-xi)
    # touch detection is calibrated to the scheduled final eps even when the
    # continuation stopped early on body_tol
    eps_scheduled = opts.eps0 * 2.0 ** (-(opts.stages - 1))
    touch_threshold = (10.0 * eps_scheduled if opts.touch_threshold is None
                       else opts.touch_threshold)
    touching = centered.support_values < touch_threshold
    report.touch_mass = float(measure.masses[touching].sum())

    lambda0 = report.stages[-1].lambda_eps
    report.lambda0 = lambda0
    if p == 0:
        lam = lambda0 ** (1.0 / n)
    else:
        lam = (lambda0 / abs(p)) ** (1.0 / (n - p))
    report.lam = float(lam)
    M = centered.scaled(lam)
    report.converged = all(s.converged for s in report.stages)

    res_l1, res_linf, _ = verify(M, measure, p)
    report.residual_l1 = res_l1
    report.residual_linf = res_linf
    return M, report


def verify(M, measure, p):
    """Compare the Lp surface area measure of M with mu atom-by-atom.

    Returns (residual_l1, residual_linf, sp) with

        residual_l1  = sum_i |S_{M,p}(u_i) - mu_i| / mu(S^{n-1})
        residual_linf = max_i |S_{M,p}(u_i) - mu_i| / max_i mu_i

    and sp the (N,) array of S_{M,p} on the grid nodes. Bodies whose normals
    are not index-aligned with the grid are matched to nearest grid nodes.
    """
    nodes = measure.grid.nodes
    masses_body = lp_surface_area_measure(M, p)
    if len(M.normals) == len(nodes) and np.array_equal(M.normals, nodes):
        sp = masses_body
    else:
        sp = np.zeros(len(nodes))
        d, idx = measure.grid._tree.query(M.normals)
        if np.any(masses_body[d > 1e-8] > 1e-12 * max(masses_body.max(), 1e-300)):
            raise SolverError("body carries Lp mass off the measure grid")
        np.add.at(sp, idx[d <= 1e-8], masses_body[d <= 1e-8])
    diff = sp - measure.masses
    total = measure.total_mass
    res_l1 = float(np.abs(diff).sum() / total)
    res_linf = float(np.abs(diff).max() / measure.masses.max())
    return res_l1, res_linf, sp
