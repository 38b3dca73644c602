"""Outer variational loop for the Lp Minkowski problem.

Minimizes the regularized energy over volume-one Wulff shapes on the
measure's grid by projected gradient descent on the offset vector, with the
optimal center recomputed at every iterate. Stationarity is the discrete
Euler-Lagrange identity phi_eps'(h - <u, xi>) mu = lambda_eps S; the
continuation drives eps to zero and the final body is rescaled by the
multiplier to match the prescribed measure. A damped Newton finish on the
unregularized discrete equation h^(1-p) S = mu, tried at checkpoints of the
descent, replaces the rest of the continuation once it succeeds, and only
its success makes a solve converged. EL_TOL and EPS0 steer the descent
alone; the options a caller sets are SolveOptions' max_iter and stages.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from lpmink.energy import CenterError, build_profile, optimal_center
from lpmink.geometry import (GeometryError, WulffError, facet_jacobian,
                             lp_surface_area_measure, wulff_shape)
from lpmink.measures import HypothesisError, positive_hull_check

#: verify's residual_l1 at which the Newton finish stops and counts as
#: converged
FINISH_TOL = 1e-10
#: verify's residual_l1 up to which a finish whose Newton correction has
#: reached the rounding level of the log-supports counts as converged
FLOOR_TOL = 1e-8
#: finish attempts at decade checkpoints per solve (the end of every stage
#: is tried as well), Newton steps per attempt, and step halvings per line
#: search; they bound what a finish that keeps failing can cost
FINISH_ATTEMPTS = 4
FINISH_STEPS = 40
FINISH_HALVINGS = 30
#: support margin, relative to the mean, that makes every facet active
FINISH_MARGIN = 1e-2
#: diameter beyond which a descent iterate counts as diverged
MAX_DIAMETER = 60.0
#: a descent stage is stationary when max |r| <= EL_TOL lambda_eps
EL_TOL = 1e-6
#: the continuation's first eps; stage k runs at EPS0 * 2^-k
EPS0 = 0.1


class SolverError(RuntimeError):
    """Solver failure with diagnostic context."""

    def __init__(self, message, body=None):
        super().__init__(message)
        self.body = body


class LineSearchError(SolverError):
    """Backtracking step underflow; carries the last iterate."""


@dataclass
class SolveOptions:
    max_iter: int = 5000
    stages: int = 6


@dataclass
class StageRecord:
    """One continuation stage, or the Newton finish.

    A descent stage counts its accepted steps in ``iterations``. The
    finish's record comes last, with ``iterations`` 0, the Newton steps in
    ``newton_steps`` and the l1 residual it reached in ``residual_l1``; its
    Euler-Lagrange data (``residual`` None when the optimal center cannot
    be found) belong to the finished body, normalized to volume one, at
    the schedule's final eps.
    """

    eps: float
    iterations: int
    residual: float
    lambda_eps: float
    energy: float
    converged: bool
    newton_steps: int = None
    residual_l1: float = None

    def to_dict(self):
        data = {
            "eps": self.eps,
            "iterations": self.iterations,
            "residual": self.residual,
            "lambda_eps": self.lambda_eps,
            "energy": self.energy,
            "converged": self.converged,
        }
        if self.newton_steps is not None:
            data.update(newton_steps=self.newton_steps,
                        residual_l1=self.residual_l1)
        return data


@dataclass
class SolveReport:
    p: float
    stages: list = field(default_factory=list)
    newton_attempts: int = 0
    lambda0: float = np.nan
    lam: float = np.nan
    residual_l1: float = np.nan
    residual_linf: float = np.nan
    converged: bool = False

    def to_dict(self):
        return {
            "p": self.p,
            "stages": [s.to_dict() for s in self.stages],
            "newton_attempts": self.newton_attempts,
            "lambda0": self.lambda0,
            "lambda": self.lam,
            "residual_l1": self.residual_l1,
            "residual_linf": self.residual_linf,
            "converged": self.converged,
        }


def _check_alignment(body, measure):
    nodes = measure.grid.nodes
    if len(nodes) != len(body.normals) or not np.array_equal(nodes, body.normals):
        raise SolverError("body normals must be the measure's grid nodes, in order")


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


def evaluate_offsets(measure, profile, h, xi0=None, validate=True):
    """Build the volume-normalized Wulff shape at offsets h and score it.

    Returns (body, xi, energy, r, lambda_eps) where the body has volume one,
    xi is its optimal center, energy is Phi_eps(body, xi), and (r,
    lambda_eps) are the Euler-Lagrange data at the iterate.
    """
    grid = measure.grid
    raw = wulff_shape(grid.dim, grid.nodes, np.asarray(h, dtype=float),
                      validate=validate, interior_hint=xi0)
    body = raw.scaled(raw.volume ** (-1.0 / grid.dim))
    xi, _, _ = optimal_center(body, measure, profile, x0=xi0)
    t = body.support_values - body.normals @ xi
    energy = float(np.sum(profile.phi(t) * measure.masses))
    r, lambda_eps = el_residual(body, xi, measure, profile)
    return body, xi, energy, r, lambda_eps


def _multiplier_scale(lambda0, p, n):
    """The factor lambda that takes the volume-one limit body to M."""
    if p == 0:
        return lambda0 ** (1.0 / n)
    return (lambda0 / abs(p)) ** (1.0 / (n - p))


def _finish_state(measure, p, s, hint):
    """Body and F(s) = (1-p) s + log S(e^s) - log mu at log-support s.

    Returns None when wulff_shape raises, as for a non-finite h = e^s or
    a hint outside the shape, or a facet is inactive, where log S is
    undefined.
    """
    h = np.exp(s)
    try:
        body = wulff_shape(measure.dim, measure.grid.nodes, h, validate=False,
                           interior_hint=hint)
    except WulffError:
        return None
    if not np.all(body.facet_areas > 0):
        return None
    F = (1.0 - p) * s + np.log(body.facet_areas) - np.log(measure.masses)
    return body, F


def newton_finish(measure, p, h):
    """Damped Newton on the discrete Lp equation h^(1-p) S(h) = mu.

    The origin stays fixed and the unknowns are the log-supports s = log h,
    so F(s) = (1-p) s + log S(e^s) - log mu and

        J = (1-p) I + diag(1/S) (dS/dh) diag(h),

    with dS/dh from ``facet_jacobian``. ``h`` must be positive, so the
    origin is the interior hint of the start's Wulff shape. When
    wulff_shape refuses that hint, or some facet of the shape is inactive,
    every offset first gains FINISH_MARGIN times their mean, which adds a
    circumscribed polytope and makes every facet active. A step is halved
    until the mass-weighted merit sum_i mu_i F_i^2 or |F|^2 falls by the
    Armijo factor; the Newton direction descends both. Weighting by mass
    keeps facets of tiny mass but large log-residual, as where a smoothed
    density sits at its floor, from holding every step down; accepting a
    fall in |F|^2 as well keeps the n = 2 dipole at p = 0.99 well inside
    FINISH_STEPS. A trial point is rejected when a facet is inactive or
    its Wulff shape does not hold the current centroid, its interior hint;
    for a measure with a group the step is orbit-averaged. Stops when
    verify's residual_l1 is at most FINISH_TOL, or when the mass-weighted
    correction sqrt(sum_i mu_i ds_i^2 / total) is at most
    1e-13 max(1, max|s|), the rounding floor (at n = 2 it grows as
    N^2 eps); that stop succeeds when residual_l1 is at most FLOOR_TOL.

    Returns (body, steps, residual_l1) on success and None when the Wulff
    shape degenerates, the line search fails, FINISH_STEPS run out or the
    floor is reached above FLOOR_TOL.
    """
    h = np.asarray(h, dtype=float)
    total = measure.total_mass
    # one row per merit: sum mu_i F_i^2 and |F|^2
    weights = np.stack([measure.masses, np.ones(len(h))])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # a singular Jacobian surfaces as a non-finite step
        warnings.simplefilter("ignore", MatrixRankWarning)
        origin = np.zeros(measure.dim)
        s = np.log(h)
        state = _finish_state(measure, p, s, origin)
        if state is None:
            s = np.log(h + FINISH_MARGIN * float(np.mean(h)))
            state = _finish_state(measure, p, s, origin)
        if state is None:
            return None
        body, F = state
        t = 1.0
        for steps in range(FINISH_STEPS + 1):
            sp = lp_surface_area_measure(body, p)
            l1 = float(np.abs(sp - measure.masses).sum() / total)
            if l1 <= FINISH_TOL:
                return _checked(body, steps, l1)
            if steps == FINISH_STEPS:
                return None
            # J in place on facet_jacobian's canonical CSR, which stores
            # each diagonal entry once
            J = facet_jacobian(body)
            rows = np.repeat(np.arange(len(F)), np.diff(J.indptr))
            J.data *= (1.0 / body.facet_areas)[rows]
            J.data *= body.support_values[J.indices]
            J.data[J.indices == rows] += 1.0 - p
            ds = measure.orbit_average(spsolve(J, -F))
            if not np.all(np.isfinite(ds)):
                return None
            if (np.sqrt(measure.masses @ ds ** 2 / total)
                    <= 1e-13 * max(1.0, float(np.max(np.abs(s))))):
                # the correction is lost in the rounding of s, so no step
                # lowers l1 further
                return _checked(body, steps, l1) if l1 <= FLOOR_TOL else None
            merits = weights @ F ** 2
            t = min(1.0, 2.0 * t)
            for _ in range(FINISH_HALVINGS):
                trial = _finish_state(measure, p, s + t * ds, body.centroid)
                if trial is not None and np.any(
                        weights @ trial[1] ** 2 <= (1.0 - 1e-4 * t) * merits):
                    break
                t *= 0.5
            else:
                return None
            s = s + t * ds
            body, F = trial


def _checked(body, steps, l1):
    """newton_finish's result, or None when the body fails its invariants."""
    try:
        body._check_invariants()
    except GeometryError:
        return None
    return body, steps, l1


class _Finisher:
    """Newton-finish attempts of one solve, from rescaled descent iterates.

    Calling it with a volume-one iterate, its optimal center and its
    multiplier starts Newton at the multiplier-rescaled body centered
    there; the first success, newton_finish's (body, steps, residual_l1),
    is kept in ``result``, which ends the solve. Past FINISH_ATTEMPTS
    attempts only a stage's last iterate is tried.
    """

    def __init__(self, measure, p):
        self.measure, self.p = measure, p
        self.attempts = 0
        self.result = None

    def __call__(self, body, xi, lambda_eps, last):
        if self.attempts >= FINISH_ATTEMPTS and not last:
            return False
        self.attempts += 1
        lam = _multiplier_scale(lambda_eps, self.p, body.dim)
        self.result = newton_finish(self.measure, self.p,
                                    lam * (body.support_values - body.normals @ xi))
        return self.result is not None


def minimize_fixed_eps(measure, profile, opts=None, h0=None,
                       energy_trace=None, xi0=None, finish=None):
    """Projected gradient descent for the fixed-eps minimum body.

    At each iterate the offsets are renormalized to volume one, the optimal
    center and the Euler-Lagrange residual r are computed, and the step
    h <- h_support - eta * r is backtracked until the energy decreases.
    For a measure with an invariance group the step direction is r averaged
    over the group's orbits, so the iterates stay invariant.
    Step sizes follow a safeguarded Barzilai-Borwein rule; a trial step
    whose Wulff shape does not hold the current center (the interior hint)
    is halved. Terminates when max |r| <= EL_TOL * lambda_eps or after
    opts.max_iter iterations.

    Returns (body, xi, StageRecord). When ``energy_trace`` is a list it
    receives the energy of every accepted iterate, in order. ``xi0`` warm
    starts the first center computation (continuation stages reuse the
    previous stage's center); from the default unit offsets it defaults
    to the origin.

    ``finish(body, xi, lambda_eps, last) -> bool`` is called at
    checkpoints: the first iterate with max |r| <= 0.1 lambda_eps, the
    first of each later decade, and the stage's last iterate, where
    ``last`` is True. It must leave its arguments alone; when it returns
    True the stage stops at that iterate. The descent itself does not
    depend on it.
    """
    opts = opts or SolveOptions()
    finish = finish or (lambda body, xi, lambda_eps, last: False)
    if h0 is None:
        # every unit-offset plane is at distance 1 from the origin, which
        # makes the origin the interior hint
        h = np.ones(len(measure.grid))
        if xi0 is None:
            xi0 = np.zeros(measure.dim)
    else:
        h = np.asarray(h0, dtype=float).copy()

    body, xi, energy, r, lam = evaluate_offsets(measure, profile, h, xi0=xi0,
                                                validate=False)
    if energy_trace is not None:
        energy_trace.append(energy)
    h = body.support_values.copy()
    direction = measure.orbit_average(r)
    eta = 0.1 * max(np.max(np.abs(h)), 1.0) / max(np.max(np.abs(direction)), 1e-300)
    prev_h = None
    prev_dir = None

    def record(iters, res, converged):
        body._check_invariants()
        return body, xi, StageRecord(profile.eps, iters, res / lam, lam,
                                     energy, converged)

    checkpoint = 0.1
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        res = float(np.max(np.abs(r)))
        if res <= EL_TOL * lam:
            finish(body, xi, lam, True)
            return record(iterations - 1, res, True)
        if res <= checkpoint * lam:
            if finish(body, xi, lam, False):
                return record(iterations - 1, res, False)
            checkpoint = min(0.1 * checkpoint,
                             10.0 ** np.floor(np.log10(res / lam)))
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
            try:
                nbody, nxi, nenergy, nr, nlam = evaluate_offsets(
                    measure, profile, h - step * direction, xi0=xi,
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
        direction = measure.orbit_average(r)
        R = float(np.max(np.linalg.norm(body.vertices - body.centroid, axis=1)))
        if 2.0 * R > MAX_DIAMETER:
            raise SolverError("iterate diameter exceeded the guard %.1f"
                              % MAX_DIAMETER, body)

    res = float(np.max(np.abs(r)))
    finish(body, xi, lam, True)
    return record(iterations, res, False)


def solve(measure, p, opts=None):
    """Solve S_{M,p} = mu by eps-continuation and the multiplier rescale.

    Runs minimize_fixed_eps on the schedule eps_k = EPS0 * 2^-k with warm
    starts, extracts lambda0 from the final stage, and returns
    (M, SolveReport) with M = lambda * K0,

        lambda = (lambda0 / |p|)^(1/(n-p))   for p != 0,
        lambda = lambda0^(1/n)               for p = 0.

    A stage past the first that takes no descent step ends the schedule
    early: its warm start is already stationary at the smaller eps.

    ``newton_finish`` is tried at the descent's checkpoints, from the
    iterate rescaled this way about its optimal center: at most
    FINISH_ATTEMPTS times before a stage's end, and at the end of every
    stage. The first success ends the continuation: M is the finished
    body, the report's last stage is the finish's record and the solve
    counts as converged. Only that success does: the attempts leave the
    descent alone, so when all of them fail the result is the descent's,
    bit for bit, and the report says it did not converge, however
    stationary its stages.

    Everything runs on the measure restricted to its support
    (``measure.on_support()``): at a zero mass h^(1-p) S = mu holds with
    S = 0, a direction absent from the Wulff shape. M is still
    index-aligned with ``measure.grid``; at a zero-mass node its constraint
    is inactive, with facet area 0. So a density may vanish on part of the
    sphere, but a measure supported in a closed hemisphere raises
    HypothesisError before any descent: symmetrize it with
    ``symmetrize_hemisphere`` first. A subnormal p is solved as p = 0,
    which it equals in double precision. ValueError is raised unless
    stages >= 1 and max_iter >= 0; max_iter = 0 only tries the finish.
    """
    opts = opts or SolveOptions()
    n = measure.dim
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    if opts.stages < 1 or opts.max_iter < 0:
        raise ValueError("a solve needs stages >= 1 and max_iter >= 0")
    report = SolveReport(p=p)
    if abs(p) < np.finfo(float).tiny:
        # a subnormal p underflows |p| t^(p-1), while h^(1-p) rounds to h:
        # in double precision the problem is the p = 0 one
        p = 0.0
    sub, support = measure.on_support()
    hull = positive_hull_check(sub)
    if hull.L_dim < n or not hull.pos_equals_L:
        raise HypothesisError("the support lies in a closed hemisphere; "
                              "symmetrize the measure first (lpmink symmetrize)")

    finisher = _Finisher(sub, p)
    h = None
    body = None
    xi = None
    for k in range(opts.stages):
        eps_k = EPS0 * 2.0 ** (-k)
        profile = build_profile(p, n, eps_k)
        body, xi, record = minimize_fixed_eps(sub, profile, opts, h0=h,
                                              xi0=xi, finish=finisher)
        report.stages.append(record)
        if finisher.result is not None or (k > 0 and record.iterations == 0):
            break
        h = body.support_values.copy()

    if finisher.result is not None:
        M = finisher.result[0]
        lam = M.volume ** (1.0 / n)
        lambda0 = lam ** n if p == 0 else abs(p) * lam ** (n - p)
        eps_scheduled = EPS0 * 2.0 ** (-(opts.stages - 1))
        report.stages.append(_finish_record(finisher, M.scaled(1.0 / lam),
                                            sub, p, eps_scheduled))
    else:
        # the limit identity holds for the body recentered at its optimal
        # center
        lambda0 = report.stages[-1].lambda_eps
        lam = _multiplier_scale(lambda0, p, n)
        M = body.translated(-xi).scaled(lam)
    report.newton_attempts = finisher.attempts
    report.lambda0 = lambda0
    report.lam = float(lam)
    report.converged = finisher.result is not None

    if sub is not measure:
        M = M.embedded(measure.grid.nodes, support)
    res_l1, res_linf, _ = verify(M, measure, p)
    report.residual_l1 = res_l1
    report.residual_linf = res_linf
    return M, report


def _finish_record(finisher, body, measure, p, eps):
    """StageRecord of a successful finish; ``body`` is its volume-one body.

    The Euler-Lagrange data are recomputed at the optimal center for the
    profile at ``eps``; the record is stationary when max |r| <= EL_TOL
    lambda_eps, as for a descent stage.
    """
    profile = build_profile(p, body.dim, eps)
    try:
        # a support value far below eps overflows the barrier's derivatives
        with np.errstate(over="ignore", invalid="ignore"):
            xi, _, _ = optimal_center(body, measure, profile,
                                      x0=np.zeros(body.dim))
            r, lambda_eps = el_residual(body, xi, measure, profile)
        energy = float(np.sum(profile.phi(body.support_values - body.normals @ xi)
                              * measure.masses))
        residual = float(np.max(np.abs(r))) / lambda_eps
    except (CenterError, SolverError):
        residual = lambda_eps = energy = None
    return StageRecord(eps, 0, residual, lambda_eps, energy,
                       residual is not None and residual <= EL_TOL,
                       *finisher.result[1:])


def verify(M, measure, p):
    """Compare the Lp surface area measure of M with mu atom-by-atom.

    Returns (residual_l1, residual_linf, sp) with

        residual_l1  = sum_i |S_{M,p}(u_i) - mu_i| / mu(S^{n-1})
        residual_linf = max_i |S_{M,p}(u_i) - mu_i| / max_i mu_i

    and sp the (N,) array of S_{M,p} on the grid nodes. M's normals must be
    the grid's nodes, in order, as in every body ``solve`` returns; else
    SolverError is raised.
    """
    _check_alignment(M, measure)
    sp = lp_surface_area_measure(M, p)
    diff = sp - measure.masses
    total = measure.total_mass
    res_l1 = float(np.abs(diff).sum() / total)
    res_linf = float(np.abs(diff).max() / measure.masses.max())
    return res_l1, res_linf, sp
