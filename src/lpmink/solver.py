"""Outer variational loop for the Lp Minkowski problem.

Minimizes the regularized energy over volume-one Wulff shapes on the
measure's grid by a projected descent on the offset vector, with the
optimal center recomputed at every iterate. Each step tries a Newton
direction of the volume-constrained energy, preconditioned by the facet
Jacobian, next to a Barzilai-Borwein gradient step, and takes the Newton
trial where it does at least as well. Stationarity is the discrete
Euler-Lagrange identity phi_eps'(h - <u, xi>) mu = lambda_eps S; the
continuation drives eps to zero and the final body is rescaled by the
multiplier to match the prescribed measure. A damped Newton finish on the
unregularized discrete equation h^(1-p) S = mu, tried at every checkpoint
of the descent, replaces the rest of the continuation once it succeeds, and
only its success makes a solve converged. An n = 3 descent starts from its
grid's unit_offset_body. EL_TOL and EPS0 steer the descent alone; the
options a caller sets are SolveOptions' max_iter and stages.
"""

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from lpmink.energy import CenterError, build_profile, optimal_center
from lpmink.geometry import (GeometryError, WulffError, lp_surface_area_measure,
                             polygon_all_active, polytope_same_type,
                             solve_facet_system, wulff_shape)
from lpmink.measures import HypothesisError, positive_hull_check

#: verify's residual_l1 at which the Newton finish stops and counts as
#: converged
FINISH_TOL = 1e-10
#: verify's residual_l1 up to which a finish whose Newton correction has
#: reached the rounding level of the log-supports counts as converged
FLOOR_TOL = 1e-8
#: Newton steps per finish attempt and step halvings per line search; they
#: bound what one failing attempt can cost
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

_log = logging.getLogger("lpmink.solver")


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
    finish's record comes last, with ``iterations`` 0; its Euler-Lagrange
    data (``residual`` None when the optimal center cannot be found)
    belong to the finished body, normalized to volume one, at the
    schedule's final eps.
    """

    eps: float
    iterations: int
    residual: float
    lambda_eps: float
    energy: float
    converged: bool


@dataclass
class SolveReport:
    """A solve's report; ``newton_steps`` is None unless the finish succeeded."""

    p: float
    stages: list = field(default_factory=list)
    newton_attempts: int = 0
    newton_steps: int = None
    lambda0: float = np.nan
    lam: float = np.nan
    residual_l1: float = np.nan
    residual_linf: float = np.nan
    converged: bool = False

    def to_dict(self):
        """The report as JSON data, with ``lam`` under the key "lambda"."""
        data = asdict(self)
        data["lambda"] = data.pop("lam")
        return data


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


def _score(body, measure, profile, x0):
    """(xi, Phi_eps(body, xi), r, lambda_eps) at the optimal center from x0.

    For a measure with a group, whose body the descent keeps invariant,
    xi is projected onto the group's fixed subspace: the optimal center is
    unique, so every element fixes it, while optimal_center stops about
    1e-10 off that subspace and r would inherit the asymmetry. The energy
    is optimal_center's, which the projection moves only at second order.
    """
    xi, energy, _, _ = optimal_center(body, measure, profile, x0=x0)
    if measure.group is not None:
        xi = measure.group.mean(axis=0) @ xi
    r, lambda_eps = el_residual(body, xi, measure, profile)
    return xi, energy, r, lambda_eps


def evaluate_offsets(measure, profile, h, xi0=None, raw=None):
    """Build the volume-normalized Wulff shape at offsets h and score it.

    Returns (body, xi, energy, r, lambda_eps) where the body has volume one
    and the rest is its _score: xi its optimal center, energy
    Phi_eps(body, xi) as optimal_center evaluated it, and (r, lambda_eps)
    the Euler-Lagrange data at the iterate. A given ``raw``, the shape
    before the rescale (from the default unit offsets at n = 3, the grid's
    unit_offset_body), is not rebuilt. The body is not validated:
    minimize_fixed_eps validates the one it returns.
    """
    grid = measure.grid
    if raw is None:
        raw = wulff_shape(grid.dim, grid.nodes, np.asarray(h, dtype=float),
                          validate=False, interior_hint=xi0)
    body = raw.scaled(raw.volume ** (-1.0 / grid.dim))
    return (body, *_score(body, measure, profile, xi0))


def _multiplier_scale(lambda0, p, n):
    """The factor lambda that takes the volume-one limit body to M."""
    if p == 0:
        return lambda0 ** (1.0 / n)
    return (lambda0 / abs(p)) ** (1.0 / (n - p))


def _finish_state(measure, p, s, hint, like=None):
    """Body and F(s) = (1-p) s + log S(e^s) - log mu at log-support s.

    The states are the bodies whose every facet is active, where log S is
    defined. ``like`` is a body of the previous state's combinatorial
    type, or None, and every state holds its ridge record where that type
    still holds. A polygon is built in closed form by polygon_all_active,
    which hands on the record of ``like`` when polygon_all_active built
    it, so the angular order and the data that depends only on it are
    computed once per finish attempt. A polytope is built without a hull
    by polytope_same_type with the ridges of ``like``, and by wulff_shape
    when that type no longer holds or ``like`` is None. Returns None when
    the build raises WulffError, as for a non-finite h = e^s, a hint
    outside the body or an inactive facet of a polygon, or when a facet
    of a polytope is inactive.
    """
    h = np.exp(s)
    nodes = measure.grid.nodes
    try:
        if measure.dim == 2:
            body = polygon_all_active(nodes, h, hint, like)
        else:
            try:
                if like is None:
                    raise WulffError("no combinatorial type to keep")
                body = polytope_same_type(like, h, hint)
            except WulffError:
                body = wulff_shape(3, nodes, h, validate=False, interior_hint=hint)
    except WulffError:
        return None
    if not np.all(body.facet_areas > 0):
        return None
    F = (1.0 - p) * s + np.log(body.facet_areas) - np.log(measure.masses)
    return body, F


def newton_finish(measure, p, h, like=None):
    """Damped Newton on the discrete Lp equation h^(1-p) S(h) = mu.

    The origin stays fixed and the unknowns are the log-supports s = log h,
    so F(s) = (1-p) s + log S(e^s) - log mu and

        J = (1-p) I + diag(1/S) (dS/dh) diag(h),

    with dS/dh as in ``facet_jacobian``; the step solves the equivalent
    symmetric system B y = -S F, ds = y / h, B = (1-p) diag(S/h) + dS/dh,
    at both n (see _newton_step). ``h`` must be positive, so the origin
    is the interior hint of the start's Wulff shape. _finish_state builds
    each trial state with the ridge record of the accepted one: at n = 2
    the first polygon of the attempt builds it, and at n = 3 the start
    takes the ridges of ``like``, a body of its combinatorial type such as
    the descent iterate it is rescaled from, and a hull is built only
    where the ridges change. When the start's build
    refuses that hint, or some facet of the shape is inactive, every
    offset first gains FINISH_MARGIN times their mean, which adds a
    circumscribed polytope and makes every facet active. A step is halved
    until the mass-weighted merit sum_i mu_i F_i^2 or |F|^2 falls by the
    Armijo factor; the Newton direction descends both. Weighting by mass
    keeps facets of tiny mass but large log-residual, as where a smoothed
    density sits at its floor, from holding every step down; accepting a
    fall in |F|^2 as well keeps the n = 2 dipole at p = 0.99 well inside
    FINISH_STEPS. A trial point is rejected when a facet is inactive or
    its body does not hold the current centroid, its interior hint; for
    a measure with a group the step is orbit-averaged. Stops when
    verify's residual_l1 is at most FINISH_TOL, or when the mass-weighted
    correction sqrt(sum_i mu_i ds_i^2 / total) is at most
    1e-13 max(1, max|s|), the rounding floor (at n = 2 it grows as
    N^2 eps); that stop succeeds when residual_l1 is at most FLOOR_TOL.

    Returns (body, steps) on success and None when the Wulff shape
    degenerates, the step's system is singular or not finite, the line
    search fails, FINISH_STEPS run out or the floor is reached above
    FLOOR_TOL.
    """
    h = np.asarray(h, dtype=float)
    total = measure.total_mass
    # one row per merit: sum mu_i F_i^2 and |F|^2
    weights = np.stack([measure.masses, np.ones(len(h))])
    with np.errstate(all="ignore"):
        origin = np.zeros(measure.dim)
        s = np.log(h)
        state = _finish_state(measure, p, s, origin, like)
        if state is None:
            s = np.log(h + FINISH_MARGIN * float(np.mean(h)))
            state = _finish_state(measure, p, s, origin, like)
        if state is None:
            return None
        body, F = state
        t = 1.0
        for steps in range(FINISH_STEPS + 1):
            sp = lp_surface_area_measure(body, p)
            l1 = float(np.abs(sp - measure.masses).sum() / total)
            if l1 <= FINISH_TOL:
                return _checked(body, steps)
            if steps == FINISH_STEPS:
                return None
            ds = measure.orbit_average(_newton_step(body, p, F))
            if not np.all(np.isfinite(ds)):
                return None
            if (np.sqrt(measure.masses @ ds ** 2 / total)
                    <= 1e-13 * max(1.0, float(np.max(np.abs(s))))):
                # the correction is lost in the rounding of s, so no step
                # lowers l1 further
                return _checked(body, steps) if l1 <= FLOOR_TOL else None
            merits = weights @ F ** 2
            t = min(1.0, 2.0 * t)
            for _ in range(FINISH_HALVINGS):
                trial = _finish_state(measure, p, s + t * ds, body.centroid, body)
                if trial is not None and np.any(
                        weights @ trial[1] ** 2 <= (1.0 - 1e-4 * t) * merits):
                    break
                t *= 0.5
            else:
                return None
            s = s + t * ds
            body, F = trial


def _newton_step(body, p, F):
    """The Newton correction ds, J ds = -F; NaN when J is singular.

    J = diag(1/S) B diag(h) with B = (1-p) diag(S/h) + dS/dh symmetric, so
    ds = y / h for the y with B y = -S F, which solve_facet_system solves.
    """
    h, S = body.support_values, body.facet_areas
    return solve_facet_system(body, (1.0 - p) * S / h, 1.0, -S * F) / h


def _checked(body, steps):
    """newton_finish's result, or None when the body fails its invariants."""
    try:
        body._check_invariants()
    except GeometryError:
        return None
    return body, steps


def _preconditioned_step(body, xi, measure, profile, r, lambda_eps):
    """The Newton direction d of the volume-constrained energy at an iterate.

    With t = h - U xi, D = phi_eps''(t) mu, G = diag(D) U and A = U^T G,
    the center Hessian that optimal_center returns, d solves

        K d + S y + U z = -r,   S^T d = 0,   U^T d = 0,
        K = diag(D) - G A^-1 G^T - lambda_eps dS/dh,

    the Hessian of the energy maximized over the center, less the volume
    constraint's curvature. K annihilates the translations U, so the
    system is solved with K~ = K - U A U^T, which equals K on U^T d = 0:
    once r's translation part, U z's share, is removed, K~ d + S y = -r
    with S^T d = 0 forces U^T d = 0. K~ is M = diag(D) - lambda_eps dS/dh,
    which solve_facet_system solves for all right-hand sides at once,
    plus the rank-2n term [G, U] diag(-A^-1, -A) [G, U]^T, which a
    Woodbury correction with the core diag(-A, -A^-1) + [G, U]^T M^-1
    [G, U] solves; the border S takes one more right-hand side, 2n + 2 in
    all. The result is not finite when M, A or the core is singular.
    """
    U, S = body.normals, body.facet_areas
    n = body.dim
    with np.errstate(all="ignore"):
        D = profile.d2phi(body.support_values - U @ xi) * measure.masses
        G = D[:, None] * U
        A = U.T @ G
        W = np.hstack([G, U])
        r = r - U @ np.linalg.solve(U.T @ U, U.T @ r)
        X = solve_facet_system(body, D, -lambda_eps, np.column_stack([W, r, S]))
        try:
            core = np.zeros((2 * n, 2 * n))
            core[:n, :n] = -A
            core[n:, n:] = -np.linalg.inv(A)
            core += W.T @ X[:, :2 * n]
            xr, xs = (X[:, 2 * n:]
                      - X[:, :2 * n] @ np.linalg.solve(core, W.T @ X[:, 2 * n:])).T
        except np.linalg.LinAlgError:
            # LAPACK refuses a singular A or core
            return np.full(len(D), np.nan)
        return (S @ xr) / (S @ xs) * xs - xr


def minimize_fixed_eps(measure, profile, opts=None, h0=None,
                       energy_trace=None, xi0=None, finish=None):
    """Projected descent for the fixed-eps minimum body.

    At each iterate the offsets are renormalized to volume one, the optimal
    center and the Euler-Lagrange residual r are computed, and two trial
    steps are line-searched, each until the energy falls by the Armijo
    factor 1e-4 of the predicted decrease, halving at most 60 times; a
    trial whose Wulff shape does not hold the current center (the
    interior hint) or whose center fails is halved as well.

    - The gradient trial h - eta * r, with eta from a safeguarded
      Barzilai-Borwein rule.
    - The preconditioned trial h + t d from t = 1, with d the Newton
      direction of the volume-constrained energy (_preconditioned_step),
      tried only when d is finite and r . d < 0.

    For a measure with an invariance group both directions are averaged
    over the group's orbits, so the iterates stay invariant. The
    preconditioned trial is taken when its energy is below the gradient
    trial's and its max |r| / lambda_eps is at most twice the gradient
    trial's, or when the gradient search underflows; otherwise the
    gradient trial is. The energy at eps = 0.1 can be unbounded below on a
    collapsing body, so a lower energy alone does not choose. Terminates
    when max |r| <= EL_TOL * lambda_eps or after opts.max_iter
    iterations. Each stage emits one DEBUG record with its counts of
    preconditioned and gradient steps on the "lpmink.solver" logger.

    Returns (body, xi, StageRecord). When ``energy_trace`` is a list it
    receives the energy of every accepted iterate, in order. ``xi0`` warm
    starts the first center computation (continuation stages reuse the
    previous stage's center); from the default unit offsets it defaults
    to the origin, and at n = 3 the grid's unit_offset_body is the start.

    ``finish(body, xi, lambda_eps) -> bool`` is called at checkpoints:
    the first iterate with max |r| <= 0.1 lambda_eps, the first of each
    later decade, and the stage's last iterate, at most six calls in all.
    It must leave its arguments alone; when it returns True the stage
    stops at that iterate. The descent itself does not depend on it.
    """
    opts = opts or SolveOptions()
    finish = finish or (lambda body, xi, lambda_eps: False)
    raw = None
    if h0 is None:
        # every unit-offset plane is at distance 1 from the origin, which
        # makes the origin the interior hint
        h = np.ones(len(measure.grid))
        if xi0 is None:
            xi0 = np.zeros(measure.dim)
            # n = 2 rebuilds it: a cache would leave solve2d's traced Qhull idle
            raw = measure.grid.unit_offset_body if measure.dim == 3 else None
    else:
        h = np.asarray(h0, dtype=float).copy()

    body, xi, energy, r, lam = evaluate_offsets(measure, profile, h, xi0=xi0, raw=raw)
    if energy_trace is not None:
        energy_trace.append(energy)
    h = body.support_values.copy()
    direction = measure.orbit_average(r)
    eta = 0.1 * max(np.max(np.abs(h)), 1.0) / max(np.max(np.abs(direction)), 1e-300)
    prev_h = prev_dir = None
    # accepted preconditioned and gradient steps
    taken = [0, 0]

    def log_steps():
        _log.debug("stage at eps %.4g: %d preconditioned and %d gradient steps",
                   profile.eps, *taken)

    def record(iters, res, converged):
        log_steps()
        body._check_invariants()
        return body, xi, StageRecord(profile.eps, iters, res / lam, lam,
                                     energy, converged)

    def search(point, step, decrease):
        """The first trial point(step / 2^k), k < 60, whose energy is at
        most energy - decrease * step, as evaluate_offsets' tuple, or None."""
        for _ in range(60):
            try:
                trial = evaluate_offsets(measure, profile, point(step), xi0=xi)
            except (WulffError, SolverError, CenterError):
                step *= 0.5
                continue
            if trial[2] <= energy - decrease * step:
                return trial
            step *= 0.5
        return None

    def stationarity(trial):
        return float(np.max(np.abs(trial[3]))) / trial[4]

    checkpoint = 0.1
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        res = float(np.max(np.abs(r)))
        if res <= EL_TOL * lam:
            finish(body, xi, lam)
            return record(iterations - 1, res, True)
        if res <= checkpoint * lam:
            if finish(body, xi, lam):
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

        newton = None
        d = measure.orbit_average(
            _preconditioned_step(body, xi, measure, profile, r, lam))
        slope = float(r @ d)
        if np.all(np.isfinite(d)) and slope < 0:
            newton = search(lambda t: h + t * d, 1.0, -1e-4 * slope)
        gradient = search(lambda t: h - t * direction, eta,
                          1e-4 * float(direction @ direction))
        if newton is not None and (gradient is None or (
                newton[2] < gradient[2]
                and stationarity(newton) <= 2.0 * stationarity(gradient))):
            body, xi, energy, r, lam = newton
            taken[0] += 1
        elif gradient is not None:
            body, xi, energy, r, lam = gradient
            taken[1] += 1
        else:
            log_steps()
            raise LineSearchError("line search underflow at iteration %d "
                                  "(residual %.3e)" % (iterations, res), body)
        if energy_trace is not None:
            energy_trace.append(energy)
        h = body.support_values.copy()
        direction = measure.orbit_average(r)
        R = float(np.max(np.linalg.norm(body.vertices - body.centroid, axis=1)))
        if 2.0 * R > MAX_DIAMETER:
            log_steps()
            raise SolverError("iterate diameter exceeded the guard %.1f"
                              % MAX_DIAMETER, body)

    res = float(np.max(np.abs(r)))
    finish(body, xi, lam)
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

    ``newton_finish`` is tried at every checkpoint of the descent (see
    minimize_fixed_eps), from the iterate rescaled this way about its
    optimal center, which has the iterate's ridges; the report's
    ``newton_attempts`` counts the attempts. The first success ends the
    continuation: M is the finished body, the report's last stage is the
    finish's record, the report's ``newton_steps`` counts the finish's
    Newton steps and the solve counts as converged. Only that success
    does: the attempts leave the descent alone, so when all of them fail
    the result is the descent's, bit for bit, and the report says it did
    not converge, however stationary its stages.

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
    ProfileError is raised before any descent when no double profile
    exists at the schedule's final eps.
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
    # the finish record's profile, at the schedule's final eps
    final = build_profile(p, n, EPS0 * 2.0 ** (-(opts.stages - 1)))
    sub, support = measure.on_support()
    hull = positive_hull_check(sub)
    if hull.L_dim < n or not hull.pos_equals_L:
        raise HypothesisError("the support lies in a closed hemisphere; "
                              "symmetrize the measure first (lpmink symmetrize)")

    attempts, result = 0, None

    def finish(body, xi, lambda_eps):
        nonlocal attempts, result
        attempts += 1
        lam = _multiplier_scale(lambda_eps, p, n)
        result = newton_finish(sub, p, lam * (body.support_values - body.normals @ xi),
                               body)
        return result is not None

    h = xi = None
    for k in range(opts.stages):
        eps_k = EPS0 * 2.0 ** (-k)
        profile = build_profile(p, n, eps_k)
        body, xi, record = minimize_fixed_eps(sub, profile, opts, h0=h,
                                              xi0=xi, finish=finish)
        report.stages.append(record)
        if result is not None or (k > 0 and record.iterations == 0):
            break
        h = body.support_values.copy()

    if result is not None:
        M, report.newton_steps = result
        lam = M.volume ** (1.0 / n)
        lambda0 = lam ** n if p == 0 else abs(p) * lam ** (n - p)
        report.stages.append(_finish_record(M.scaled(1.0 / lam), sub, final))
    else:
        # the limit identity holds for the body recentered at its optimal
        # center
        lambda0 = report.stages[-1].lambda_eps
        lam = _multiplier_scale(lambda0, p, n)
        M = body.translated(-xi).scaled(lam)
    report.newton_attempts = attempts
    report.lambda0 = lambda0
    report.lam = float(lam)
    report.converged = result is not None

    if sub is not measure:
        M = M.embedded(measure.grid.nodes, support)
    res_l1, res_linf, _ = verify(M, measure, p)
    report.residual_l1 = res_l1
    report.residual_linf = res_linf
    return M, report


def _finish_record(body, measure, profile):
    """StageRecord of a successful finish; ``body`` is its volume-one body.

    The energy and the Euler-Lagrange data are the body's _score for
    ``profile``, the schedule's final one, from the origin; the record is
    stationary when max |r| <= EL_TOL lambda_eps, as for a descent stage.
    """
    try:
        # a support value far below eps overflows the barrier's derivatives
        with np.errstate(over="ignore", invalid="ignore"):
            _, energy, r, lambda_eps = _score(body, measure, profile,
                                              np.zeros(body.dim))
        residual = float(np.max(np.abs(r))) / lambda_eps
    except (CenterError, SolverError):
        residual = lambda_eps = energy = None
    return StageRecord(profile.eps, 0, residual, lambda_eps, energy,
                       residual is not None and residual <= EL_TOL)


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
