"""Regularized energy machinery for the variational solver.

For p in (-n, 1) the base integrand is phi(t) = t^p (0 < p < 1), log t
(p = 0) or -t^p (p < 0). The eps-modified phi_eps agrees with phi above
3*eps, equals -t^(-q) with q = max(|p|, n-1) below eps, and bridges the two
pieces with monotone concave cubics. The energy of a body K with center xi
against a measure mu is the quadrature of phi_eps(h_K(u) - <u, xi>); its
unique interior maximizer in xi is computed by damped Newton.
"""

import numpy as np

from lpmink.geometry import chebyshev_center

#: optimal_center stops at |grad| <= CENTER_TOL * total mass, or fails
#: after CENTER_STEPS Newton steps
CENTER_TOL = 1e-10
CENTER_STEPS = 100


class ProfileError(ValueError):
    """Bridge construction failed monotonicity/concavity validation."""


class CenterError(RuntimeError):
    """Interior-center computation failed (non-interior xi or divergence)."""


def _phi_raw(p, t):
    if p > 0:
        return t ** p
    if p == 0:
        return np.log(t)
    return -(t ** p)


def _dphi_raw(p, t):
    if p == 0:
        return 1.0 / t
    return abs(p) * t ** (p - 1.0)


def _d2phi_raw(p, t):
    if p == 0:
        return -(t ** -2.0)
    return abs(p) * (p - 1.0) * t ** (p - 2.0)


class _Cubic:
    """Hermite cubic on [t0, t1] matching endpoint values and slopes."""

    def __init__(self, t0, t1, v0, v1, m0, m1):
        h = t1 - t0
        d = (v1 - v0) / h
        self.t0, self.t1 = t0, t1
        self.c = np.array([v0, m0, (3.0 * d - 2.0 * m0 - m1) / h,
                           (m0 + m1 - 2.0 * d) / h ** 2])

    def at(self, order, t):
        """The order-th derivative of the cubic at t."""
        s = t - self.t0
        c = self.c
        if order == 0:
            return c[0] + s * (c[1] + s * (c[2] + s * c[3]))
        if order == 1:
            return c[1] + s * (2.0 * c[2] + 3.0 * s * c[3])
        return 2.0 * c[2] + 6.0 * c[3] * s


def _feasible_two_piece(a, b, va, vb, ma, mb):
    """Knot data at the midpoint for a concave increasing two-cubic bridge.

    A Hermite cubic on [t0, t1] is concave iff its chord slope lies in
    [(m0 + 2 m1)/3, (2 m0 + m1)/3]; intersecting the resulting constraints
    for the two halves gives an interval of admissible knot slopes and, for
    each, an interval of knot values. Midpoints keep a strict margin.
    """
    h = (b - a) / 2.0
    dbar = (vb - va) / (b - a)
    mc_lo = max(mb, (6.0 * dbar - 2.0 * ma - mb) / 3.0)
    mc_hi = min(ma, (6.0 * dbar - ma - 2.0 * mb) / 3.0)
    if mc_lo >= mc_hi:
        raise ProfileError("no concave two-piece bridge exists for these data")
    mc = 0.5 * (mc_lo + mc_hi)
    v_lo = max(va + h * (ma + 2.0 * mc) / 3.0, vb - h * (2.0 * mc + mb) / 3.0)
    v_hi = min(va + h * (2.0 * ma + mc) / 3.0, vb - h * (mc + 2.0 * mb) / 3.0)
    if v_lo >= v_hi:
        raise ProfileError("empty knot-value interval in bridge fallback")
    return a + h, 0.5 * (v_lo + v_hi), mc


#: phi and its derivatives by order: at p above 3*eps, at -q below eps
_RAW = (_phi_raw, _dphi_raw, _d2phi_raw)


class EnergyProfile:
    """The triple (phi_eps, phi_eps', phi_eps'') for given p, n, eps.

    ``pieces`` holds the bridge cubics on [eps, 3*eps]; it is empty when
    p <= -(n-1), where phi_eps = phi = -t^(-q) identically.
    """

    def __init__(self, p, dim, eps, q, pieces):
        self.p = p
        self.dim = dim
        self.eps = eps
        self.q = q
        self.pieces = pieces

    @property
    def is_unmodified(self):
        return not self.pieces

    def _piecewise(self, t, orders):
        """phi_eps^(k)(t) for each k in ``orders``, from one set of piece masks."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t <= 0):
            raise ValueError("phi_eps is defined on t > 0 only")
        outs = [np.empty_like(t) for _ in orders]
        if self.is_unmodified:
            for out, k in zip(outs, orders):
                out[:] = _RAW[k](-self.q, t)
        else:
            lo = t <= self.eps
            hi = t >= 3.0 * self.eps
            mid = ~(lo | hi)
            t_lo, t_hi = t[lo], t[hi]
            for out, k in zip(outs, orders):
                out[lo] = _RAW[k](-self.q, t_lo)
                out[hi] = _RAW[k](self.p, t_hi)
            if np.any(mid):
                tm = t[mid]
                sels = [(cub, (tm >= cub.t0) & (tm <= cub.t1))
                        for cub in self.pieces]
                for out, k in zip(outs, orders):
                    res = np.empty_like(tm)
                    for cub, sel in sels:
                        res[sel] = cub.at(k, tm[sel])
                    out[mid] = res
        if scalar:
            return tuple(float(out[0]) for out in outs)
        return tuple(outs)

    def phi(self, t):
        """phi_eps(t)."""
        return self._piecewise(t, (0,))[0]

    def dphi(self, t):
        """phi_eps'(t); positive everywhere."""
        return self._piecewise(t, (1,))[0]

    def d2phi(self, t):
        """phi_eps''(t); negative everywhere, may jump at bridge knots."""
        return self._piecewise(t, (2,))[0]

    def jet(self, t):
        """(phi_eps(t), phi_eps'(t), phi_eps''(t)) from one pass over t.

        Each value equals phi, dphi and d2phi at t bit for bit.
        """
        return self._piecewise(t, (0, 1, 2))


def _validate_profile(profile):
    """Check phi_eps' > 0, phi_eps'' < 0 and phi_eps >= -t^(-q) on (0, 1).

    Below eps phi_eps is -t^(-q). Above 3 eps |phi'| and |phi''| fall with
    t, so their signs hold on [3 eps, 10] if they hold at 10 (a subnormal p
    underflows them), and |p| < q gives phi >= -t^(-q). On the bridge the
    knots and coefficients must be finite (NaN fails no comparison), and
    one jet pass samples the points of geomspace(1e-6, 10, 4000) and
    linspace(eps/2, 4 eps, 2000) in (eps, 3 eps).
    """
    p, eps, q = profile.p, profile.eps, profile.q
    if not (_dphi_raw(p, 10.0) > 0 and _d2phi_raw(p, 10.0) < 0):
        raise ProfileError("phi' or phi'' vanishes at t = 10 for p = %r" % p)
    if profile.is_unmodified:
        return
    if not all(np.all(np.isfinite([cub.t0, cub.t1, *cub.c]))
               for cub in profile.pieces):
        raise ProfileError("the bridge at eps = %.3g has non-finite data" % eps)
    t = np.concatenate([np.geomspace(1e-6, 10.0, 4000),
                        np.linspace(0.5 * eps, 4.0 * eps, 2000)])
    t = t[(t > eps) & (t < 3.0 * eps)]
    f, dp, d2p = profile.jet(t)
    floor = _phi_raw(-q, t)
    if np.any(dp <= 0) or np.any(d2p >= 0) or np.any(f < floor + 1e-9 * floor):
        raise ProfileError("the bridge at eps = %.3g is not increasing, concave "
                           "and above -t^(-q)" % eps)


def build_profile(p, n, eps):
    """Construct and validate the eps-modified energy profile.

    For p in (-n, -(n-1)] the two defining pieces coincide and phi_eps is
    phi itself. Otherwise a cubic Hermite bridge joins -t^(-q) at eps to
    phi at 3*eps; if the single cubic fails monotonicity or concavity, a
    knot at 2*eps is inserted with slope and value chosen from the interval
    where both halves stay concave. ProfileError is raised when validation
    fails, as when the bridge data overflow a double.
    """
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    if not (0 < eps < 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3)")
    q = max(abs(p), n - 1.0)
    pieces = []
    if p > -(n - 1.0):
        # in numpy floats an overflow is inf; non-finite data take no
        # fallback, and validation rejects them
        a, b = np.float64(eps), 3.0 * np.float64(eps)
        with np.errstate(all="ignore"):
            va, ma = _phi_raw(-q, a), _dphi_raw(-q, a)
            vb, mb = _phi_raw(p, b), _dphi_raw(p, b)
            single = _Cubic(a, b, va, vb, ma, mb)
            pieces = [single]
            if np.all(np.isfinite(single.c)) and not (
                    single.at(2, a) < 0 and single.at(2, b) < 0):
                tc, vc, mc = _feasible_two_piece(a, b, va, vb, ma, mb)
                pieces = [_Cubic(a, tc, va, vc, ma, mc),
                          _Cubic(tc, b, vc, vb, mc, mb)]
    profile = EnergyProfile(p, n, eps, q, pieces)
    _validate_profile(profile)
    return profile


def _measure_directions(body, measure):
    """Support values of the body at the measure's atom directions."""
    dirs = measure.grid.nodes
    if (len(dirs) == len(body.normals)
            and np.array_equal(dirs, body.normals)):
        return dirs, body.support_values
    return dirs, body.support(dirs)


def energy(body, xi, measure, profile):
    """Phi_eps(K, xi): quadrature of phi_eps(h_K(u) - <u, xi>) against mu."""
    xi = np.asarray(xi, dtype=float)
    if body.interior_gap(xi) <= 0:
        raise CenterError("xi must be strictly interior to the body")
    dirs, h = _measure_directions(body, measure)
    t = h - dirs @ xi
    return float(np.sum(profile.phi(t) * measure.masses))


def _norm(g):
    """|g|, as np.linalg.norm takes it, but on g / 2^e with max|g| / 2^e in
    [1/2, 1): a power of two scales exactly, and squaring cannot overflow."""
    e = np.frexp(np.abs(g).max())[1]
    x = np.ldexp(g, -e)
    return float(np.ldexp(np.sqrt(x.dot(x)), e))


def optimal_center(body, measure, profile, x0=None):
    """Unique interior maximizer of xi -> Phi_eps(K, xi) by damped Newton.

    Returns (xi, value, grad_norm, hessian). ``value`` is the maximum
    Phi_eps(K, xi) against the measure's atoms, from the profile pass that
    accepted xi, and equals ``energy(body, xi, measure, profile)``; the
    gradient residual satisfies grad_norm <= CENTER_TOL * total mass, and
    the Hessian is the negative-definite matrix A = sum_a u_a u_a^T
    phi_eps''(t_a) mu_a at the solution. The iteration starts from the
    Chebyshev center unless a strictly interior warm start x0 is supplied.
    Each Newton step is capped short of the boundary and halved until it is
    accepted, at first when the value rises, or holds within fp noise while
    the gradient norm halves. When no halving is accepted, reaching the
    machine floor |A| * spacing(xi) counts as convergence: where the
    barrier curvature is large, float64 cannot express gradients below it
    (the returned grad_norm is then the attainable one). Short of that
    floor the value has stopped resolving the progress, as at a bridge knot
    of a nearly flat profile, and from then on a step is accepted when it
    shrinks the gradient norm; the energy is concave, so these steps still
    converge. CenterError is raised after CENTER_STEPS.
    """
    masses = measure.masses
    total = float(masses.sum())
    if total <= 0:
        raise CenterError("measure must be nontrivial")
    dirs, h = _measure_directions(body, measure)
    if x0 is not None and body.interior_gap(np.asarray(x0, dtype=float)) > 0:
        xi = np.asarray(x0, dtype=float).copy()
    else:
        xi = np.asarray(chebyshev_center(body.normals, body.support_values)[0])

    def evaluate(x):
        # value, gradient and Hessian at x from one pass over the profile
        f, d1, d2 = profile.jet(h - dirs @ x)
        g = -(dirs.T @ (d1 * masses))
        A = (dirs * (d2 * masses)[:, None]).T @ dirs
        return float(np.sum(f * masses)), g, A

    fx, g, A = evaluate(xi)
    by_value = True  # accept on the value until it stops resolving progress
    for _ in range(CENTER_STEPS):
        gnorm = _norm(g)
        if gnorm <= CENTER_TOL * total:
            return xi, fx, gnorm, A
        if not np.all(np.isfinite(A)):
            # phi_eps'' overflows on a body far below the eps scale
            raise CenterError("the Hessian of the center energy is not finite")
        try:
            step = -np.linalg.solve(A, g)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(A, g, rcond=None)[0]
        # fraction-to-the-boundary cap: the quadratic model is blind to the
        # barrier, so keep every support gap at >= 10% of its current value
        t_cur = h - dirs @ xi
        shrink = dirs @ step
        pos = shrink > 0
        if np.any(pos):
            alpha_max = float(np.min(t_cur[pos] / shrink[pos]))
            if alpha_max < 1.0:
                step = 0.9 * alpha_max * step
        for _ in range(100):
            cand = xi + step
            if body.interior_gap(cand) > 0:
                fc, gc, Ac = evaluate(cand)
                if by_value:
                    # near the optimum the value gain drops below fp noise
                    if fc > fx or (fc >= fx - 1e-12 * (1.0 + abs(fx))
                                   and _norm(gc) <= 0.5 * gnorm):
                        break
                elif _norm(gc) < gnorm:
                    break
            step = 0.5 * step
        else:
            # the gradient cannot be expressed below |A| times the fp
            # spacing of xi; near barrier shoulders (support gaps at the
            # bridge scale) that floor exceeds the nominal tolerance
            floor = (float(np.linalg.norm(A, 2))
                     * (1.0 + float(np.linalg.norm(xi))) * 1e-15)
            if gnorm <= floor:
                return xi, fx, gnorm, A
            if not by_value:
                raise CenterError("optimal center did not converge within machine "
                                  "limits (grad %.2e, floor %.2e)" % (gnorm, floor))
            by_value = False
            continue
        xi, fx, g, A = cand, fc, gc, Ac
    raise CenterError("optimal center did not converge in %d Newton steps"
                      % CENTER_STEPS)
