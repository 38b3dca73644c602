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

    def val(self, t):
        s = t - self.t0
        c = self.c
        return c[0] + s * (c[1] + s * (c[2] + s * c[3]))

    def der(self, t):
        s = t - self.t0
        c = self.c
        return c[1] + s * (2.0 * c[2] + 3.0 * s * c[3])

    def der2(self, t):
        s = t - self.t0
        return 2.0 * self.c[2] + 6.0 * self.c[3] * s


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

    def _piecewise(self, t, low_fn, high_fn, mid_fns):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t <= 0):
            raise ValueError("phi_eps is defined on t > 0 only")
        out = np.empty_like(t)
        if self.is_unmodified:
            out[:] = low_fn(t)
        else:
            lo = t <= self.eps
            hi = t >= 3.0 * self.eps
            out[lo] = low_fn(t[lo])
            out[hi] = high_fn(t[hi])
            mid = ~(lo | hi)
            if np.any(mid):
                tm = t[mid]
                res = np.empty_like(tm)
                for cub, fn in zip(self.pieces, mid_fns):
                    sel = (tm >= cub.t0) & (tm <= cub.t1)
                    res[sel] = fn(cub, tm[sel])
                out[mid] = res
        return float(out[0]) if scalar else out

    def phi(self, t):
        """phi_eps(t)."""
        return self._piecewise(
            t, lambda s: -(s ** (-self.q)), lambda s: _phi_raw(self.p, s),
            [lambda c, s: c.val(s)] * len(self.pieces))

    def dphi(self, t):
        """phi_eps'(t); positive everywhere."""
        return self._piecewise(
            t, lambda s: self.q * s ** (-self.q - 1.0),
            lambda s: _dphi_raw(self.p, s),
            [lambda c, s: c.der(s)] * len(self.pieces))

    def d2phi(self, t):
        """phi_eps''(t); negative everywhere, may jump at bridge knots."""
        return self._piecewise(
            t, lambda s: -self.q * (self.q + 1.0) * s ** (-self.q - 2.0),
            lambda s: _d2phi_raw(self.p, s),
            [lambda c, s: c.der2(s)] * len(self.pieces))


def _validate_profile(profile):
    eps = profile.eps
    # dense sweep plus extra resolution around the bridge
    t = np.concatenate([
        np.geomspace(1e-6, 10.0, 4000),
        np.linspace(0.5 * eps, 4.0 * eps, 2000),
    ])
    t = np.unique(t)
    dp = profile.dphi(t)
    d2p = profile.d2phi(t)
    if np.any(dp <= 0):
        raise ProfileError("phi_eps' must be strictly positive")
    if np.any(d2p >= 0):
        raise ProfileError("phi_eps'' must be strictly negative")
    t01 = t[(t > 0) & (t < 1)]
    if np.any(profile.phi(t01) < -(t01 ** (-profile.q)) - 1e-9 * t01 ** (-profile.q)):
        raise ProfileError("phi_eps must dominate -t^(-q) on (0, 1)")
    # exact piece agreement
    t_hi = np.linspace(3.0 * eps, 8.0, 200)
    if not np.allclose(profile.phi(t_hi), _phi_raw(profile.p, t_hi), rtol=0, atol=0):
        raise ProfileError("phi_eps must equal phi for t >= 3 eps exactly")
    t_lo = np.linspace(eps / 50.0, eps, 200)
    if not np.allclose(profile.phi(t_lo), -(t_lo ** (-profile.q)), rtol=0, atol=0):
        raise ProfileError("phi_eps must equal -t^(-q) for t <= eps exactly")


def build_profile(p, n, eps):
    """Construct and validate the eps-modified energy profile.

    For p in (-n, -(n-1)] the two defining pieces coincide and phi_eps is
    phi itself. Otherwise a cubic Hermite bridge joins -t^(-q) at eps to
    phi at 3*eps; if the single cubic fails monotonicity or concavity, a
    knot at 2*eps is inserted with slope and value chosen from the interval
    where both halves stay concave.
    """
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    if not (0 < eps < 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3)")
    q = max(abs(p), n - 1.0)
    if p < 0 and abs(p) >= n - 1.0:
        profile = EnergyProfile(p, n, eps, q, [])
        _validate_profile(profile)
        return profile

    a, b = eps, 3.0 * eps
    va, ma = -(a ** -q), q * a ** (-q - 1.0)
    vb, mb = _phi_raw(p, b), _dphi_raw(p, b)
    single = _Cubic(a, b, va, vb, ma, mb)
    if single.der2(a) < 0 and single.der2(b) < 0:
        pieces = [single]
    else:
        tc, vc, mc = _feasible_two_piece(a, b, va, vb, ma, mb)
        pieces = [_Cubic(a, tc, va, vc, ma, mc), _Cubic(tc, b, vc, vb, mc, mb)]
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


def optimal_center(body, measure, profile, tol=1e-10, max_iter=100, x0=None):
    """Unique interior maximizer of xi -> Phi_eps(K, xi) by damped Newton.

    Returns (xi, grad_norm, hessian); the gradient residual satisfies
    grad_norm <= tol * total mass, and the Hessian is the negative-definite
    matrix A = sum_a u_a u_a^T phi_eps''(t_a) mu_a at the solution. The
    iteration starts from the Chebyshev center unless a strictly interior
    warm start x0 is supplied. Each Newton step is capped short of the
    boundary and halved until it is accepted, at first when the value
    rises, or holds within fp noise while the gradient norm halves. When
    no halving is accepted, reaching the machine floor |A| * spacing(xi)
    counts as convergence: where the barrier curvature is large, float64
    cannot express gradients below it (the returned grad_norm is then the
    attainable one). Short of that floor the value has stopped resolving
    the progress, as at a bridge knot of a nearly flat profile, and from
    then on a step is accepted when it shrinks the gradient norm; the
    energy is concave, so these steps still converge.
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

    def grad_hess(x):
        t = h - dirs @ x
        w1 = profile.dphi(t) * masses
        w2 = profile.d2phi(t) * masses
        g = -(dirs.T @ w1)
        A = (dirs * w2[:, None]).T @ dirs
        return g, A

    def grad_norm(x):
        return float(np.linalg.norm(grad_hess(x)[0]))

    def value(x):
        return float(np.sum(profile.phi(h - dirs @ x) * masses))

    fx = value(xi)
    by_value = True  # accept on the value until it stops resolving progress
    for _ in range(max_iter):
        g, A = grad_hess(xi)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol * total:
            return xi, gnorm, A
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
                if by_value:
                    # near the optimum the value gain drops below fp noise
                    fc = value(cand)
                    if fc > fx or (fc >= fx - 1e-12 * (1.0 + abs(fx))
                                   and grad_norm(cand) <= 0.5 * gnorm):
                        fx = fc
                        break
                elif grad_norm(cand) < gnorm:
                    break
            step = 0.5 * step
        else:
            # the gradient cannot be expressed below |A| times the fp
            # spacing of xi; near barrier shoulders (support gaps at the
            # bridge scale) that floor exceeds the nominal tolerance
            floor = (float(np.linalg.norm(A, 2))
                     * (1.0 + float(np.linalg.norm(xi))) * 1e-15)
            if gnorm <= floor:
                return xi, gnorm, A
            if not by_value:
                raise CenterError("optimal center did not converge within machine "
                                  "limits (grad %.2e, floor %.2e)" % (gnorm, floor))
            by_value = False
            continue
        xi = cand
    raise CenterError("optimal center did not converge in %d Newton steps" % max_iter)
