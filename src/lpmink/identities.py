"""Critical-exponent integral identities on closed-form smooth bodies.

Ellipsoids are the analytic test bed: their support function, polar
support, curvature function and all first derivatives are available in
closed form as homogeneous functions on R^n minus the origin. The module
evaluates homogeneous contour integrals by grid quadrature and the
moment-matrix identity

    integral of u_i h^p(u) d_j f_p(u) over S^{n-1} = -(n+p) V(K) delta_ij,

whose right side vanishes identically at the critical exponent p = -n.
"""

import numpy as np

from lpmink.sphere import unit_ball_volume


class IdentityError(ValueError):
    """Invalid model body or identity parameters."""


class SmoothBody:
    """Ellipsoid with closed-form support and curvature evaluators.

    The body is {sum (x_i - c_i)^2 / a_i^2 <= 1}. All evaluators accept
    arrays of shape (..., n) and act on the last axis.

    Notes
    -----
    h is positively 1-homogeneous, the curvature function f_tilde is
    (-n-1)-homogeneous, and f_p = h^(1-p) f_tilde is (-n-p)-homogeneous.
    The polar support h_tilde is only available for centered bodies.
    """

    def __init__(self, semiaxes, center=None):
        semiaxes = np.asarray(semiaxes, dtype=float)
        if np.any(semiaxes <= 0):
            raise IdentityError("semiaxes must be positive")
        self.semiaxes = semiaxes
        self.dim = len(semiaxes)
        self.center = (np.zeros(self.dim) if center is None
                       else np.asarray(center, dtype=float))
        if np.linalg.norm(self.center) >= semiaxes.min():
            raise IdentityError("center offset must keep the origin interior")
        self._a2 = semiaxes ** 2
        self._prod_a2 = float(np.prod(self._a2))
        self.volume = unit_ball_volume(self.dim) * float(np.prod(semiaxes))

    def _h0(self, xi):
        return np.sqrt(np.sum(self._a2 * xi ** 2, axis=-1))

    def h(self, xi):
        """Support function, degree-1 homogeneous."""
        xi = np.asarray(xi, dtype=float)
        return self._h0(xi) + xi @ self.center

    def grad_h(self, xi):
        xi = np.asarray(xi, dtype=float)
        h0 = self._h0(xi)
        return self._a2 * xi / h0[..., None] + self.center

    def H(self, xi):
        """H = h^2 / 2, the Legendre potential of the support."""
        return 0.5 * self.h(xi) ** 2

    def grad_H(self, xi):
        return self.h(xi)[..., None] * self.grad_h(xi)

    def htilde(self, xi):
        """Polar-body support function (centered bodies only)."""
        if np.any(self.center != 0):
            raise IdentityError("polar support requires a centered body")
        xi = np.asarray(xi, dtype=float)
        return np.sqrt(np.sum(xi ** 2 / self._a2, axis=-1))

    def grad_htilde(self, xi):
        if np.any(self.center != 0):
            raise IdentityError("polar support requires a centered body")
        xi = np.asarray(xi, dtype=float)
        return (xi / self._a2) / self.htilde(xi)[..., None]

    def ftilde(self, xi):
        """Curvature function 1/kappa as a (-n-1)-homogeneous function.

        Translation leaves the Gauss curvature at a given normal unchanged,
        so f_tilde is expressed through the centered support.
        """
        xi = np.asarray(xi, dtype=float)
        return self._prod_a2 * self._h0(xi) ** (-(self.dim + 1))

    def grad_ftilde(self, xi):
        xi = np.asarray(xi, dtype=float)
        h0 = self._h0(xi)
        g0 = self._a2 * xi / h0[..., None]
        return (-(self.dim + 1) * self._prod_a2
                * h0[..., None] ** (-(self.dim + 2)) * g0)

    def kappa(self, u):
        """Gauss curvature at the boundary point with outer normal u."""
        return 1.0 / self.ftilde(u)

    def f_p(self, xi, p):
        """f_p = h^(1-p) f_tilde, the Lp density as a (-n-p)-homogeneous map."""
        return self.h(xi) ** (1.0 - p) * self.ftilde(xi)

    def grad_f_p(self, xi, p):
        xi = np.asarray(xi, dtype=float)
        h = self.h(xi)
        return ((1.0 - p) * h[..., None] ** (-p) * self.grad_h(xi)
                * self.ftilde(xi)[..., None]
                + h[..., None] ** (1.0 - p) * self.grad_ftilde(xi))


def _crosscheck_gradients(body, rng_seed=20240817, tol=1e-6):
    """Finite-difference validation of the closed-form derivatives."""
    rng = np.random.default_rng(rng_seed)
    xi = rng.normal(size=(16, body.dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi *= rng.uniform(0.5, 2.0, size=(16, 1))
    d = 1e-6
    for p in (-1.0, -body.dim):
        fd = np.empty((16, body.dim))
        for j in range(body.dim):
            e = np.zeros(body.dim)
            e[j] = d
            fd[:, j] = (body.f_p(xi + e, p) - body.f_p(xi - e, p)) / (2 * d)
        closed = body.grad_f_p(xi, p)
        scale = 1.0 + np.max(np.abs(closed))
        if np.max(np.abs(fd - closed)) > tol * scale:
            raise IdentityError("closed-form grad f_p fails the finite-difference check")


def ellipsoid_model(semiaxes, center=None):
    """Closed-form SmoothBody for an ellipsoid, derivative-checked at build.

    For an ellipsoid the curvature function is f_tilde(u) =
    (prod a_i^2) h(u)^(-n-1); the hard-coded gradient formulas are verified
    against central finite differences before the model is returned.
    """
    body = SmoothBody(semiaxes, center=center)
    if body.dim not in (2, 3):
        raise IdentityError("only dimensions 2 and 3 are supported")
    _crosscheck_gradients(body)
    return body


def homogeneous_contour_integral(g, grid):
    """Contour integral of a degree -n homogeneous function.

    Equals the spherical integral of the restriction, evaluated by grid
    quadrature: sum_a g(u_a) w_a.
    """
    vals = np.asarray(g(grid.nodes), dtype=float)
    if vals.shape != (len(grid),):
        vals = np.array([float(g(u)) for u in grid.nodes])
    return float(np.sum(vals * grid.weights))


def fp_identity_matrix(body, p, grid):
    """Moment matrix M_ij = quadrature of u_i h^p(u) d_j f_p(u).

    Returns (M, target, deviation) where target = -(n+p) V(K) I and
    deviation = M - target. At p = -n the target is the zero matrix.
    """
    if p == 0:
        raise IdentityError("the identity requires p != 0")
    u = grid.nodes
    n = body.dim
    hp = body.h(u) ** p
    grad = body.grad_f_p(u, p)
    integrand = u[:, :, None] * grad[:, None, :] * hp[:, None, None]
    M = np.einsum("aij,a->ij", integrand, grid.weights)
    target = -(n + p) * body.volume * np.eye(n)
    return M, target, M - target
