import numpy as np
import pytest

from lpmink.identities import (IdentityError, SmoothBody, ellipsoid_model,
                               fp_identity_matrix, homogeneous_contour_integral)
from lpmink.sphere import build_grid, unit_ball_volume


@pytest.fixture(scope="module")
def grid720():
    return build_grid(2, 720)


def test_unit_ball_model():
    ball = ellipsoid_model([1.0, 1.0, 1.0])
    u = np.array([0.0, 0.0, 1.0])
    assert ball.h(u) == pytest.approx(1.0)
    assert ball.ftilde(u) == pytest.approx(1.0)
    assert ball.volume == pytest.approx(unit_ball_volume(3))


def test_ellipse_model_basics():
    ell = ellipsoid_model([2.0, 1.0])
    assert ell.volume == pytest.approx(2 * np.pi)
    assert ell.h(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert ell.h(np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_homogeneity_degrees():
    ell = ellipsoid_model([1.5, 1.0])
    rng = np.random.default_rng(5)
    xi = rng.normal(size=(50, 2))
    assert np.allclose(ell.h(2 * xi), 2 * ell.h(xi), rtol=1e-10)
    assert np.allclose(ell.ftilde(2 * xi), 2.0 ** (-3) * ell.ftilde(xi),
                       rtol=1e-10)
    p = -0.5
    assert np.allclose(ell.f_p(2 * xi, p), 2.0 ** (-2 - p) * ell.f_p(xi, p),
                       rtol=1e-10)


def test_curvature_against_boundary_oracle():
    # parametrize the ellipse boundary and differentiate it numerically;
    # compare with 1/ftilde at the corresponding outer normal
    a, b = 1.5, 1.0
    ell = ellipsoid_model([a, b])
    d = 1e-5
    for phi in np.linspace(0, 2 * np.pi, 37):
        def point(t):
            return np.array([a * np.cos(t), b * np.sin(t)])
        x1 = (point(phi + d) - point(phi - d)) / (2 * d)
        x2 = (point(phi + d) - 2 * point(phi) + point(phi - d)) / d ** 2
        kappa_fd = abs(x1[0] * x2[1] - x1[1] * x2[0]) / np.linalg.norm(x1) ** 3
        normal = np.array([b * np.cos(phi), a * np.sin(phi)])
        normal /= np.linalg.norm(normal)
        assert ell.kappa(normal) == pytest.approx(kappa_fd, rel=1e-4)


def test_legendre_relations_random_points():
    rng = np.random.default_rng(7)
    for axes in ([1.5, 1.0], [1.2, 0.7, 1.0]):
        body = ellipsoid_model(axes)
        n = body.dim
        xi = rng.normal(size=(100, n))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        xi *= rng.uniform(0.5, 2.0, size=(100, 1))
        x = body.grad_H(xi)
        assert np.allclose(body.h(xi), body.htilde(x), rtol=1e-12)
        recon = body.h(xi)[:, None] * body.grad_htilde(x)
        assert np.allclose(recon, xi, rtol=1e-10, atol=1e-12)
        # det grad^2 H = h^{n+1} ftilde, Hessian by central differences
        d = 1e-5
        for k in range(20):
            z = xi[k]
            He = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = d
                He[:, j] = (body.grad_H(z + e) - body.grad_H(z - e)) / (2 * d)
            det_fd = np.linalg.det(He)
            target = body.h(z) ** (n + 1) * body.ftilde(z)
            assert det_fd == pytest.approx(target, rel=1e-5)


@pytest.mark.parametrize("axes,center", [
    *[([r] * n, None) for n in (2, 3) for r in (0.05, 0.5, 5.0, 50.0)],
    ([0.05, 50.0], None), ([50.0, 0.05, 1.0], None), ([0.05, 0.08], [0.02, 0.01]),
    ([3.0, 0.2], [0.1, -0.05]), ([40.0, 2.0, 0.5], [0.3, 0.2, -0.1])])
def test_grad_f_p_matches_central_differences(axes, center):
    # f_p is (-n-p)-homogeneous, so its derivatives scale as |f_p| / |xi|:
    # the step is relative to |xi| and the error to |grad| + |f_p| / |xi|
    body = ellipsoid_model(axes, center=center)
    n = body.dim
    rng = np.random.default_rng(17)
    xi = rng.normal(size=(32, n))
    xi *= rng.uniform(0.5, 2.0, size=(32, 1)) / np.linalg.norm(xi, axis=1, keepdims=True)
    r = np.linalg.norm(xi, axis=1)
    d = 1e-6 * r
    for p in (-1.0, -float(n)):
        closed = body.grad_f_p(xi, p)
        fd = np.column_stack([
            (body.f_p(xi + d[:, None] * e, p) - body.f_p(xi - d[:, None] * e, p)) / (2 * d)
            for e in np.eye(n)])
        scale = np.abs(closed) + (np.abs(body.f_p(xi, p)) / r)[:, None]
        assert np.all(np.abs(fd - closed) <= 1e-6 * scale)


def test_contour_integral_constant(grid720):
    val = homogeneous_contour_integral(
        lambda U: np.linalg.norm(U, axis=1) ** (-2.0), grid720)
    assert val == pytest.approx(2 * unit_ball_volume(2), rel=1e-12)
    g3 = build_grid(3, 2000)
    val3 = homogeneous_contour_integral(
        lambda U: np.linalg.norm(U, axis=1) ** (-3.0), g3)
    assert val3 == pytest.approx(3 * unit_ball_volume(3), rel=1e-10)


def test_contour_integral_takes_the_node_array(grid720):
    # an integrand written for one node is rejected, not retried per node
    with pytest.raises(IdentityError, match=r"\(N, n\) node array"):
        homogeneous_contour_integral(lambda u: np.linalg.norm(u) ** (-2.0), grid720)


def test_contour_integral_polar_volume(grid720):
    ell = ellipsoid_model([2.0, 1.0])
    val = homogeneous_contour_integral(lambda U: ell.htilde(U) ** (-2.0),
                                       grid720) / 2.0
    assert val == pytest.approx(ell.volume, rel=1e-3)


def test_contour_integral_linearity(grid720):
    f = lambda U: np.linalg.norm(U, axis=1) ** (-2.0)
    g = lambda U: U[:, 0] ** 2 * np.linalg.norm(U, axis=1) ** (-4.0)
    lhs = homogeneous_contour_integral(lambda U: 2.0 * f(U) - 3.0 * g(U), grid720)
    rhs = (2.0 * homogeneous_contour_integral(f, grid720)
           - 3.0 * homogeneous_contour_integral(g, grid720))
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_parts_null_integral(grid720):
    # d_j (x_1 |x|^-2) integrates to zero over the sphere
    for j in range(2):
        def dj_phi(U, j=j):
            r2 = np.sum(U ** 2, axis=1)
            out = -2.0 * U[:, 0] * U[:, j] / r2 ** 2
            if j == 0:
                out = out + 1.0 / r2
            return out
        assert abs(homogeneous_contour_integral(dj_phi, grid720)) <= 1e-6


def test_fp_identity_unit_ball(grid720):
    ball = ellipsoid_model([1.0, 1.0])
    for p in (0.5, -1.0, -2.0):
        M, target, dev = fp_identity_matrix(ball, p, grid720)
        assert np.abs(dev).max() <= 1e-8


@pytest.mark.parametrize("p", [-1.0, -2.0])
def test_fp_identity_ellipse(grid720, p):
    ell = ellipsoid_model([1.5, 1.0])
    M, target, dev = fp_identity_matrix(ell, p, grid720)
    if p == -2.0:
        assert np.abs(target).max() == 0.0
        assert np.abs(M).max() <= 1e-6
    else:
        scale = abs(target[0, 0])
        assert np.abs(dev).max() <= 1e-3 * scale
        assert abs(M[0, 1]) <= 1e-6 * scale
        assert abs(M[1, 0]) <= 1e-6 * scale


def test_fp_identity_translation_invariant(grid720):
    # the identity holds for any body with the origin interior, including
    # translated ellipses: translating does NOT break it
    off = ellipsoid_model([1.5, 1.0], center=[0.45, 0.0])
    M, target, dev = fp_identity_matrix(off, -1.0, grid720)
    assert np.abs(dev).max() <= 1e-9 * abs(target[0, 0])


def test_fp_identity_origin_mismatch_control(grid720):
    # negative control: recomputing the curvature function from the shifted
    # support (instead of the translation-invariant one) breaks the identity
    class MismatchedBody(SmoothBody):
        def ftilde(self, xi):
            xi = np.asarray(xi, dtype=float)
            return self._prod_a2 * self.h(xi) ** (-(self.dim + 1))

        def grad_ftilde(self, xi):
            xi = np.asarray(xi, dtype=float)
            h = self.h(xi)
            return (-(self.dim + 1) * self._prod_a2
                    * h[..., None] ** (-(self.dim + 2)) * self.grad_h(xi))

    bad = MismatchedBody([1.5, 1.0], center=[0.45, 0.0])
    M, target, dev = fp_identity_matrix(bad, -1.0, grid720)
    assert np.abs(dev).max() > 10 * 1e-3 * abs(target[0, 0])


def test_fp_identity_refinement_slope():
    ell2 = ellipsoid_model([1.5, 1.0])
    errs2 = []
    Ns2 = [8, 12, 16, 24]
    for N in Ns2:
        M, target, dev = fp_identity_matrix(ell2, -1.0, build_grid(2, N))
        errs2.append(np.abs(dev).max())
    slope2 = np.polyfit(np.log(Ns2), np.log(errs2), 1)[0]
    assert slope2 < -1.0

    ell3 = ellipsoid_model([1.3, 1.0, 0.8])
    errs3 = []
    Ns3 = [500, 1000, 2000, 4000]
    for N in Ns3:
        M, target, dev = fp_identity_matrix(ell3, -1.5, build_grid(3, N))
        errs3.append(np.abs(dev).max())
    slope3 = np.polyfit(np.log(Ns3), np.log(errs3), 1)[0]
    assert slope3 < -1.0


def test_model_validation_errors():
    with pytest.raises(IdentityError):
        ellipsoid_model([1.0, -1.0])
    with pytest.raises(IdentityError):
        ellipsoid_model([1.0, 1.0], center=[2.0, 0.0])
    ball = ellipsoid_model([1.0, 1.0])
    with pytest.raises(IdentityError):
        fp_identity_matrix(ball, 0.0, build_grid(2, 64))
    off = ellipsoid_model([1.5, 1.0], center=[0.3, 0.0])
    with pytest.raises(IdentityError):
        off.htilde(np.array([1.0, 0.0]))


@pytest.mark.parametrize("semiaxes,center", [
    ([np.inf, 1.0], None), ([np.nan, 1.0], None), ([1.0, 1.0], [np.nan, 0.0]),
    # the squared semiaxes' product overflows, or underflows to 0
    ([1e200, 1.0], None), ([1e-200, 1.0], None)])
def test_model_rejects_semiaxes_its_formulas_cannot_hold(semiaxes, center):
    with pytest.raises(IdentityError):
        ellipsoid_model(semiaxes, center=center)


def test_identity_matrix_that_overflows_raises():
    # a valid body, a hundred decades from round, whose moment matrix is not finite
    with pytest.raises(IdentityError, match="not finite"):
        fp_identity_matrix(ellipsoid_model([1e-100, 1.0]), -1.0, build_grid(2, 64))
