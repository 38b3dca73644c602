"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is fixed here, none are tuned at runtime.
"""

import time

import numpy as np

from conftest import dihedral_group, random_polygon, random_polytope
from lpmink.energy import build_profile, energy
from lpmink.geometry import (lp_surface_area_measure, santalo_quadrature,
                             wulff_shape)
from lpmink.identities import SmoothBody, ellipsoid_model, fp_identity_matrix
from lpmink.measures import (SphericalMeasure, density_measure,
                             positive_hull_check, smooth_discrete,
                             subspace_concentration_check, symmetrize_hemisphere)
from lpmink.solver import SolveOptions, evaluate_offsets, solve
from lpmink.sphere import DirectionGrid, build_grid, sphere_area, unit_ball_volume


def _report(num, name, ok, detail=""):
    line = "criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", name)
    if detail:
        line += " [%s]" % detail
    print(line)
    assert ok, line


def uniform(grid, c):
    return density_measure(lambda U: np.full(len(U), float(c)), grid)


def test_criterion_01_ball_recovery():
    cases = []
    for p in (0.5, 0.0, -0.5, -1.5):
        cases.append((2, 256, p, 0.02))
    for p in (0.5, -1.0):
        cases.append((3, 500, p, 0.03))
    worst = 0.0
    grids = {}
    for n, res, p, tol in cases:
        grid = grids.setdefault((n, res), build_grid(n, res))
        for c in (1.0, 2.0 ** (n - p)):
            t0 = time.time()
            M, rep = solve(uniform(grid, c), p)
            elapsed = time.time() - t0
            target = c ** (1.0 / (n - p))
            dev = float(np.max(np.abs(M.support_values - target)) / target)
            worst = max(worst, dev / tol)
            assert elapsed <= 120.0, "case n=%d p=%s exceeded 2 minutes" % (n, p)
            assert dev <= tol, "n=%d p=%s c=%.3f: dev %.4f > %.2f" % (n, p, c, dev, tol)
    _report(1, "ball recovery via the S_{rB,p} scaling law", True,
            "worst dev/tol %.3f" % worst)


def test_criterion_02_euler_lagrange_stationarity():
    grid = build_grid(2, 256)
    ok = True
    worst = 0.0
    for p, f in ((0.5, lambda U: 1 + 0.4 * U[:, 0]),
                 (-1.0, lambda U: 1 + 0.3 * U[:, 1]),
                 (0.0, lambda U: np.full(len(U), 2.0))):
        mu = density_measure(f, grid)
        M, rep = solve(mu, p)
        for s in rep.stages:
            if s.converged:
                worst = max(worst, s.residual)
                ok = ok and (s.residual <= 1e-6)
        # independent recomputation at the final stage body
        prof = build_profile(p, 2, rep.stages[-1].eps)
        K0 = M.scaled(1.0 / rep.lam)
        body, xi, _, r, lam = evaluate_offsets(mu, prof, K0.support_values)
        ok = ok and (np.max(np.abs(r)) <= 1e-6 * lam)
    _report(2, "Euler-Lagrange stationarity at every converged stage", ok,
            "worst stage residual %.2e (tol 1e-6)" % worst)


def test_criterion_03_roundtrip_measure_fidelity():
    grid = build_grid(2, 256)
    rng = np.random.default_rng(314)
    worst = 0.0
    for trial in range(5):
        poly = random_polygon(rng, k=12)
        for p in (0.5, -1.0):
            mu = smooth_discrete(poly.normals, lp_surface_area_measure(poly, p),
                                 grid, m=32)
            M, rep = solve(mu, p)
            worst = max(worst, rep.residual_l1)
            assert rep.residual_l1 <= 0.05, \
                "polygon %d p=%s: l1 %.4f" % (trial, p, rep.residual_l1)
    _report(3, "round-trip fidelity (polygon -> smoothed measure -> solve)",
            True, "worst l1 %.4f (tol 0.05)" % worst)


def test_criterion_04_critical_identity():
    grid = build_grid(2, 720)
    ball = ellipsoid_model([1.0, 1.0])
    ok = True
    for p in (0.5, -1.0, -2.0):
        _, _, dev = fp_identity_matrix(ball, p, grid)
        ok = ok and np.abs(dev).max() <= 1e-8
    ell = ellipsoid_model([1.5, 1.0])
    M1, T1, D1 = fp_identity_matrix(ell, -1.0, grid)
    scale = abs(T1[0, 0])
    ok = ok and np.abs(D1).max() <= 1e-3 * scale
    ok = ok and max(abs(M1[0, 1]), abs(M1[1, 0])) <= 1e-6 * scale
    M2, _, _ = fp_identity_matrix(ell, -2.0, grid)
    ok = ok and np.abs(M2).max() <= 1e-6

    # negative control: recomputing the curvature function from the shifted
    # support must break the identity by well over 10x the tolerance
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
    _, Tb, Db = fp_identity_matrix(bad, -1.0, grid)
    control = np.abs(Db).max()
    ok = ok and control > 10 * 1e-3 * abs(Tb[0, 0])
    _report(4, "critical-case moment identity and negative control", ok,
            "control breaks by %.1fx tolerance" % (control / (1e-3 * abs(Tb[0, 0]))))


def test_criterion_05_inequality_suite():
    grid2 = build_grid(2, 256)
    grid3 = build_grid(3, 500)
    kappa = {n: unit_ball_volume(n) for n in (1, 2, 3)}
    rng = np.random.default_rng(271828)
    checked = 0
    for trial in range(200):
        n = 2 if trial % 4 else 3
        body = (random_polygon(rng, k=int(rng.integers(5, 16))) if n == 2
                else random_polytope(rng, k=int(rng.integers(8, 40))))
        grid = grid2 if n == 2 else grid3
        sigma = body.centroid
        rho = float(np.min(body.support_values - body.normals @ sigma))
        R = float(np.max(np.linalg.norm(body.vertices - sigma, axis=1)))
        # volume bound, exact
        assert body.volume <= (n + 1) * kappa[n - 1] * rho * R ** (n - 1) * (1 + 1e-9)
        # Blaschke-Santalo with 2% quadrature slack
        assert santalo_quadrature(body, grid) <= 1.02 * kappa[n] ** 2 / body.volume
        # inradius bound for the Lp surface area, exact
        for p in (0.5, 0.0, -1.0):
            total = lp_surface_area_measure(body, p).sum()
            assert total >= kappa[n - 1] * rho ** (n - p) * (1 - 1e-9)
        # centroid reflection at 64 sampled points
        pts = body.vertices
        reps = int(np.ceil(64 / len(pts)))
        lam = np.linspace(0.05, 0.95, reps)
        samples = np.vstack([l * pts + (1 - l) * sigma for l in lam])[:64]
        reflected = (-1.0 / n) * (samples - sigma) + sigma
        slack = body.support_values[None, :] - reflected @ body.normals.T
        assert slack.min() >= -1e-9 * max(1.0, body.support_values.max())
        checked += 1
    _report(5, "inequality suite over 200 seeded random bodies", checked == 200,
            "%d bodies" % checked)


def test_criterion_06_energy_profile_suite():
    worst_gap = 0.0
    for p in (0.9, 0.5, 0.0, -0.5, -1.0, -1.9):
        for eps in (0.3, 0.1, 0.01):
            prof = build_profile(p, 2, eps)
            t = np.geomspace(1e-4, 10.0, 10_000)
            assert np.all(prof.dphi(t) > 0)
            assert np.all(prof.d2phi(t) < 0)
            t01 = t[t < 1]
            gap = np.min(prof.phi(t01) + t01 ** (-prof.q))
            worst_gap = min(worst_gap, gap)
            assert np.all(prof.phi(t01) >= -(t01 ** (-prof.q)) * (1 + 1e-12))
            hi = np.linspace(3 * eps, 5.0, 300)
            expected = hi ** p if p > 0 else (np.log(hi) if p == 0 else -(hi ** p))
            assert np.array_equal(prof.phi(hi), expected)
            lo = np.linspace(eps / 10, eps, 100)
            assert np.array_equal(prof.phi(lo), -(lo ** (-prof.q)))
            if p <= -1.0:
                assert prof.is_unmodified
    _report(6, "energy-profile suite (pieces, monotone concave, domination)",
            True, "min phi_eps + t^-q gap %.1e" % worst_gap)


def test_criterion_07_hemisphere_pipeline():
    A_ref = np.array([[-1.0, 0.0], [0.0, 1.0]])
    grid = build_grid(2, 360, symmetry=[np.eye(2), A_ref])

    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return np.where(np.abs(ang) <= np.pi / 4 + 1e-12, 1.0, 0.0)

    mu = density_measure(f, grid)
    mu0, simplex, A, cone = symmetrize_hemisphere(mu)
    hemis_ok = True
    for k in range(360):
        t = 2 * np.pi * k / 360 + 0.0005
        w = np.array([np.cos(t), np.sin(t)])
        if mu0.masses[(grid.nodes @ w) > 1e-12].sum() <= 0:
            hemis_ok = False
    M, rep = solve(mu0, 0.5)
    walls = -cone
    K = wulff_shape(2, np.vstack([M.normals, walls]),
                    np.concatenate([M.support_values, np.zeros(len(walls))]))
    restricted = lp_surface_area_measure(K, 0.5)
    l1 = float(np.abs(restricted[:len(grid)] - mu.masses).sum() / mu.total_mass)
    # wall facets through the origin carry zero Lp mass
    wall_mass = float(np.abs(restricted[len(grid):]).sum())
    ok = hemis_ok and l1 <= 0.07 and wall_mass <= 1e-12
    _report(7, "hemisphere symmetrization and cone restriction", ok,
            "restricted l1 %.4f (tol 0.07)" % l1)


def test_criterion_08_hypothesis_checkers():
    nodes6 = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                       [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    g6 = DirectionGrid(3, nodes6, np.full(6, sphere_area(3) / 6))
    cube_cvm = SphericalMeasure(g6, np.full(6, 8.0 / 6.0))
    rep = subspace_concentration_check(cube_cvm)
    ok = rep.satisfied and all(w.equality and w.complement_exists
                               for w in rep.witnesses) and len(rep.witnesses) > 0

    nodes4 = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    g4 = DirectionGrid(2, nodes4, np.full(4, np.pi / 2))
    anti = SphericalMeasure(g4, np.array([0.5, 0.5, 0.0, 0.0]))
    rep_anti = subspace_concentration_check(anti)
    hull_anti = positive_hull_check(anti)
    ok = ok and (not rep_anti.satisfied) and (not hull_anti.passes) \
        and hull_anti.antipodal_pair

    single = SphericalMeasure(g4, np.array([1.0, 0.0, 0.0, 0.0]))
    ok = ok and positive_hull_check(single).passes
    _report(8, "hypothesis checkers (cube equality, antipodal, singleton)", ok)


def test_criterion_09_gradient_validations():
    grid = build_grid(2, 256)
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid)
    prof = build_profile(0.5, 2, 0.1)
    rng = np.random.default_rng(999)

    # center gradient against central differences, 1e-6 relative
    body = random_polygon(rng)
    xi0 = body.centroid
    dirs = grid.nodes
    t = body.support(dirs) - dirs @ xi0
    grad = -(dirs.T @ (prof.dphi(t) * mu.masses))
    d = 1e-6
    center_ok = True
    for j in range(2):
        e = np.zeros(2)
        e[j] = d
        fd = (energy(body, xi0 + e, mu, prof)
              - energy(body, xi0 - e, mu, prof)) / (2 * d)
        center_ok = center_ok and abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j]))

    # outer F-gradient against central differences, 1e-4 relative
    from lpmink.solver import minimize_fixed_eps
    it_body, _, _ = minimize_fixed_eps(mu, prof, grid, SolveOptions(max_iter=25))
    h = it_body.support_values.copy()
    _, _, F0, r0, _ = evaluate_offsets(mu, prof, h)
    outer_ok = True
    for i in rng.choice(len(h), size=20, replace=False):
        e = np.zeros(len(h))
        e[i] = d
        fd = (evaluate_offsets(mu, prof, h + e)[2]
              - evaluate_offsets(mu, prof, h - e)[2]) / (2 * d)
        outer_ok = outer_ok and abs(fd - r0[i]) <= 1e-4 * max(abs(r0[i]), 1e-8)
    _report(9, "gradient validations (center 1e-6, outer 1e-4)",
            center_ok and outer_ok)


def test_criterion_10_group_invariance():
    group = dihedral_group()
    grid = build_grid(2, 256, symmetry=group)

    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return 1.0 + 0.3 * np.cos(4 * ang)

    mu = SphericalMeasure(grid, f(grid.nodes) * grid.weights, group=group)
    M, rep = solve(mu, 0.5)
    worst = 0.0
    for pi in grid.permutations:
        worst = max(worst, float(np.max(np.abs(M.support_values[pi]
                                               - M.support_values))))
    _report(10, "dihedral-invariant measure yields invariant offsets",
            worst <= 1e-6, "worst orbit deviation %.1e" % worst)
