import numpy as np
import pytest

from conftest import dihedral_group
from lpmink.energy import build_profile, energy, optimal_center
from lpmink.geometry import lp_surface_area_measure, wulff_shape
from lpmink.measures import SphericalMeasure, density_measure, smooth_discrete
from lpmink.solver import (SolveOptions, SolverError, el_residual,
                           evaluate_offsets, minimize_fixed_eps, solve, verify)
from lpmink.sphere import DirectionGrid, build_grid, sphere_area, unit_ball_volume


def uniform_measure(grid, c=1.0):
    return density_measure(lambda U: np.full(len(U), c), grid)


def normalized_ball_iterate(measure, profile):
    body, xi, _, r, lam = evaluate_offsets(measure, profile,
                                           np.ones(len(measure.grid)))
    return body, xi, r, lam


@pytest.mark.parametrize("p,c", [(0.5, 1.0), (0.5, 2.0), (-1.0, 1.0), (-0.7, 3.0)])
def test_el_residual_ball_closed_form(grid2, p, c):
    mu = uniform_measure(grid2, c)
    prof = build_profile(p, 2, 0.01)
    body, xi, r, lam = normalized_ball_iterate(mu, prof)
    kappa = unit_ball_volume(2)
    r_ball = kappa ** (-0.5)
    lam_exact = abs(p) * c * kappa * r_ball ** p
    assert lam == pytest.approx(lam_exact, rel=1e-3)
    assert np.max(np.abs(r)) <= 1e-3 * lam


def test_el_residual_algebraic_identity(grid2):
    rng = np.random.default_rng(61)
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 1], grid2)
    prof = build_profile(-0.5, 2, 0.1)
    h = 1.0 + 0.1 * rng.normal(size=len(grid2))
    body, xi, _, r, lam = evaluate_offsets(mu, prof, h)
    lhs = body.support_values @ r - xi @ (r @ body.normals)
    assert abs(lhs) <= 1e-8 * max(1.0, abs(lam))


def test_el_residual_requires_unit_volume(grid2):
    mu = uniform_measure(grid2)
    prof = build_profile(0.5, 2, 0.1)
    body = wulff_shape(2, grid2.nodes, np.ones(len(grid2)))
    with pytest.raises(SolverError):
        el_residual(body, np.zeros(2), mu, prof)


def test_minimize_recovers_disk(grid2):
    kappa = unit_ball_volume(2)
    target = kappa ** (-0.5)
    for p in (0.5, -1.5):
        mu = uniform_measure(grid2)
        prof = build_profile(p, 2, 0.05)
        body, xi, rec = minimize_fixed_eps(mu, prof, grid2, SolveOptions())
        assert rec.converged
        dev = np.abs(body.support_values - target) / target
        assert dev.max() <= 0.02


def test_minimize_beats_generator_energy(grid2):
    # the discrete minimizer must do at least as well as the (normalized)
    # body that generated the measure
    ang = np.array([0.4, 2.3, 4.3])
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    tri = wulff_shape(2, normals, np.array([1.0, 0.7, 1.2]))
    p = 0.5
    mu = smooth_discrete(tri.normals, lp_surface_area_measure(tri, p),
                         grid2, m=32)
    prof = build_profile(p, 2, 0.05)
    body, xi, rec = minimize_fixed_eps(mu, prof, grid2, SolveOptions())
    tri1 = tri.scaled(tri.volume ** -0.5)
    xi_t, _, _ = optimal_center(tri1, mu, prof)
    assert rec.energy <= energy(tri1, xi_t, mu, prof) + 1e-6


def test_energy_monotone_along_descent(grid2):
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    trace = []
    minimize_fixed_eps(mu, prof, grid2, SolveOptions(max_iter=300),
                       energy_trace=trace)
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 0.0)


def test_stationarity_el_identity(grid2):
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0] + 0.2 * U[:, 1], grid2)
    prof = build_profile(-0.5, 2, 0.05)
    body, xi, rec = minimize_fixed_eps(mu, prof, grid2, SolveOptions())
    assert rec.converged
    r, lam = el_residual(body, xi, mu, prof)
    assert np.max(np.abs(r)) <= 1e-6 * lam


def test_outer_gradient_matches_finite_differences(grid2):
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    # walk a few steps from the ball to reach a generic iterate
    body, xi, rec = minimize_fixed_eps(mu, prof, grid2, SolveOptions(max_iter=25))
    h = body.support_values.copy()
    _, _, F0, r0, _ = evaluate_offsets(mu, prof, h)
    rng = np.random.default_rng(67)
    idx = rng.choice(len(h), size=20, replace=False)
    d = 1e-6
    for i in idx:
        e = np.zeros(len(h))
        e[i] = d
        Fp = evaluate_offsets(mu, prof, h + e)[2]
        Fm = evaluate_offsets(mu, prof, h - e)[2]
        fd = (Fp - Fm) / (2 * d)
        assert fd == pytest.approx(r0[i], rel=1e-4, abs=1e-10)


@pytest.mark.parametrize("p,c", [(0.5, None), (0.0, 1.0), (-0.5, None)])
def test_solve_ball_scaling_law(grid2, p, c):
    n = 2
    cval = 2.0 ** (n - p) if c is None else c
    mu = uniform_measure(grid2, cval)
    M, report = solve(mu, p)
    assert report.converged
    target = cval ** (1.0 / (n - p))
    dev = np.abs(M.support_values - target) / target
    assert dev.max() <= 0.02
    assert report.residual_l1 <= 0.02


def test_solve_scale_consistency(grid2):
    p = -0.5
    M1, _ = solve(uniform_measure(grid2, 1.3), p)
    M2, _ = solve(uniform_measure(grid2, 2.6), p)
    factor = 2.0 ** (1.0 / (2 - p))
    ratio = M2.support_values / M1.support_values
    assert np.allclose(ratio, factor, rtol=0.02)


def test_solve_n3_ball(grid3):
    mu = density_measure(lambda U: np.full(len(U), 1.0), grid3)
    M, report = solve(mu, -1.0)
    assert report.converged
    dev = np.abs(M.support_values - 1.0)
    assert dev.max() <= 0.03
    assert report.residual_l1 <= 0.03


def test_solve_g_invariance():
    group = dihedral_group()
    grid = build_grid(2, 256, symmetry=group)

    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return 1.0 + 0.3 * np.cos(4 * ang)

    mu = SphericalMeasure(grid, f(grid.nodes) * grid.weights, group=group)
    M, report = solve(mu, 0.5)
    assert report.converged
    h = M.support_values
    for pi in grid.permutations:
        assert np.max(np.abs(h[pi] - h)) <= 1e-6


def test_solve_report_structure(grid2):
    mu = density_measure(lambda U: 1 + 0.2 * U[:, 0], grid2)
    M, report = solve(mu, 0.5)
    eps_list = [s.eps for s in report.stages]
    assert all(b < a for a, b in zip(eps_list, eps_list[1:]))
    assert report.lambda0 > 0 and report.lam > 0
    data = report.to_dict()
    assert set(data) >= {"p", "stages", "lambda0", "lambda", "touch_mass",
                         "residual_l1", "residual_linf", "converged"}


def test_solve_rejects_bad_p(grid2):
    mu = uniform_measure(grid2)
    with pytest.raises(ValueError):
        solve(mu, 1.0)
    with pytest.raises(ValueError):
        solve(mu, -2.0)


def test_verify_self_comparison():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    grid = DirectionGrid(3, nodes, np.full(6, sphere_area(3) / 6))
    cube = wulff_shape(3, nodes, np.ones(6))
    p = 0.5
    masses = lp_surface_area_measure(cube, p)
    mu = SphericalMeasure(grid, masses)
    l1, linf, sp = verify(cube, mu, p)
    assert l1 <= 1e-12 and linf <= 1e-12
    assert len(sp) == 6


def test_verify_detects_scaling_mismatch():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    grid = DirectionGrid(3, nodes, np.full(6, sphere_area(3) / 6))
    cube = wulff_shape(3, nodes, np.ones(6))
    p = 0.5
    masses = lp_surface_area_measure(cube, p)
    mu = SphericalMeasure(grid, masses)
    doubled = cube.scaled(2.0)
    l1, linf, _ = verify(doubled, mu, p)
    assert l1 == pytest.approx(2.0 ** (3 - p) - 1.0, rel=1e-9)


def test_touch_mass_zero_for_smooth_density(grid2):
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid2)
    M, report = solve(mu, -0.5)
    assert report.touch_mass == 0.0


def test_solve_invariant_measure_without_grid_permutations(grid2):
    # a group-annotated measure on a plain grid falls back to unconstrained
    # descent and still solves
    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return 1.0 + 0.3 * np.cos(4 * ang)

    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    group = [np.linalg.matrix_power(R, k) for k in range(4)]
    mu = SphericalMeasure(grid2, f(grid2.nodes) * grid2.weights, group=group)
    M, report = solve(mu, 0.5)
    assert report.converged
    assert report.residual_l1 <= 0.01
