import hashlib
import itertools
import json
import logging

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from conftest import dihedral_group, random_polygon
from lpmink.energy import (EnergyProfile, ProfileError, build_profile, energy,
                           optimal_center)
from lpmink.geometry import WulffError, body_to_off, lp_surface_area_measure, wulff_shape
from lpmink.identities import ellipsoid_model
from lpmink.measures import (HypothesisError, SphericalMeasure, density_measure,
                             smooth_discrete, symmetrize_hemisphere)
from lpmink import cli, geometry, solver
from lpmink.solver import (FINISH_TOL, LineSearchError, SolveOptions, SolverError,
                           el_residual, evaluate_offsets, minimize_fixed_eps,
                           newton_finish, solve, verify)
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
        body, xi, rec = minimize_fixed_eps(mu, prof, SolveOptions())
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
    body, xi, rec = minimize_fixed_eps(mu, prof, SolveOptions())
    tri1 = tri.scaled(tri.volume ** -0.5)
    xi_t, _, _, _ = optimal_center(tri1, mu, prof)
    assert rec.energy <= energy(tri1, xi_t, mu, prof) + 1e-6


def test_energy_monotone_along_descent(grid2):
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    trace = []
    minimize_fixed_eps(mu, prof, SolveOptions(max_iter=300),
                       energy_trace=trace)
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 0.0)


def _bordered_direction(body, xi, measure, profile, r, lam):
    """The preconditioned direction from a dense solve of its bordered system."""
    U, S = body.normals, body.facet_areas
    N, n = U.shape
    _, _, _, A = optimal_center(body, measure, profile, x0=xi)
    D = profile.d2phi(body.support_values - U @ xi) * measure.masses
    G = D[:, None] * U
    K = (np.diag(D) - G @ np.linalg.solve(A, G.T)
         - lam * geometry.facet_jacobian(body).toarray())
    B = np.zeros((N + 1 + n, N + 1 + n))
    B[:N, :N] = K
    B[:N, N] = B[N, :N] = S
    B[:N, N + 1:] = U
    B[N + 1:, :N] = U.T
    return np.linalg.solve(B, np.concatenate([-r, np.zeros(1 + n)]))[:N]


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([0.5, 0.0, -1.0]), eps=st.sampled_from([0.1, 0.025]),
       inactive=st.booleans(), group=st.booleans())
@example(n=2, seed=0, p=-1.0, eps=0.1, inactive=True, group=True)
@example(n=3, seed=1, p=0.5, eps=0.1, inactive=True, group=True)
def test_preconditioned_step_solves_the_bordered_system(n, seed, p, eps,
                                                        inactive, group):
    # the Woodbury and bordering solve against a dense solve of
    # (K, S, U; S^T, 0, 0; U^T, 0, 0), at bodies with inactive facets and
    # for measures with a group (the dihedral square's at n = 2, the
    # central symmetry's at n = 3)
    rng = np.random.default_rng(seed)
    mats = (dihedral_group() if n == 2 else [np.eye(3), -np.eye(3)]) if group else None
    grid = build_grid(n, 64 if n == 2 else 60, symmetry=mats)
    odd = 0.0 if group else 0.2
    f = density_measure(lambda U: 1 + 0.3 * U[:, 0] ** 2 * U[:, 1] ** 2
                        + odd * U[:, 0] + 0.2 * np.sum(U ** 4, axis=1), grid).masses
    mu = SphericalMeasure(grid, f, group=mats)
    # a smooth support, which keeps every facet active, moved off center
    U = grid.nodes
    h = mu.orbit_average(1.0 + 0.1 * U @ rng.normal(size=n)
                         + 0.05 * (U ** 2) @ rng.uniform(-1.0, 1.0, n))
    if inactive:
        # push the orbits of three nodes well outside the body
        pushed = np.zeros(len(grid))
        pushed[rng.choice(len(grid), size=3, replace=False)] = 1.0
        h = h + 0.5 * (mu.orbit_average(pushed) > 0)
    prof = build_profile(p, n, eps)
    body, xi, _, r, lam = evaluate_offsets(mu, prof, h)
    assert inactive == bool(np.any(body.facet_areas == 0))
    d = solver._preconditioned_step(body, xi, mu, prof, r, lam)
    dense = _bordered_direction(body, xi, mu, prof, r, lam)
    assert np.linalg.norm(d - dense) <= 1e-10 * np.linalg.norm(dense)
    scale = np.linalg.norm(d)
    assert abs(body.facet_areas @ d) <= 1e-12 * np.linalg.norm(body.facet_areas) * scale
    assert np.all(np.abs(body.normals.T @ d) <= 1e-12 * np.sqrt(len(d)) * scale)
    if group:
        assert np.allclose(mu.orbit_average(d), d, rtol=0, atol=1e-10 * scale)


def test_preconditioned_descent_solves_roundtrip_polygon_1(grid2, caplog):
    # roundtrip2d's polygon 1 at p = -1: the gradient descent alone took
    # 114 steps there, because its first finish attempt failed. Each stage
    # logs its counts of preconditioned and gradient steps
    poly = random_polygon(np.random.default_rng((0, 1)))
    mu = smooth_discrete(poly.normals, lp_surface_area_measure(poly, -1.0),
                         grid2, m=32)
    with caplog.at_level(logging.DEBUG, logger="lpmink.solver"):
        M, report = solve(mu, -1.0)
    assert report.converged and report.newton_attempts == 1
    assert sum(s.iterations for s in report.stages) <= 20
    assert report.residual_l1 <= FINISH_TOL
    records = [rec for rec in caplog.records if rec.name == "lpmink.solver"]
    assert len(records) == len(report.stages) - 1  # the finish logs none
    for rec, stage in zip(records, report.stages):
        eps, preconditioned, gradient = rec.args
        assert rec.levelno == logging.DEBUG and eps == stage.eps
        assert preconditioned + gradient == stage.iterations
    assert sum(rec.args[1] for rec in records) >= 1


@pytest.mark.xfail(raises=SolverError, strict=True,
                   reason="after one preconditioned step the descent on round-trip "
                          "draw 3 at p = -1 runs into the diameter guard")
def test_solve_roundtrip_draw_3_at_p_minus_one(grid2):
    # the gradient descent alone solved this draw in 16 steps; with the
    # preconditioned step, d is never usable after the first step, and the
    # gradient steps drive the energy down and the body past MAX_DIAMETER
    poly = random_polygon(np.random.default_rng((7, 3)))
    mu = smooth_discrete(poly.normals, lp_surface_area_measure(poly, -1.0),
                         grid2, m=32)
    M, report = solve(mu, -1.0)
    assert report.converged and report.residual_l1 <= FINISH_TOL


def test_stationarity_el_identity(grid2):
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0] + 0.2 * U[:, 1], grid2)
    prof = build_profile(-0.5, 2, 0.05)
    body, xi, rec = minimize_fixed_eps(mu, prof, SolveOptions())
    assert rec.converged
    r, lam = el_residual(body, xi, mu, prof)
    assert np.max(np.abs(r)) <= 1e-6 * lam


def test_outer_gradient_matches_finite_differences(grid2):
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    # a fixed non-symmetric body, far from stationary, so that r stands
    # above the central difference's rounding noise; its volume-one
    # support values are the point
    theta = np.arctan2(grid2.nodes[:, 1], grid2.nodes[:, 0])
    h = evaluate_offsets(mu, prof, 1.0 + 0.1 * np.cos(theta - 0.3)
                         + 0.05 * np.sin(3 * theta))[0].support_values.copy()
    body, _, F0, r0, lam = evaluate_offsets(mu, prof, h)
    assert np.all(body.facet_areas > 0)
    assert np.max(np.abs(r0)) >= 1e-3 * lam
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


@pytest.mark.parametrize("n", [2, 3])
def test_a_body_is_scored_with_one_profile_pass(grid2, grid3, monkeypatch, n):
    # the energy is optimal_center's value at its accepted center; only
    # el_residual evaluates phi_eps' once more
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], {2: grid2, 3: grid3}[n])
    prof = build_profile(0.5, n, 0.05)
    calls = {"phi": 0, "dphi": 0}
    for name in calls:
        def counting(self, t, name=name, method=getattr(EnergyProfile, name)):
            calls[name] += 1
            return method(self, t)
        monkeypatch.setattr(EnergyProfile, name, counting)
    body, xi, F, _, _ = evaluate_offsets(mu, prof, np.ones(len(mu.grid)),
                                         xi0=np.zeros(n))
    assert calls == {"phi": 0, "dphi": 1}
    record = solver._finish_record(body, mu, prof)
    assert calls == {"phi": 0, "dphi": 2}
    monkeypatch.undo()
    assert F == energy(body, xi, mu, prof)
    xi_fin, _, _, _ = optimal_center(body, mu, prof, x0=np.zeros(n))
    assert record.energy == energy(body, xi_fin, mu, prof)


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


#: the dipole 1 + 0.4<u, e1> in the plane and a density with no symmetry in space
_SCALE_DENSITIES = {
    2: lambda U: 1 + 0.4 * U[:, 0],
    3: lambda U: 1 + 0.3 * U[:, 0] + 0.2 * U[:, 1] * U[:, 2] + 0.1 * U[:, 2] ** 2,
}


def _scale_deviation(grid, p, c):
    """How far the solve of mass c is from s = c^(1/(n-p)) times that of mass 1.

    The larger of max |h_c / (s h_1) - 1| and max |x_c - s x_1| / (s max h_1)
    for the centroids x.
    """
    f = _SCALE_DENSITIES[grid.dim]
    M1, report = solve(density_measure(f, grid), p)
    assert report.converged
    Mc, report = solve(density_measure(lambda U: c * f(U), grid), p)
    assert report.converged
    s = c ** (1.0 / (grid.dim - p))
    ratio = Mc.support_values / (s * M1.support_values)
    centroid = np.abs(Mc.centroid - s * M1.centroid) / (s * np.max(M1.support_values))
    return float(max(np.max(np.abs(ratio - 1.0)), np.max(centroid)))


def test_solve_scale_consistency(grid2, grid3):
    p = -0.5
    M1, _ = solve(uniform_measure(grid2, 1.3), p)
    M2, _ = solve(uniform_measure(grid2, 2.6), p)
    factor = 2.0 ** (1.0 / (2 - p))
    ratio = M2.support_values / M1.support_values
    assert np.allclose(ratio, factor, rtol=0.02)
    # the body for mass c is c^(1/(n-p)) times the body for mass 1, to
    # rounding, over eighteen decades of mass
    for grid, p, c in itertools.product((grid2, grid3), (0.5, -1.0),
                                        (1e-6, 1e-3, 1e3, 1e6, 1e12)):
        assert _scale_deviation(grid, p, c) <= 1e-12, (grid.dim, p, c)


@pytest.mark.parametrize("n, p, c", [
    pytest.param(n, p, c, marks=pytest.mark.xfail(
        raises=RuntimeWarning, strict=True,
        reason="ROADMAP item 11: the descent's gradient Armijo term "
               "direction @ direction overflows"))
    if (n, p, c) == (3, 0.5, 1e200) else (n, p, c)
    for n, p, c in itertools.product((2, 3), (0.5, -1.0),
                                     (1e-160, 1e-100, 1e-20, 1e-9, 1e100, 1e200))
])
def test_solve_scale_consistency_at_extreme_masses(grid2, grid3, n, p, c):
    grid = {2: grid2, 3: grid3}[n]
    assert _scale_deviation(grid, p, c) <= 1e-12


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
    for pi in mu.permutations:
        assert np.max(np.abs(h[pi] - h)) <= 1e-6


def test_solve_descends_on_the_measure_group_not_the_grid_group():
    # the grid is closed under D4 but the masses are invariant only under
    # {I, -I}; averaging the gradient over D4 stalls the descent
    grid = build_grid(2, 256, symmetry=dihedral_group())
    ang = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    f = 1.0 + 0.3 * np.cos(2 * ang) + 0.2 * np.sin(2 * ang)
    mu = SphericalMeasure(grid, f * grid.weights,
                          group=[np.eye(2), -np.eye(2)])
    M, report = solve(mu, 0.5, SolveOptions(max_iter=300))
    assert report.converged
    assert report.residual_l1 <= 1e-3


def test_hemisphere_chain_matches_each_group_once(node_matches):
    # criterion 07's chain: the grid matches its reflection once, for
    # build_grid and mu0 alike; the simplex rotation, 2.2e-16 from the
    # reflection, is a group of its own; the solve's support sub-grid is a
    # grid of its own
    grid = build_grid(2, 360, symmetry=[np.eye(2), np.diag([-1.0, 1.0])])
    mu = density_measure(lambda U: np.where(
        np.abs(np.arctan2(U[:, 1], U[:, 0])) <= np.pi / 4 + 1e-12, 1.0, 0.0), grid)
    mu0, _, _, _ = symmetrize_hemisphere(mu)
    solve(mu0, 0.5)
    assert node_matches == [2, 2, 2]


def test_solve_rejects_closed_hemisphere_support(grid2):
    mu = density_measure(lambda U: np.where(U[:, 0] >= -1e-12, 1.0, 0.0),
                         grid2)
    with pytest.raises(HypothesisError, match="lpmink symmetrize"):
        solve(mu, 0.5)


def test_solve_report_structure(grid2):
    mu = density_measure(lambda U: 1 + 0.2 * U[:, 0], grid2)
    M, report = solve(mu, 0.5)
    eps_list = [s.eps for s in report.stages]
    assert all(b < a for a, b in zip(eps_list, eps_list[1:]))
    assert report.lambda0 > 0 and report.lam > 0
    data = report.to_dict()
    assert set(data) == {"p", "stages", "newton_attempts", "newton_steps",
                         "lambda0", "lambda", "residual_l1", "residual_linf",
                         "converged"}
    # the finish's record, last, has the keys of every descent stage
    for record in data["stages"]:
        assert set(record) == {"eps", "iterations", "residual", "lambda_eps",
                               "energy", "converged"}


def test_solve_rejects_bad_p(grid2):
    mu = uniform_measure(grid2)
    with pytest.raises(ValueError):
        solve(mu, 1.0)
    with pytest.raises(ValueError):
        solve(mu, -2.0)


def test_solve_rejects_bad_options(grid2):
    mu = uniform_measure(grid2)
    for opts in (SolveOptions(stages=0), SolveOptions(max_iter=-1)):
        with pytest.raises(ValueError, match="stages >= 1"):
            solve(mu, 0.5, opts)
    # max_iter = 0 takes no descent step and tries the finish only
    M, report = solve(mu, 0.5, SolveOptions(max_iter=0))
    assert report.converged
    assert report.stages[0].iterations == 0


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


def test_verify_requires_the_grid_nodes_in_order():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    grid = DirectionGrid(3, nodes, np.full(6, sphere_area(3) / 6))
    cube = wulff_shape(3, nodes, np.ones(6))
    mu = SphericalMeasure(grid, lp_surface_area_measure(cube, 0.5))
    # the same cube with its normals in another order
    with pytest.raises(SolverError, match="grid nodes, in order"):
        verify(wulff_shape(3, nodes[::-1], np.ones(6)), mu, 0.5)


def test_solve_invariant_measure_without_grid_permutations(grid2):
    # a plain grid closed under the measure's group: descent follows the
    # measure's group, so the solution is invariant under it
    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return 1.0 + 0.3 * np.cos(4 * ang)

    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    group = [np.linalg.matrix_power(R, k) for k in range(4)]
    mu = SphericalMeasure(grid2, f(grid2.nodes) * grid2.weights, group=group)
    M, report = solve(mu, 0.5)
    assert report.converged
    assert report.residual_l1 <= 0.01
    h = M.support_values
    for pi in mu.permutations:
        assert np.max(np.abs(h[pi] - h)) <= 1e-6


def _cube_rotations():
    """The 24 proper rotations of the cube: signed permutations with det 1."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            A = np.zeros((3, 3))
            A[range(3), perm] = signs
            if np.linalg.det(A) > 0:
                mats.append(A)
    return mats


@pytest.mark.parametrize("p", [0.5, -1.0])
def test_solve_is_rotation_equivariant_n3(p):
    # a grid closed under the cube's rotations, and a density without
    # symmetry against the same density rotated by R: the solutions must
    # agree through the node permutation R induces
    group = _cube_rotations()
    grid = build_grid(3, 100, symmetry=group)
    assert len(grid) == 2400
    R = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert any(np.array_equal(R, A) for A in group)

    def f(U):
        return 1.0 + 0.3 * U[:, 0] + 0.2 * U[:, 1] * U[:, 2]

    # the rotated density is f(R^T u); the rows of U @ R are R^T u
    M, report = solve(density_measure(f, grid), p)
    M_rot, report_rot = solve(density_measure(lambda U: f(U @ R), grid), p)
    assert report.converged and report_rot.converged
    pi = grid.node_permutations(R[None])[0]
    h, h_rot = M.support_values, M_rot.support_values
    # h_{RK}(R u) = h_K(u)
    assert np.max(np.abs(h_rot[pi] - h)) <= 1e-9 * np.max(np.abs(h))


def test_finish_checkpoints_leave_the_descent_unchanged(grid2):
    # a finish that always fails sees the first iterate with max |r| <=
    # 0.1 lambda, the first of each later decade and the last iterate, and
    # the descent is bit-identical to one without it
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    opts = SolveOptions(max_iter=300)
    trace, ftrace, seen = [], [], []

    def failing(body, xi, lam):
        r, _ = el_residual(body, xi, mu, prof)
        seen.append(float(np.max(np.abs(r))) / lam)
        return False

    body, xi, rec = minimize_fixed_eps(mu, prof, opts, energy_trace=trace)
    fbody, fxi, frec = minimize_fixed_eps(mu, prof, opts, finish=failing,
                                          energy_trace=ftrace)
    assert fbody.support_values.tobytes() == body.support_values.tobytes()
    assert fxi.tobytes() == xi.tobytes()
    assert frec == rec and ftrace == trace
    decades = np.floor(np.log10(seen[:-1]))
    assert seen[0] <= 0.1 and np.all(np.diff(decades) < 0)
    assert seen[-1] == pytest.approx(rec.residual, rel=1e-9)


def test_solve_with_failing_finish_is_the_descent(grid2, monkeypatch, tmp_path):
    mu = density_measure(lambda U: 1 + 0.2 * U[:, 0], grid2)
    monkeypatch.setattr(solver, "newton_finish", lambda *args: None)
    M, report = solve(mu, 0.5)
    assert report.newton_attempts >= 1 and report.newton_steps is None
    # every stage is stationary, but only a finish certifies the body
    assert all(s.converged for s in report.stages) and not report.converged
    assert 1e-6 < report.residual_l1 <= 1e-3
    # the CLI exits 3 and still writes the descent's body
    assert cli.main(["solve", "--n", "2", "--p", "0.5", "--c", "1",
                     "--output-dir", str(tmp_path)]) == 3
    assert (tmp_path / "body.json").exists()
    # the continuation stops at the first stage past the first whose warm
    # start takes no descent step
    assert report.stages[-1].iterations == 0
    assert all(s.iterations > 0 for s in report.stages[:-1])
    assert len(report.stages) < SolveOptions().stages


def test_finish_record_is_honest(grid2):
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    opts = SolveOptions()
    M, report = solve(mu, -0.5, opts)
    fin = report.stages[-1]
    assert report.converged and report.newton_attempts >= 1
    assert fin.iterations == 0 and report.newton_steps >= 1
    assert report.residual_l1 <= FINISH_TOL
    eps_final = solver.EPS0 * 2.0 ** (-(opts.stages - 1))
    assert fin.eps == eps_final
    # the Euler-Lagrange data of the volume-one body at the final eps
    prof = build_profile(-0.5, 2, eps_final)
    K = M.scaled(1.0 / report.lam)
    assert K.volume == pytest.approx(1.0, rel=1e-12)
    xi, _, _, _ = optimal_center(K, mu, prof, x0=np.zeros(2))
    r, lam = el_residual(K, xi, mu, prof)
    assert fin.lambda_eps == pytest.approx(lam, rel=1e-12)
    assert fin.residual == pytest.approx(np.max(np.abs(r)) / lam, abs=1e-15)
    assert fin.converged and fin.residual <= 1e-9
    assert report.to_dict()["newton_steps"] == report.newton_steps


@pytest.mark.parametrize("p", [0.5, -1.0, 0.9])
def test_zero_mass_nodes_leave_the_solve_unchanged(grid2, p):
    # the N = 256 measure on the even nodes of the N = 512 grid, zero on
    # the odd ones: solved on its support, it is the N = 256 solve
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0] + 0.1 * U[:, 1], grid2)
    grid = build_grid(2, 512)
    masses = np.zeros(len(grid))
    masses[::2] = mu.masses
    padded = SphericalMeasure(grid, masses)
    M, report = solve(mu, p)
    Mp, rp = solve(padded, p)
    assert report.converged and rp.converged
    assert np.array_equal(Mp.normals, grid.nodes)
    assert np.max(np.abs(Mp.support_values[::2] - M.support_values)) <= 1e-12
    assert np.all(Mp.facet_areas[1::2] == 0)
    assert verify(Mp, padded, p)[0] <= 1e-9


def test_solve_dipole_near_p_one_reproduces_the_measure(grid2):
    # the descent alone stalls at l1 0.10 here; the solution has support
    # values near 1e-18, which only log-supports can reach
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    M, report = solve(mu, 0.9)
    assert report.converged
    assert report.residual_l1 <= 1e-9
    assert verify(M, mu, 0.9)[0] <= 1e-9
    assert M.support_values.min() < 1e-12


@pytest.mark.parametrize("n,p", [(2, 0.5), (2, 0.0), (2, -1.0), (2, -1.5),
                                 (3, 0.5), (3, -1.0)])
def test_solve_measure_scaling_law(grid2, grid3, n, p):
    # solve(c mu) = c^(1/(n-p)) solve(mu) on the support values
    grid = grid2 if n == 2 else grid3
    f = (lambda U: 1 + 0.4 * U[:, 0]) if n == 2 else (lambda U: 1 + 0.3 * U[:, 0])
    mu = density_measure(f, grid)
    c = 2.7
    cmu = SphericalMeasure(grid, c * mu.masses)
    M1, r1 = solve(mu, p)
    M2, r2 = solve(cmu, p)
    assert r1.converged and r2.converged
    assert max(r1.residual_l1, r2.residual_l1) <= FINISH_TOL
    ratio = M2.support_values / (c ** (1.0 / (n - p)) * M1.support_values)
    assert np.max(np.abs(ratio - 1.0)) <= 1e-9


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-20])
def test_finish_solves_a_dipole_of_small_mass(grid2, c):
    # by the scaling law the finish from the origin works at every mass c:
    # the interior hint's margin, 1e-6 max|h|, shrinks with the body
    mu = density_measure(lambda U: c * (1 + 0.4 * U[:, 0]), grid2)
    M, report = solve(mu, 0.5, SolveOptions(max_iter=0))
    assert report.converged and report.residual_l1 <= 1e-9


@pytest.mark.parametrize("n,a,p", [(2, 0.4, -1.0), (3, 0.3, 0.5), (3, 0.3, 0.9)])
def test_dipole_solve_runs_no_lp(grid2, grid3, no_lp, n, a, p):
    # the pre-flight is certified, the descent starts at the origin and
    # the finish passes the origin as its interior point. Only at p = 0.9
    # does the finish converge after descent steps, each of which solves
    # the n = 3 facet system with 2n + 2 right-hand sides
    mu = density_measure(lambda U: 1 + a * U[:, 0], grid2 if n == 2 else grid3)
    M, report = solve(mu, p)
    assert report.converged
    assert report.residual_l1 <= FINISH_TOL
    assert (sum(stage.iterations for stage in report.stages) > 0) == (p == 0.9)


@pytest.mark.parametrize("p", [0.5, -1.0, 0.9, -1.5])
def test_solve_rotation_equivariance(grid2, p):
    # turning the measure by k nodes of the circle grid turns the solution,
    # and reflecting it through node 0 (k -> -k) or between nodes 0 and 1
    # (k -> 1 - k) reflects it; the density has no mirror symmetry
    masses = density_measure(
        lambda U: 1 + 0.4 * U[:, 0] + 0.1 * U[:, 1] + 0.2 * U[:, 1] ** 2,
        grid2).masses
    M, report = solve(SphericalMeasure(grid2, masses), p)
    assert report.converged
    i = np.arange(len(masses))
    turns = [(i - k) % len(i) for k in (1, 37, 128)]
    for perm in turns + [-i % len(i), (1 - i) % len(i)]:
        Mk, rk = solve(SphericalMeasure(grid2, masses[perm]), p)
        assert rk.converged
        ratio = Mk.support_values / M.support_values[perm]
        assert np.max(np.abs(ratio - 1.0)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([64, 128, 256]), p=st.floats(-1.5, 0.95),
       terms=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2 * np.pi)),
                      min_size=1, max_size=4))
# the optimal center of the first iterate sits on a bridge knot of the
# nearly flat profile, where the energy stops resolving Newton's progress
@example(N=64, p=1.192092896e-07, terms=[(0.5, 0.0)])
# |p| t^(p-1) underflows at a subnormal p
@example(N=64, p=5e-324, terms=[(0.3, 1.0)])
def test_solve_reproduces_random_smooth_densities(N, p, terms):
    # 1 + sum_j a_j cos(j theta + phi_j) with sum |a_j| <= 1/2
    amps = np.array([a for a, _ in terms])
    amps *= min(1.0, 0.5 / max(amps.sum(), 1e-300))
    phases = np.array([phi for _, phi in terms])
    freqs = np.arange(1, len(terms) + 1)

    def density(U):
        theta = np.arctan2(U[:, 1], U[:, 0])
        return 1 + np.cos(np.outer(theta, freqs) + phases) @ amps

    mu = density_measure(density, build_grid(2, N))
    M, report = solve(mu, p)
    assert report.converged
    assert verify(M, mu, p)[0] <= 1e-9


@pytest.mark.parametrize("n,stages", [(3, 400), (2, 600)])
def test_solve_checks_the_final_profile_before_any_descent(n, stages, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the descent started")

    monkeypatch.setattr(solver, "minimize_fixed_eps", refuse)
    mu = uniform_measure(build_grid(n, 100))
    with pytest.raises(ProfileError, match="non-finite"):
        solve(mu, 0.5, SolveOptions(stages=stages))


def _quadratic_density(coeffs):
    # 1 + a.u + u^T B u, B symmetric, scaled so the density stays in [1/2, 3/2]
    a = np.array(coeffs[:3])
    B = np.array([[coeffs[3], coeffs[4], coeffs[5]],
                  [coeffs[4], coeffs[6], coeffs[7]],
                  [coeffs[5], coeffs[7], coeffs[8]]])
    scale = min(1.0, 0.5 / max(np.linalg.norm(a) + np.linalg.norm(B, 2), 1e-300))
    a, B = scale * a, scale * B
    return lambda U: 1 + U @ a + np.einsum("ij,jk,ik->i", U, B, U)


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([100, 250]), p=st.floats(-2.0, 0.95, exclude_min=True),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_solve_reproduces_random_smooth_densities_n3(N, p, coeffs):
    # p > -(n-1); below, the descent fails on some draws (the xfail below)
    mu = density_measure(_quadratic_density(coeffs), build_grid(3, N))
    M, report = solve(mu, p)
    assert report.converged
    assert verify(M, mu, p)[0] <= 1e-9


@pytest.mark.xfail(raises=SolverError, strict=True,
                   reason="the descent fails for some quadratic densities at "
                          "p <= -(n-1) on the 100-node sphere")
def test_solve_random_smooth_density_n3_near_minus_n():
    # a falsifying example of the property above drawn over p in
    # (-2.5, -2]: the descent ends in the diameter guard
    p, coeffs = -2.4889419788694322, [0, 0, 0.9, -0.7566263061358427, 0, 0, 0, 0, 0]
    mu = density_measure(_quadratic_density(coeffs), build_grid(3, 100))
    M, report = solve(mu, p)
    assert report.converged
    assert verify(M, mu, p)[0] <= 1e-9


@pytest.mark.parametrize("p", [0.5, -0.5])
def test_solve_density_vanishing_on_an_arc(grid2, p):
    # passes the hemisphere pre-flight; on the full grid the optimal center
    # of the first iterate failed, on the support the finish converges
    mu = density_measure(lambda U: np.where(U[:, 0] > -0.5, 1.0, 0.0), grid2)
    M, report = solve(mu, p)
    assert report.converged
    assert verify(M, mu, p)[0] <= 1e-9


@pytest.mark.parametrize("p", [0.5, -1.0])
def test_solve_density_vanishing_on_a_cap(grid3, p):
    # 1 + 0.3 u_1 on u_3 > -0.5: on the full grid p = 0.5 raised
    # CenterError and p = -1 ended at l1 2.9e-5 after the whole descent
    mu = density_measure(
        lambda U: np.where(U[:, 2] > -0.5, 1 + 0.3 * U[:, 0], 0.0), grid3)
    M, report = solve(mu, p)
    assert report.converged
    assert report.residual_l1 <= 1e-9
    assert np.all(M.facet_areas[mu.masses == 0] == 0)


def criterion_03_measure(grid, draw, p):
    """The smoothed Lp measure of criterion 03's polygon ``draw`` (from 0)."""
    rng = np.random.default_rng(314)
    for _ in range(draw + 1):
        poly = random_polygon(rng, k=12)
    return smooth_discrete(poly.normals, lp_surface_area_measure(poly, p),
                           grid, m=32)


def test_finish_succeeds_at_the_first_checkpoint_despite_floor_facets(grid2):
    # the floor-density facets carry ~7e-5 of the mean mass but have
    # log-residuals near 5; backtracked on |F|^2 alone they held Newton to
    # tiny steps, and the first five attempts failed (1466 descent steps)
    mu = criterion_03_measure(grid2, 1, 0.5)
    M, report = solve(mu, 0.5)
    assert report.converged and report.newton_attempts == 1
    assert sum(s.iterations for s in report.stages) < 50
    assert report.residual_l1 <= 1e-10


def test_solve_criterion_03_third_polygon_at_p_minus_one(grid2):
    mu = criterion_03_measure(grid2, 2, -1.0)
    M, report = solve(mu, -1.0)
    assert report.residual_l1 <= 1e-9


def test_solve_dipole_at_p_0_99_reproduces_the_measure(grid2):
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    M, report = solve(mu, 0.99)
    assert report.converged
    assert report.residual_l1 <= 1e-9
    assert verify(M, mu, 0.99)[0] <= 1e-9


@pytest.mark.parametrize("N, p", [
    (256, 0.992), (256, 0.993), (512, 0.99),
    *(pytest.param(256, p, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 3: min h underflows; the solve ends at l1 0.19 "
               "after %d finish attempts" % attempts))
      for p, attempts in ((0.995, 15), (0.999, 14))),
])
def test_solve_dipole_just_above_p_0_99(grid2, N, p):
    grid = grid2 if N == 256 else build_grid(2, N)
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid)
    M, report = solve(mu, p)
    assert report.converged and report.residual_l1 <= FINISH_TOL


def test_solve_tries_the_finish_at_every_checkpoint(grid2, monkeypatch):
    # the descent offers the finish at most six checkpoints per stage, and
    # every offer is an attempt; the N = 256 dipole at p = 0.993 offers 15
    offers = []
    real = solver.minimize_fixed_eps

    def counting(*args, finish, **kwargs):
        def offered(*finish_args):
            offers.append(finish_args)
            return finish(*finish_args)
        return real(*args, finish=offered, **kwargs)

    tried = []
    monkeypatch.setattr(solver, "minimize_fixed_eps", counting)
    monkeypatch.setattr(solver, "newton_finish", lambda *args: tried.append(args))
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    M, report = solve(mu, 0.993)
    assert not report.converged
    assert len(offers) > 6 and len(tried) == len(offers)
    assert report.newton_attempts == len(offers)
    assert len(offers) <= 6 * len(report.stages)


def test_line_search_underflow_carries_the_last_iterate(grid2, tmp_path, monkeypatch):
    # every trial after the start fails to build, so both searches of the
    # first step run out of halvings; the dipole at p = 0.9 is not finished
    # from the start, so the descent takes that step
    accepted = []
    real = solver.evaluate_offsets

    def start_only(*args, **kwargs):
        if accepted:
            raise WulffError("a refused trial")
        accepted.append(real(*args, **kwargs))
        return accepted[0]

    monkeypatch.setattr(solver, "evaluate_offsets", start_only)
    with pytest.raises(LineSearchError, match="at iteration 1 ") as failure:
        solve(density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2), 0.9)
    assert failure.value.body is accepted[0][0]
    assert failure.value.body.volume == pytest.approx(1.0, rel=1e-12)
    # the CLI writes the error report alone and exits 3
    accepted.clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "p": 0.9, "grid": {"resolution": 256},
                               "measure": {"density": "dipole", "params": {"a": 0.4}}}))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--output-dir", str(out)]) == 3
    assert [path.name for path in out.iterdir()] == ["report.json"]
    report = json.loads((out / "report.json").read_text())
    assert report == {"command": "solve", "error": str(failure.value)}


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([4, 6, 64, 256]), seed=st.integers(0, 2 ** 32 - 1),
       pair=st.integers(0, 127),
       gap=st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(0.0, 2.0)),
       ulps=st.integers(0, 4))
@example(N=256, seed=0, pair=0, gap=0.0, ulps=0)
@example(N=64, seed=1, pair=5, gap=5e-324, ulps=0)
@example(N=256, seed=2, pair=37, gap=0.0, ulps=1)
def test_collapsed_antipodal_pair_has_no_wulff_shape(N, seed, pair, gap, ulps):
    # offsets with h_i + h_j <= 0 on an antipodal pair bound no interior,
    # so the Wulff shape raises and the descent halves such a trial step:
    # on an even circle grid node i's partner is node (i + N // 2) % N
    grid = build_grid(2, N)
    i = pair % N
    j = (i + N // 2) % N
    assert np.linalg.norm(grid.nodes[i] + grid.nodes[j]) <= 1e-12
    rng = np.random.default_rng(seed)
    # positive offsets: a body with the origin inside, until one pair collapses
    h = rng.uniform(0.5, 2.0, N) * 10.0 ** rng.uniform(-3.0, 2.0)
    wulff_shape(2, grid.nodes, h, validate=False)
    h[j] = -h[i] - gap - ulps * np.spacing(h[i])
    assert h[i] + h[j] <= 0
    for hint in (None, np.zeros(2), rng.uniform(-1.0, 1.0, 2)):
        with pytest.raises(WulffError):
            wulff_shape(2, grid.nodes, h, validate=False, interior_hint=hint)


def test_an_interior_hint_is_a_contract(grid2, monkeypatch):
    # with a hint, wulff_shape never falls back to the Chebyshev LP; energy
    # keeps its own reference, so optimal_center's cold start still works.
    # Criterion 03's third polygon and the benchmark's round-trip polygon 1
    # are built before the LP is refused
    poly = random_polygon(np.random.default_rng((0, 1)), k=12)
    mus = [criterion_03_measure(grid2, 2, -1.0),
           smooth_discrete(poly.normals, lp_surface_area_measure(poly, -1.0),
                           grid2, m=32)]

    def refuse(*args, **kwargs):
        raise AssertionError("wulff_shape ran the Chebyshev LP")

    monkeypatch.setattr(geometry, "chebyshev_center", refuse)
    square = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    # the margin is 1e-6 max|h|: 1e-6 for the unit square, 1e-5 at 10 and
    # 1e-9 at 1e-3
    for scale, x in [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0 - 5e-7), (10.0, 10.0 - 5e-6),
                     (1e-3, 1e-3 - 5e-10)]:
        with pytest.raises(WulffError):
            wulff_shape(2, square, np.full(4, scale), interior_hint=[x, 0.0])
    for scale, hint in [(1.0, [0.3, -0.2]), (1.0, [1.0 - 2e-6, 0.0]),
                        (1e-3, [1e-3 - 2e-9, 0.0])]:
        body = wulff_shape(2, square, np.full(4, scale), interior_hint=hint)
        assert body.volume == pytest.approx(4.0 * scale ** 2, abs=1e-12 * scale ** 2)
        assert np.allclose(np.sort(np.abs(body.vertices), axis=0) / scale, 1.0)
    for mu in mus:
        M, report = solve(mu, -1.0)
        assert report.converged and report.residual_l1 <= 1e-9


def test_newton_finish_builds_no_hull_in_the_plane(grid2, monkeypatch):
    # every finish state is a polygon with all facets active, built in
    # closed form; from the unit circle's circumscribed polygon Newton
    # reaches the dipole's solution without Qhull
    def refuse(*args, **kwargs):
        raise AssertionError("the finish built a hull")

    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    monkeypatch.setattr(geometry, "ConvexHull", refuse)
    body, steps = newton_finish(mu, -1.0, np.ones(len(grid2)))
    assert 1 <= steps <= 10
    assert verify(body, mu, -1.0)[0] <= FINISH_TOL


def _finish_states():
    """(name, measure, p, s) of Newton-finish states with every facet active."""
    grid2 = build_grid(2, 256)
    dipole = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid2)
    states = [("dipole", dipole, p, np.zeros(256)) for p in (-1.0, 0.5)]
    # roundtrip2d's polygon 1, at the descent's start and off it
    poly = random_polygon(np.random.default_rng((0, 1)))
    pool = smooth_discrete(poly.normals, lp_surface_area_measure(poly, -1.0),
                           grid2, m=32)
    states.append(("pool", pool, -1.0, np.zeros(256)))
    states.append(("pool", pool, -1.0, 0.1 * grid2.nodes[:, 1]))
    # a support with uneven angular gaps: zero mass on the odd nodes of
    # the 512-node circle and on every fifth even one
    grid = build_grid(2, 512)
    masses = density_measure(lambda U: 1 + 0.3 * U[:, 1], grid).masses
    masses[1::2] = 0.0
    masses[::10] = 0.0
    sub, _ = SphericalMeasure(grid, masses).on_support()
    states.append(("uneven", sub, 0.5, 0.05 * sub.grid.nodes[:, 0]))
    d4 = build_grid(2, 64, symmetry=dihedral_group())
    square = density_measure(lambda U: 1 + 0.3 * U[:, 0] ** 2 * U[:, 1] ** 2, d4)
    states.append(("d4", square, -0.5, np.zeros(len(d4))))
    grid3 = build_grid(3, 500)
    dipole3 = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid3)
    states.append(("dipole3", dipole3, 0.5, 0.1 * grid3.nodes[:, 2]))
    return states


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_n3_finish_keeps_the_descent_type_without_a_hull(monkeypatch, p):
    # the descent's first body, the grid's unit-offset body, is the one
    # hull of the grid: the finish starts from it scaled, every later state
    # keeps its ridges, and a second solve on the grid reuses it
    hulls = []
    hull = geometry.ConvexHull

    def counted(*args, **kwargs):
        hulls.append(args)
        return hull(*args, **kwargs)

    grid = build_grid(3, 500)
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid)
    monkeypatch.setattr(geometry, "ConvexHull", counted)
    for q, expected in ((p, 1), (-1.0 - p, 0)):
        hulls.clear()
        M, report = solve(mu, q)
        assert report.converged and report.newton_steps == 3
        assert report.residual_l1 <= FINISH_TOL
        assert len(hulls) == expected, q


def _digest(M, report):
    """SHA-256 of a solve's Body.to_dict, SolveReport.to_dict and, at n = 3, OFF mesh."""
    text = json.dumps([M.to_dict(), report.to_dict()])
    if M.dim == 3:
        text += body_to_off(M)
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_grids_start_body_changes_no_result(monkeypatch):
    # n = 3 solves with the unit-offset start body built anew for each
    # solve, then on the same grids, which keep theirs: the dipole and a
    # density without symmetry, a measure with zero-mass nodes (solved on
    # a fresh sub-grid) and a measure with a group on a grid built with it
    mats = [np.eye(3), -np.eye(3)]
    grid, sym = build_grid(3, 500), build_grid(3, 60, symmetry=mats)
    zeros = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid).masses
    zeros[::7] = 0.0
    even = density_measure(lambda U: 1 + 0.3 * U[:, 0] ** 2 * U[:, 1] ** 2, sym)
    measures = [density_measure(lambda U: 1 + 0.3 * U[:, 0], grid),
                density_measure(_SCALE_DENSITIES[3], grid),
                SphericalMeasure(grid, zeros),
                SphericalMeasure(sym, even.masses, group=mats)]
    cases = [(mu, p) for mu in measures for p in (0.5, 0.0, -1.0)]
    with monkeypatch.context() as m:
        m.setattr(DirectionGrid, "unit_offset_body", property(
            lambda g: wulff_shape(3, g.nodes, np.ones(len(g)), validate=False,
                                  interior_hint=np.zeros(3))))
        before = [_digest(*solve(mu, p)) for mu, p in cases]
    assert "unit_offset_body" not in vars(grid)
    for _ in range(2):
        assert [_digest(*solve(mu, p)) for mu, p in cases] == before
    # the grid kept its start body, and a write into it raises
    body = vars(grid)["unit_offset_body"]
    assert grid.unit_offset_body is body
    for a in (body.offsets, body.vertices, body.facet_areas, body.centroid,
              body.support_values, body.ridges.pairs, body.ridges.ends):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # an explicit xi0 builds its own start from unit offsets
    starts = []

    def counted(dim, normals, offsets, **kwargs):
        starts.append(np.all(offsets == 1.0))
        return wulff_shape(dim, normals, offsets, **kwargs)

    monkeypatch.setattr(solver, "wulff_shape", counted)
    profile = build_profile(0.5, 3, 0.1)
    solver.minimize_fixed_eps(measures[0], profile, SolveOptions(max_iter=0),
                              xi0=np.zeros(3))
    assert starts == [True]
    solver.minimize_fixed_eps(measures[0], profile, SolveOptions(max_iter=0))
    assert starts == [True]


def test_newton_step_matches_the_general_solve():
    # the symmetric system B y = -S F gives J's Newton step, with
    # J = (1-p) I + diag(1/S) (dS/dh) diag(h) solved as a general sparse
    # system: on the band at n = 2, and at n = 3 by SuperLU on the states
    # built by wulff_shape and by polytope_same_type from the unit-offset body
    for name, measure, p, s in _finish_states():
        nodes = measure.grid.nodes
        h = np.exp(s)
        hint = np.zeros(measure.dim)
        if measure.dim == 2:
            bodies = [geometry.polygon_all_active(nodes, h, hint)]
        else:
            like = wulff_shape(3, nodes, np.ones(len(h)), interior_hint=hint)
            bodies = [wulff_shape(3, nodes, h, interior_hint=hint),
                      geometry.polytope_same_type(like, h, hint)]
        for body in bodies:
            assert np.all(body.facet_areas > 0), name
            F = (1 - p) * s + np.log(body.facet_areas) - np.log(measure.masses)
            J = geometry.facet_jacobian(body).toarray()
            J = J / body.facet_areas[:, None] * h[None, :] + (1 - p) * np.eye(len(h))
            expected = spsolve(sparse.csr_matrix(J), -F)
            ds = solver._newton_step(body, p, F)
            assert np.max(np.abs(ds - expected)) <= 1e-12 * np.max(np.abs(expected)), name


def test_newton_finish_ends_on_an_exactly_singular_step(monkeypatch):
    # at p = 0 a rectangle's F is unchanged when one pair of sides grows
    # and the other shrinks in proportion (the log-Minkowski rectangles),
    # so J is exactly singular; the finish gives up instead of raising
    grid = DirectionGrid(2, [[1, 0], [0, 1], [-1, 0], [0, -1]], np.full(4, np.pi / 2))
    mu = SphericalMeasure(grid, [1.0, 2.0, 3.0, 2.0])
    h = np.array([1.0, 4.0, 1.0, 4.0])
    body = geometry.polygon_all_active(grid.nodes, h, np.zeros(2))
    J = geometry.facet_jacobian(body).toarray() / body.facet_areas[:, None] * h
    J += np.eye(4)
    assert np.all(J @ [1.0, -1.0, 1.0, -1.0] == 0)
    assert newton_finish(mu, 0.0, h) is None
    # the box [-1, 1] x [-2, 2] x [-4, 4] at p = 0: stretching one axis and
    # shrinking another in proportion leaves F unchanged, so J has a
    # 2-dimensional null space. The offsets survive exp(log h) exactly,
    # so the finish's first state is that box and SuperLU refuses its step
    box = np.vstack([np.eye(3), -np.eye(3)])
    grid = DirectionGrid(3, box, np.full(6, 4.0 * np.pi / 6))
    h = np.array([1.0, 2.0, 4.0, 1.0, 2.0, 4.0])
    mu = SphericalMeasure(grid, h)
    body = wulff_shape(3, box, h, interior_hint=np.zeros(3))
    J = geometry.facet_jacobian(body).toarray() / body.facet_areas[:, None] * h
    J += np.eye(6)
    assert np.linalg.matrix_rank(J) == 4
    refused = []
    splu = scipy.sparse.linalg.splu

    def counted(*args, **kwargs):
        try:
            return splu(*args, **kwargs)
        except RuntimeError:
            refused.append(args)
            raise

    # solve_facet_system imports splu from its module at each n = 3 call
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    assert np.all(np.isnan(solver._newton_step(body, 0.0, np.ones(6))))
    assert newton_finish(mu, 0.0, h) is None
    assert len(refused) == 2


#: the ellipse and ellipsoid of the ladder, their off-centre centres, the
#: N ladder (doubling), and the pinned bounds on the error ratio per
#: doubling and on the finest error (observed 4.00-4.04 and 4.7e-5 at
#: n = 2, 1.93-2.03 and 2.9e-3 at n = 3)
_LADDERS = {2: ((1.3, 0.8), (0.1, -0.05), (64, 128, 256, 512), 3.5, 5e-5),
            3: ((1.2, 0.9, 0.8), (0.1, -0.05, 0.05), (250, 500, 1000), 1.8, 3e-3)}


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
@pytest.mark.parametrize("off_centre", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_discretization_error_is_second_order(n, off_centre, p):
    # the Lp density f_p of an ellipsoid K is a manufactured solution: the
    # solve of its sampled measure approaches h_K at the nodes, with error
    # O(N^-2) on the circle and O(N^-1) = O(spacing^2) on the sphere
    semiaxes, centre, ladder, min_ratio, finest = _LADDERS[n]
    K = ellipsoid_model(semiaxes, center=centre if off_centre else None)
    errors = []
    for N in ladder:
        grid = build_grid(n, N)
        M, report = solve(density_measure(lambda U: K.f_p(U, p), grid), p)
        assert report.converged
        errors.append(np.max(np.abs(M.support_values - K.h(grid.nodes))))
    errors = np.array(errors)
    assert np.all(errors[:-1] / errors[1:] >= min_ratio), errors
    assert errors[-1] <= finest


@settings(max_examples=30, deadline=None)
@given(semiaxes=st.tuples(st.floats(0.7, 1.5), st.floats(0.7, 1.5)),
       radius=st.floats(0.0, 0.3), angle=st.floats(0.0, 2 * np.pi),
       p=st.sampled_from([0.5, 0.0, -1.0]))
def test_discretization_error_is_second_order_for_drawn_ellipses(semiaxes, radius,
                                                                 angle, p):
    # the n = 2 ladder on an ellipse with drawn semiaxes, whose centre lies
    # within 0.3 times the shorter semiaxis of the origin
    _, _, ladder, min_ratio, _ = _LADDERS[2]
    centre = radius * min(semiaxes) * np.array([np.cos(angle), np.sin(angle)])
    K = ellipsoid_model(semiaxes, center=centre)
    errors = []
    for N in ladder:
        grid = build_grid(2, N)
        M, report = solve(density_measure(lambda U: K.f_p(U, p), grid), p)
        assert report.converged
        errors.append(np.max(np.abs(M.support_values - K.h(grid.nodes))))
    errors = np.array(errors)
    assert np.all(errors[:-1] / errors[1:] >= min_ratio), errors
