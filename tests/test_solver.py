import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dihedral_group, random_polygon
from lpmink.energy import build_profile, energy, optimal_center
from lpmink.geometry import WulffError, lp_surface_area_measure, wulff_shape
from lpmink.measures import (HypothesisError, SphericalMeasure, density_measure,
                             smooth_discrete)
from lpmink import cli, geometry, solver
from lpmink.solver import (FINISH_TOL, SolveOptions, SolverError, el_residual,
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
    xi_t, _, _ = optimal_center(tri1, mu, prof)
    assert rec.energy <= energy(tri1, xi_t, mu, prof) + 1e-6


def test_energy_monotone_along_descent(grid2):
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    trace = []
    minimize_fixed_eps(mu, prof, SolveOptions(max_iter=300),
                       energy_trace=trace)
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 0.0)


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
    # walk a few steps from the ball to reach a generic iterate
    body, xi, rec = minimize_fixed_eps(mu, prof, SolveOptions(max_iter=25))
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
    assert set(data) >= {"p", "stages", "lambda0", "lambda",
                         "residual_l1", "residual_linf", "converged"}


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


def test_finish_checkpoints_leave_the_descent_unchanged(grid2):
    # a finish that always fails sees the first iterate with max |r| <=
    # 0.1 lambda, the first of each later decade and the last iterate, and
    # the descent is bit-identical to one without it
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid2)
    prof = build_profile(0.5, 2, 0.1)
    opts = SolveOptions(max_iter=300)
    trace, ftrace, seen = [], [], []

    def failing(body, xi, lam, last):
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
    assert report.newton_attempts >= 1
    assert all(s.newton_steps is None for s in report.stages)
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
    assert fin.iterations == 0 and fin.newton_steps >= 1
    assert fin.residual_l1 == report.residual_l1 <= FINISH_TOL
    eps_final = solver.EPS0 * 2.0 ** (-(opts.stages - 1))
    assert fin.eps == eps_final
    # the Euler-Lagrange data of the volume-one body at the final eps
    prof = build_profile(-0.5, 2, eps_final)
    K = M.scaled(1.0 / report.lam)
    assert K.volume == pytest.approx(1.0, rel=1e-12)
    xi, _, _ = optimal_center(K, mu, prof, x0=np.zeros(2))
    r, lam = el_residual(K, xi, mu, prof)
    assert fin.lambda_eps == pytest.approx(lam, rel=1e-12)
    assert fin.residual == pytest.approx(np.max(np.abs(r)) / lam, abs=1e-15)
    assert fin.converged and fin.residual <= 1e-9
    data = fin.to_dict()
    assert data["newton_steps"] == fin.newton_steps
    assert "newton_steps" not in report.stages[0].to_dict()


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


@pytest.mark.parametrize("n,a,p", [(2, 0.4, -1.0), (3, 0.3, 0.5)])
def test_dipole_solve_runs_no_lp(grid2, grid3, no_lp, n, a, p):
    # the pre-flight is certified, the descent starts at the origin and
    # the finish passes the origin as its interior point
    mu = density_measure(lambda U: 1 + a * U[:, 0], grid2 if n == 2 else grid3)
    M, report = solve(mu, p)
    assert report.converged
    assert report.residual_l1 <= 1e-10


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
    # the margin is 1e-6 max(1, max|h|): 1e-6 for the unit square, 1e-5 at 10
    for scale, x in [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0 - 5e-7), (10.0, 10.0 - 5e-6)]:
        with pytest.raises(WulffError):
            wulff_shape(2, square, np.full(4, scale), interior_hint=[x, 0.0])
    for hint in ([0.3, -0.2], [1.0 - 2e-6, 0.0]):
        body = wulff_shape(2, square, np.ones(4), interior_hint=hint)
        assert body.volume == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(np.sort(np.abs(body.vertices), axis=0), 1.0)
    for mu in mus:
        M, report = solve(mu, -1.0)
        assert report.converged and report.residual_l1 <= 1e-9
