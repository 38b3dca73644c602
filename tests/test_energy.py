import numpy as np
import pytest

from conftest import random_polygon
from lpmink.energy import CenterError, build_profile, energy, optimal_center
from lpmink.geometry import wulff_shape
from lpmink.measures import density_measure
from lpmink.sphere import build_grid

EPS_SWEEP = (0.3, 0.1, 0.01)
P_SWEEP = (0.9, 0.5, 0.0, -0.5, -1.0, -1.9)


def uniform_measure(grid, c=1.0):
    return density_measure(lambda U: np.full(len(U), c), grid)


def base_phi(p, t):
    if p > 0:
        return t ** p
    if p == 0:
        return np.log(t)
    return -(t ** p)


@pytest.mark.parametrize("p", P_SWEEP)
@pytest.mark.parametrize("eps", EPS_SWEEP)
def test_profile_piece_agreement_exact(p, eps):
    prof = build_profile(p, 2, eps)
    t_hi = np.linspace(3 * eps, 6.0, 500)
    assert np.array_equal(prof.phi(t_hi), base_phi(p, t_hi))
    t_lo = np.linspace(eps / 20, eps, 200)
    assert np.array_equal(prof.phi(t_lo), -(t_lo ** (-prof.q)))


@pytest.mark.parametrize("p", P_SWEEP)
@pytest.mark.parametrize("eps", EPS_SWEEP)
def test_profile_monotone_concave_dominating(p, eps):
    prof = build_profile(p, 2, eps)
    t = np.geomspace(1e-4, 10.0, 10_000)
    assert np.all(prof.dphi(t) > 0)
    assert np.all(prof.d2phi(t) < 0)
    t01 = t[t < 1]
    assert np.all(prof.phi(t01) >= -(t01 ** (-prof.q)) * (1 + 1e-12))


def test_profile_unmodified_for_strongly_negative_p():
    for p in (-1.0, -1.5, -1.9):
        prof = build_profile(p, 2, 0.1)
        assert prof.is_unmodified
        t = np.geomspace(1e-3, 5, 100)
        assert np.allclose(prof.phi(t), -(t ** p), rtol=0, atol=0)
    assert build_profile(-1.0, 2, 0.05).phi(0.5) == pytest.approx(-2.0)
    assert not build_profile(-0.5, 2, 0.1).is_unmodified


def test_profile_point_values():
    prof = build_profile(0.5, 2, 0.1)
    assert prof.phi(1.0) == pytest.approx(1.0)
    assert prof.dphi(1.0) == pytest.approx(0.5)
    prof0 = build_profile(0.0, 2, 0.1)
    assert prof0.phi(0.05) == pytest.approx(-20.0)


def test_profile_q_definition():
    assert build_profile(0.5, 2, 0.1).q == 1.0
    assert build_profile(-1.9, 2, 0.1).q == 1.9
    assert build_profile(0.5, 3, 0.1).q == 2.0
    assert build_profile(-2.5, 3, 0.1).q == 2.5


def test_profile_validation_errors():
    with pytest.raises(ValueError):
        build_profile(1.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_profile(-2.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_profile(0.5, 2, 0.4)
    with pytest.raises(ValueError):
        build_profile(0.5, 2, 0.1).phi(-1.0)


def test_profile_exponent_and_bridge_pieces():
    prof = build_profile(0.5, 2, 0.1)
    assert prof.q == 1.0
    assert len(prof.pieces) in (1, 2)


def test_energy_constant_on_disk_like_body():
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    body = wulff_shape(2, grid.nodes, np.ones(len(grid)))
    prof = build_profile(0.5, 2, 0.01)
    val = energy(body, np.zeros(2), mu, prof)
    # phi(1) = 1 against total mass 2 pi
    assert val == pytest.approx(2 * np.pi, rel=0.01)
    val_off = energy(body, np.array([0.3, 0.0]), mu, prof)
    assert val_off < val


def test_energy_log_square_axis_atoms():
    grid = build_grid(2, 8)
    # keep only the four axis atoms
    masses = np.where(np.abs(np.abs(grid.nodes).max(axis=1) - 1.0) < 1e-12, 1.0, 0.0)
    from lpmink.measures import SphericalMeasure
    mu = SphericalMeasure(grid, masses)
    body = wulff_shape(2, np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float),
                       np.ones(4))
    prof = build_profile(0.0, 2, 0.01)
    assert energy(body, np.zeros(2), mu, prof) == pytest.approx(0.0, abs=1e-14)


def test_energy_requires_interior_center():
    grid = build_grid(2, 64)
    mu = uniform_measure(grid)
    body = wulff_shape(2, grid.nodes, np.ones(len(grid)))
    with pytest.raises(CenterError):
        energy(body, np.array([2.0, 0.0]), mu, prof := build_profile(0.5, 2, 0.1))


def test_optimal_center_square_symmetry():
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    body = wulff_shape(2, np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float),
                       np.ones(4))
    for p in (0.5, 0.0, -1.0):
        prof = build_profile(p, 2, 0.1)
        xi, gnorm, A = optimal_center(body, mu, prof)
        assert np.linalg.norm(xi) < 1e-9
        assert gnorm <= 1e-10 * mu.total_mass


def test_optimal_center_gradient_condition_random():
    rng = np.random.default_rng(31)
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(0.5, 2, 0.05)
    for _ in range(10):
        body = random_polygon(rng)
        xi, gnorm, A = optimal_center(body, mu, prof)
        assert gnorm <= 1e-10 * mu.total_mass
        dirs = grid.nodes
        t = body.support(dirs) - dirs @ xi
        g = dirs.T @ (prof.dphi(t) * mu.masses)
        assert np.linalg.norm(g) <= 1e-10 * mu.total_mass


def test_optimal_center_converges_where_the_value_stops_resolving():
    # a solve's first iterate for 1 + 0.5 cos(theta) at p = 1.192092896e-07:
    # the optimum sits on a bridge knot of the nearly flat profile, so the
    # value stops resolving Newton's progress far above the machine floor
    # and only steps that shrink the gradient norm reach the tolerance
    grid = build_grid(2, 64)
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], grid)
    raw = wulff_shape(2, grid.nodes, np.ones(len(grid)))
    body = raw.scaled(raw.volume ** -0.5)
    prof = build_profile(1.192092896e-07, 2, 0.1)
    xi, gnorm, A = optimal_center(body, mu, prof, x0=np.zeros(2))
    assert gnorm <= 1e-10 * mu.total_mass
    assert body.interior_gap(xi) > 0
    assert np.max(np.linalg.eigvalsh(A)) < 0


def test_optimal_center_matches_grid_search_oracle():
    # asymmetric triangle, p = 1/2, f = 1, eps = 0.05
    ang = np.array([0.3, 2.2, 4.4])
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    body = wulff_shape(2, normals, np.array([1.0, 0.6, 1.1]))
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(0.5, 2, 0.05)
    xi, _, _ = optimal_center(body, mu, prof)

    # brute-force maximization over a refining lattice inside the body
    lo = body.vertices.min(axis=0)
    hi = body.vertices.max(axis=0)
    best = None
    for _ in range(5):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        for x in xs:
            for y in ys:
                cand = np.array([x, y])
                if body.interior_gap(cand) <= 1e-9:
                    continue
                val = energy(body, cand, mu, prof)
                if best is None or val > best[0]:
                    best = (val, cand)
        span = (hi - lo) / 8.0
        lo, hi = best[1] - span, best[1] + span
    assert np.linalg.norm(xi - best[1]) < 1e-4


def test_energy_concave_in_center():
    rng = np.random.default_rng(47)
    grid = build_grid(2, 128)
    mu = uniform_measure(grid)
    prof = build_profile(-0.5, 2, 0.1)
    checked = 0
    while checked < 1000:
        body = random_polygon(rng, k=8)
        for _ in range(50):
            x1 = body.centroid + rng.normal(scale=0.1, size=2)
            x2 = body.centroid + rng.normal(scale=0.1, size=2)
            lam = rng.uniform()
            mid = lam * x1 + (1 - lam) * x2
            if min(body.interior_gap(x1), body.interior_gap(x2),
                   body.interior_gap(mid)) <= 1e-6:
                continue
            f1, f2 = energy(body, x1, mu, prof), energy(body, x2, mu, prof)
            fm = energy(body, mid, mu, prof)
            assert fm >= lam * f1 + (1 - lam) * f2 - 1e-12
            checked += 1
            if checked == 1000:
                break


def test_center_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(0.5, 2, 0.1)
    body = random_polygon(rng)
    xi0 = body.centroid
    dirs = grid.nodes
    t = body.support(dirs) - dirs @ xi0
    grad = -(dirs.T @ (prof.dphi(t) * mu.masses))
    d = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = d
        fp = energy(body, xi0 + e, mu, prof)
        fm = energy(body, xi0 - e, mu, prof)
        fd = (fp - fm) / (2 * d)
        assert fd == pytest.approx(grad[j], rel=1e-6, abs=1e-9)


def test_center_hessian_negative_definite():
    rng = np.random.default_rng(59)
    grid = build_grid(2, 128)
    mu = uniform_measure(grid)
    for p in (0.5, 0.0, -1.5):
        prof = build_profile(p, 2, 0.1)
        for _ in range(5):
            body = random_polygon(rng)
            xi, gnorm, A = optimal_center(body, mu, prof)
            assert np.max(np.linalg.eigvalsh(A)) < 0


def test_energy_blows_down_near_boundary():
    # q > 1 keeps the single-atom penalty above the 1e3 margin at gap 1e-4
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(-1.5, 2, 0.1)
    body = wulff_shape(2, grid.nodes, np.ones(len(grid)))
    xi_star, _, _ = optimal_center(body, mu, prof)
    f_star = energy(body, xi_star, mu, prof)
    xi_near = np.array([1.0 - 1e-4, 0.0])
    assert energy(body, xi_near, mu, prof) < f_star - 1e3


@pytest.mark.parametrize("n,N,scale", [(3, 200, 1e-80), (2, 64, 1e-110)])
def test_optimal_center_raises_center_error_on_a_non_finite_hessian(n, N, scale):
    # phi_eps'' overflows on a body far below the eps scale; the machine
    # floor test's spectral norm then raised numpy's LinAlgError
    grid = build_grid(n, N)
    body = wulff_shape(n, grid.nodes, np.ones(N)).scaled(scale)
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid)
    prof = build_profile(0.99, n, 0.1)
    with np.errstate(all="ignore"), pytest.raises(CenterError):
        optimal_center(body, mu, prof, x0=np.zeros(n))
