import copy

import numpy as np
import pytest

from conftest import random_polygon
from lpmink import energy as energy_module
from lpmink.energy import (CenterError, EnergyProfile, ProfileError, build_profile,
                           energy, optimal_center)
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


def _sweep_validate(profile):
    """Reference check: phi_eps' > 0, phi_eps'' < 0 and phi_eps >= -t^(-q)
    on a dense 6000-point sweep of [1e-6, 10] and [eps/2, 4 eps], and
    phi_eps equal to its two closed-form pieces outside the bridge."""
    eps, q = profile.eps, profile.q
    t = np.unique(np.concatenate([np.geomspace(1e-6, 10.0, 4000),
                                  np.linspace(0.5 * eps, 4.0 * eps, 2000)]))
    if np.any(profile.dphi(t) <= 0) or np.any(profile.d2phi(t) >= 0):
        raise ProfileError("not increasing and concave")
    t01 = t[(t > 0) & (t < 1)]
    if np.any(profile.phi(t01) < -(t01 ** (-q)) - 1e-9 * t01 ** (-q)):
        raise ProfileError("below -t^(-q)")
    t_hi = np.linspace(3.0 * eps, 8.0, 200)
    if not np.allclose(profile.phi(t_hi), base_phi(profile.p, t_hi), rtol=0, atol=0):
        raise ProfileError("phi_eps differs from phi above 3 eps")
    t_lo = np.linspace(eps / 50.0, eps, 200)
    if not np.allclose(profile.phi(t_lo), -(t_lo ** (-q)), rtol=0, atol=0):
        raise ProfileError("phi_eps differs from -t^(-q) below eps")


@pytest.mark.parametrize("n", [2, 3])
def test_build_profile_agrees_with_the_sweep_reference(n, monkeypatch):
    # build_profile checks in closed form where it can, and samples only
    # the bridge; it must reject whatever the dense sweep rejects, and keep,
    # bit for bit, what the sweep accepts with finite bridge data
    ps = list(np.linspace(-n, 1.0, 34)[1:-1]) + [
        5e-324, -5e-324, 1e-320, 2.2e-308, -(n - 1) + 1e-12, -(n - 1) - 1e-12,
        -n + 1e-15, 1 - 1e-16]
    counts = {"rejected": 0, "kept": 0, "non-finite": 0}
    for p in map(float, ps):
        for eps in map(float, np.geomspace(1e-120, 0.333, 24)):
            with monkeypatch.context() as m:
                m.setattr(energy_module, "_validate_profile", _sweep_validate)
                try:
                    with np.errstate(all="ignore"):
                        reference = build_profile(p, n, eps)
                except ProfileError:
                    reference = None
            if reference is None:
                with pytest.raises(ProfileError):
                    build_profile(p, n, eps)
                counts["rejected"] += 1
            elif not all(np.all(np.isfinite([c.t0, c.t1, *c.c]))
                         for c in reference.pieces):
                with pytest.raises(ProfileError):
                    build_profile(p, n, eps)
                counts["non-finite"] += 1
            else:
                prof = build_profile(p, n, eps)
                assert (prof.p, prof.eps, prof.q) == (p, eps, reference.q)
                assert [(c.t0, c.t1, _bits(c.c)) for c in prof.pieces] == \
                    [(c.t0, c.t1, _bits(c.c)) for c in reference.pieces]
                counts["kept"] += 1
    # the grid reaches every outcome
    assert min(counts.values()) > 0, counts


def test_validation_rejects_a_nan_cubic_the_sweep_accepts():
    prof = copy.deepcopy(build_profile(0.5, 2, 0.1))
    prof.pieces[-1].c[3] = np.nan
    with np.errstate(all="ignore"):
        _sweep_validate(prof)
    with pytest.raises(ProfileError):
        energy_module._validate_profile(prof)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("n,p", [(2, 0.5), (2, 0.0), (2, -0.5), (2, -1.0), (2, -1.9),
                                 (3, 0.5), (3, -1.0), (3, -2.5)])
@pytest.mark.parametrize("eps", [0.3, 0.1, 0.01])
def test_profile_jet_is_phi_dphi_d2phi_bit_for_bit(n, p, eps):
    prof = build_profile(p, n, eps)
    t = np.concatenate([np.geomspace(eps / 50, eps, 60),
                        np.linspace(eps, 3 * eps, 301),
                        np.geomspace(3 * eps, 10.0, 60)])
    # the sweep crosses every piece
    assert np.any(t < eps) and np.any(t > 3 * eps)
    for cub in prof.pieces:
        assert np.any((t > cub.t0) & (t < cub.t1))
    f, d1, d2 = prof.jet(t)
    assert _bits(f) == _bits(prof.phi(t))
    assert _bits(d1) == _bits(prof.dphi(t))
    assert _bits(d2) == _bits(prof.d2phi(t))
    for s in t[::7]:
        values = prof.jet(float(s))
        assert all(type(v) is float for v in values)
        assert _bits(values) == _bits([prof.phi(s), prof.dphi(s), prof.d2phi(s)])
    for bad in (0.0, -1.0, np.array([1.0, 0.0]), np.array([-eps, eps])):
        with pytest.raises(ValueError):
            prof.jet(bad)


def test_optimal_center_evaluates_each_point_once(monkeypatch):
    # one profile pass per candidate; the accepted one's value, gradient
    # and Hessian carry into the next step
    points = []
    jet = EnergyProfile.jet

    def recording(self, t):
        points.append(np.array(t))
        return jet(self, t)

    def refuse(self, t):
        raise AssertionError("optimal_center evaluated one piece of the jet")

    grid = build_grid(2, 256)
    mu = density_measure(lambda U: 1 + 0.4 * U[:, 0], grid)
    body = random_polygon(np.random.default_rng(5))
    profiles = [build_profile(p, 2, 0.05) for p in (0.5, -1.0)]
    monkeypatch.setattr(EnergyProfile, "jet", recording)
    for name in ("phi", "dphi", "d2phi"):
        monkeypatch.setattr(EnergyProfile, name, refuse)
    for prof in profiles:
        points.clear()
        xi, _, gnorm, A = optimal_center(body, mu, prof)
        assert gnorm <= 1e-10 * mu.total_mass
        assert len(points) >= 3
        assert len({_bits(t) for t in points}) == len(points)


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
        xi, _, gnorm, A = optimal_center(body, mu, prof)
        assert np.linalg.norm(xi) < 1e-9
        assert gnorm <= 1e-10 * mu.total_mass


def test_optimal_center_gradient_condition_random():
    rng = np.random.default_rng(31)
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(0.5, 2, 0.05)
    for _ in range(10):
        body = random_polygon(rng)
        xi, value, gnorm, A = optimal_center(body, mu, prof)
        assert value == energy(body, xi, mu, prof)
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
    xi, _, gnorm, A = optimal_center(body, mu, prof, x0=np.zeros(2))
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
    xi, _, _, _ = optimal_center(body, mu, prof)

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
            xi, _, gnorm, A = optimal_center(body, mu, prof)
            assert np.max(np.linalg.eigvalsh(A)) < 0


def test_energy_blows_down_near_boundary():
    # q > 1 keeps the single-atom penalty above the 1e3 margin at gap 1e-4
    grid = build_grid(2, 256)
    mu = uniform_measure(grid)
    prof = build_profile(-1.5, 2, 0.1)
    body = wulff_shape(2, grid.nodes, np.ones(len(grid)))
    xi_star, _, _, _ = optimal_center(body, mu, prof)
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
