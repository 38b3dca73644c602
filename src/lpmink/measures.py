"""Spherical measures and the approximation/symmetrization pipeline.

Measures are stored as nonnegative masses on the nodes of a DirectionGrid.
The module provides density sampling, the pointwise density truncation onto
[1/m, m], Dirichlet-Voronoi smoothing of raw atomic measures into strictly
positive densities, hemisphere symmetrization with the cone restriction
data, and the hypothesis checkers (subspace concentration, positive hull).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from lpmink.sphere import (DirectionGrid, GridError, node_permutations,
                           sphere_area, validate_group)


class MeasureError(ValueError):
    """Invalid measure data or incompatible grid."""


class HypothesisError(MeasureError):
    """An existence hypothesis of the solvability theory is violated."""


class SphericalMeasure:
    """Finite Borel measure as weighted atoms on grid directions.

    Attributes
    ----------
    grid : DirectionGrid
    masses : ndarray, shape (N,)
        Nonnegative atom masses aligned with grid nodes.
    density_bounds : (float, float) or None
        (tau1, tau2) when the measure samples a density f with
        tau1 <= f <= tau2 on the nodes.
    group : list of ndarray or None
        Finite orthogonal invariance group; the solver descends on the
        subspace of offsets invariant under it.
    permutations : list of ndarray or None
        For each group element A, the index array ``pi`` with
        ``nodes[pi[i]] == A @ nodes[i]`` up to matching tolerance.
    """

    def __init__(self, grid, masses, density_bounds=None, group=None):
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (len(grid),):
            raise MeasureError("masses must align with grid nodes")
        if np.any(masses < 0):
            raise MeasureError("atom masses must be nonnegative")
        if masses.sum() <= 0:
            raise MeasureError("measure must have positive total mass")
        if density_bounds is not None:
            t1, t2 = density_bounds
            lo = t1 * grid.weights - 1e-9 * t2 * grid.weights
            hi = t2 * grid.weights + 1e-9 * t2 * grid.weights
            if np.any(masses < lo) or np.any(masses > hi):
                raise MeasureError("masses violate the declared density bounds")
        self.grid = grid
        self.masses = masses
        self.density_bounds = density_bounds
        self.group = None
        self.permutations = None
        if group is not None:
            try:
                self.group = validate_group(group, grid.dim)
                self.permutations = node_permutations(grid.nodes, self.group)
            except GridError as exc:
                raise MeasureError("invalid invariance group: %s" % exc) from exc
            scale = max(masses.max(), 1e-300)
            for pi in self.permutations:
                if np.max(np.abs(masses[pi] - masses)) > 1e-8 * scale:
                    raise MeasureError("masses are not invariant under the group")

    def orbit_average(self, values):
        """Average a per-node vector over the orbits of the measure's group.

        Returns ``values`` unchanged for measures without a group.
        """
        values = np.asarray(values, dtype=float)
        if self.permutations is None:
            return values
        acc = np.zeros_like(values)
        for pi in self.permutations:
            acc[pi] += values
        return acc / len(self.permutations)

    @property
    def dim(self):
        return self.grid.dim

    @property
    def total_mass(self):
        return float(self.masses.sum())

    def on_support(self):
        """The measure restricted to its positive-mass nodes, and their indices.

        Returns ``self`` when every mass is positive. Otherwise the
        restriction lives on the sub-grid of those nodes, keeps the group
        (the support of an invariant measure is invariant) and drops the
        density bounds. The sub-grid's weights are rescaled to sum to the
        sphere area, as every DirectionGrid's must: that check guards grids
        read from outside the program, and nothing that reads a
        restriction uses its weights.
        """
        support = np.flatnonzero(self.masses > 0)
        if len(support) == len(self.masses):
            return self, support
        weights = self.grid.weights[support]
        grid = DirectionGrid(self.dim, self.grid.nodes[support],
                             weights * (sphere_area(self.dim) / weights.sum()))
        return SphericalMeasure(grid, self.masses[support], group=self.group), support

    def to_dict(self):
        sub, _ = self.on_support()
        return {
            "dim": self.dim,
            "atoms": [
                {"u": u.tolist(), "mass": float(m)}
                for u, m in zip(sub.grid.nodes, sub.masses)
            ],
            "density_bounds": list(self.density_bounds) if self.density_bounds else None,
        }


def density_measure(f, grid):
    """Sample the density f on the grid: mass_a = f(u_a) * w_a.

    Records (min f, max f) over the nodes as density bounds when the
    sampled density is strictly positive.
    """
    try:
        vals = np.asarray(f(grid.nodes), dtype=float)
        if vals.shape != (len(grid),):
            raise TypeError
    except Exception:
        vals = np.array([float(f(u)) for u in grid.nodes])
    if np.any(vals < 0):
        raise MeasureError("density must be nonnegative on the nodes")
    if vals.max() <= 0:
        raise MeasureError("density sampled identically zero")
    bounds = (float(vals.min()), float(vals.max())) if vals.min() > 0 else None
    return SphericalMeasure(grid, vals * grid.weights, density_bounds=bounds)


def truncate_density(f, m):
    """Clamp a density into [1/m, m] pointwise (m if f >= m, 1/m if f <= 1/m)."""
    if m < 2:
        raise MeasureError("truncation level m must be at least 2")

    def f_m(u):
        return np.clip(f(u), 1.0 / m, float(m))

    return f_m


def _orbit_angles(points_a, points_b, mats):
    """Pairwise geodesic distances min over group elements of angle(A a, b)."""
    best = None
    for A in mats:
        dots = (points_a @ np.asarray(A, dtype=float).T) @ points_b.T
        best = dots if best is None else np.maximum(best, dots)
    return np.arccos(np.clip(best, -1.0, 1.0))


def smooth_discrete(directions, masses, grid, group=None, m=8):
    """Dirichlet-Voronoi smoothing of a raw atomic measure onto the grid.

    The sphere (in the orbit space when a group is given) is partitioned
    into Voronoi cells of a greedily constructed 1/m-net of grid nodes;
    each cell receives the constant density mu(cell)/area(cell) plus the
    floor 1/(#cells)^2. Ties on cell boundaries go to the lowest-index
    cell. The result is strictly positive and G-invariant when the raw
    measure and grid are.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    if m < 2:
        raise MeasureError("net resolution m must be at least 2")
    if len(directions) != len(masses) or np.any(masses < 0) or masses.sum() <= 0:
        raise MeasureError("raw measure must have nonnegative masses, positive total")
    norms = np.linalg.norm(directions, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise MeasureError("raw atom directions must be unit vectors")
    mats = [np.eye(grid.dim)]
    if group is not None:
        mats = validate_group(group, grid.dim)
        try:
            node_permutations(grid.nodes, mats)
        except GridError as exc:
            raise MeasureError("grid is not closed under the smoothing group") from exc

    nodes = grid.nodes
    # greedy farthest-point net on the nodes in orbit distance
    node_dist = _orbit_angles(nodes, nodes, mats)
    centers = [0]
    dist_to_net = node_dist[0].copy()
    while dist_to_net.max() > 1.0 / m and len(centers) < len(nodes):
        nxt = int(np.argmax(dist_to_net))
        centers.append(nxt)
        dist_to_net = np.minimum(dist_to_net, node_dist[nxt])
    centers = np.array(sorted(centers))

    # assign nodes and raw atoms to the nearest center; ties -> lowest index
    d_nodes = node_dist[centers]  # (k, N)
    cell_of_node = np.argmin(d_nodes, axis=0)
    d_atoms = _orbit_angles(nodes[centers], directions, mats)
    cell_of_atom = np.argmin(d_atoms, axis=0)

    k = len(centers)
    cell_area = np.zeros(k)
    np.add.at(cell_area, cell_of_node, grid.weights)
    cell_mass = np.zeros(k)
    np.add.at(cell_mass, cell_of_atom, masses)

    floor = 1.0 / k ** 2
    cell_density = cell_mass / cell_area + floor
    node_density = cell_density[cell_of_node]
    return SphericalMeasure(
        grid, node_density * grid.weights,
        density_bounds=(float(node_density.min()), float(node_density.max())),
        group=group)


def _distinct_atoms(measure, tol=1e-10):
    """Merge coincident support directions, returning (dirs, masses).

    Scanning the support in index order, a direction joins the
    lowest-index representative within ``tol`` of it, or else becomes a
    representative; representatives keep their order and collect their
    members' masses in index order.
    """
    sub, _ = measure.on_support()
    dirs, masses = sub.grid.nodes, sub.masses
    pairs = cKDTree(dirs).query_pairs(tol, output_type="ndarray")
    if len(pairs) == 0:
        return dirs, masses
    rep = np.arange(len(dirs))
    # pairs (i < j) by j, then i: each j meets its lowest representative first
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]:
        if rep[j] == j and rep[i] == i:
            rep[j] = i
    keep = rep == np.arange(len(dirs))
    slot = np.cumsum(keep) - 1
    return dirs[keep], np.bincount(slot[rep], weights=masses)


def _linear_span(dirs, tol=1e-9):
    """Orthonormal basis of the linear span of the directions."""
    _, s, vt = np.linalg.svd(dirs, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return vt[:rank].T  # (n, rank)


def _positive_hull_lp(dirs):
    """Whether the origin is a strictly positive combination of dirs."""
    k, n = dirs.shape
    # max delta s.t. sum lambda_j u_j = 0, sum lambda = 1, lambda_j >= delta;
    # with lambda_j = delta + s_j, s_j >= 0 the LP has n + 1 equality rows
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([dirs.T, dirs.sum(axis=0)[:, None]]),
                      np.append(np.ones(k), k)])
    b_eq = np.zeros(n + 1)
    b_eq[-1] = 1.0
    res = linprog(c, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * k + [(None, None)], method="highs")
    return bool(res.success and -res.fun > 1e-10)


@dataclass
class PositiveHullReport:
    passes: bool
    L_dim: int
    pos_equals_L: bool
    antipodal_pair: bool = False
    detail: str = ""


def positive_hull_check(measure):
    """Decide the p in (0,1) existence hypothesis on the support.

    Passes when the support spans R^n, or when dim L <= n-1 and the
    positive hull of the support is a proper subset of L = lin supp.
    The positive hull equals L exactly when the origin lies in the
    relative interior of the convex hull of the support.

    The projection lambda of the all-ones vector onto the null space of
    the atoms, lambda_j = 1 + <a, d_j> with (D^T D) a = -D^T 1 for the
    atoms D in span coordinates, is a certificate: sum lambda_j d_j = 0,
    so a clearly positive lambda settles the question without the LP.
    """
    dirs, _ = _distinct_atoms(measure)
    n = measure.dim
    basis = _linear_span(dirs)
    L_dim = basis.shape[1]

    D = dirs @ basis
    lam = 1.0 + D @ np.linalg.solve(D.T @ D, -D.sum(axis=0))
    # with k = L_dim atoms lambda is 0 up to rounding, so the margin is
    # absolute as well as relative
    certified = (lam.min() > max(1e-6, 1e-8 * lam.sum())
                 and np.linalg.norm(lam @ D) <= 1e-9 * lam.sum())
    pos_equals_L = bool(certified) or _positive_hull_lp(dirs)

    antipodal = (len(dirs) == 2 and np.linalg.norm(dirs[0] + dirs[1]) <= 1e-9)
    if L_dim == n:
        return PositiveHullReport(True, L_dim, pos_equals_L,
                                  detail="support spans the ambient space")
    if pos_equals_L:
        detail = "positive hull equals lin supp"
        if antipodal:
            detail = "antipodal pair"
        return PositiveHullReport(False, L_dim, True, antipodal, detail)
    return PositiveHullReport(True, L_dim, False, antipodal,
                              detail="positive hull is a proper cone of lin supp")


@dataclass
class SubspaceWitness:
    dim: int
    ratio: float
    equality: bool
    complement_exists: bool
    atom_indices: list


@dataclass
class SubspaceConcentrationReport:
    satisfied: bool
    worst_ratio: float
    witnesses: list = field(default_factory=list)


#: entries in one (block rows x atoms) array of the subspace candidate scan
_SCAN_BLOCK = 1 << 13


def _line_distances(rows, dirs):
    """|u ^ v|, the distance of each atom v from the line through each row u.

    Summed squares of the 2 x 2 minors: no cancellation near u = +-v.
    """
    n = dirs.shape[1]
    sq = np.zeros((len(rows), len(dirs)))
    for a in range(n):
        for b in range(a + 1, n):
            minor = np.outer(rows[:, a], dirs[:, b]) - np.outer(rows[:, b], dirs[:, a])
            sq += minor * minor
    return np.sqrt(sq)


def _planes_through(rows, dirs, dist, tol):
    """Split the atoms off each row's line into the planes through the row.

    An atom v off the line of u sits at the angle, mod pi, of its
    projection p onto u^perp (|p| = dist). Sorted by angle, consecutive
    atoms a, b share a plane through u while max(|p_a|, |p_b|) times their
    angle gap, each one's distance from the other's plane, is at most
    ``tol``; the circle of angles is cut at its widest gap, so no run
    wraps. Returns (members, starts, owner): run r is the atoms
    members[starts[r]:starts[r + 1]] and passes through rows[owner[r]].
    """
    axis = np.eye(3)[np.argmin(np.abs(rows), axis=1)]
    e1 = np.cross(rows, axis)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(rows, e1)
    off = dist > tol
    # atoms on the line sort last, behind the sentinel angle 2 pi
    theta = np.where(off, np.arctan2(e2 @ dirs.T, e1 @ dirs.T) % np.pi, 2 * np.pi)
    order = np.argsort(theta, axis=1, kind="stable")
    theta = np.take_along_axis(theta, order, axis=1)
    radius = np.take_along_axis(dist, order, axis=1)
    count = off.sum(axis=1)[:, None]
    pos = np.arange(dirs.shape[0])
    valid = pos < count
    # gap after each sorted atom; the last one's wraps to the first + pi
    wrap = pos == count - 1
    next_theta = np.where(wrap, theta[:, :1] + np.pi, np.roll(theta, -1, axis=1))
    next_radius = np.where(wrap, radius[:, :1], np.roll(radius, -1, axis=1))
    gap = np.where(valid, np.maximum(radius, next_radius) * (next_theta - theta),
                   -np.inf)
    shift = np.argmax(gap, axis=1)[:, None] + 1
    src = np.where(valid, (pos + shift) % np.maximum(count, 1), pos)
    order = np.take_along_axis(order, src, axis=1)
    ends = np.take_along_axis(gap > tol, src, axis=1)
    start = np.ones_like(ends)
    start[:, 1:] = ends[:, :-1]
    start &= valid
    return order[valid], np.flatnonzero(start[valid]), np.nonzero(start)[0]


def subspace_concentration_check(measure, tol=1e-9):
    """Check mu(L cap S^{n-1}) <= (dim L / n) mu(S^{n-1}) over atom-spanned L.

    At equality, also verifies that a complementary subspace L' containing
    the remaining support exists. Exact for atomic measures: any extremal
    subspace is spanned by support atoms.

    A candidate subspace is its set of atoms, and an atom lies in L when
    its distance from L is at most ``tol``: |u ^ v| <= tol for the line
    through v, |<u, w>| <= tol for a plane with unit normal w. Lines are
    taken through every atom and, for n = 3, planes through every pair
    of atoms off one line; ``_planes_through`` groups the planes through
    each atom by one angle sort. Each subspace is counted once, at its
    lowest-index atom. Witnesses list lines by that atom, then planes by
    their lowest (i, j) pair. Cost O(k^2 log k) time and O(k) memory per
    atom for k distinct atoms.
    """
    dirs, masses = _distinct_atoms(measure)
    n = measure.dim
    total = masses.sum()
    k = len(dirs)

    # each candidate as (dim, lowest atom i, lowest atom j off i's line);
    # only those near their limit can be witnesses: their atom sets are
    # kept and their ratios summed again in atom order below
    floor = {d: 1.0 - (tol + 1e-12) * n / d for d in (1, 2)}
    atom_sets, worst = {}, 0.0
    step = max(1, _SCAN_BLOCK // k)
    for b in range(0, k, step):
        block = np.arange(b, min(b + step, k))
        dist = _line_distances(dirs[block], dirs)
        on_line = dist <= tol
        lowest = np.argmax(on_line, axis=1) == block
        line_mass = on_line @ masses
        rows = np.flatnonzero(lowest)
        scaled = line_mass[rows] / total * n
        worst = max(worst, scaled.max(initial=0.0))
        for r in rows[scaled >= floor[1]]:
            atom_sets[1, int(block[r]), -1] = on_line[r].copy()
        if n == 3:
            members, starts, owner = _planes_through(dirs[block], dirs, dist, tol)
            if len(starts) == 0:
                continue
            low = np.minimum.reduceat(members, starts)
            runs = np.flatnonzero(lowest[owner] & (low > block[owner]))
            mass = line_mass[owner[runs]] + np.add.reduceat(masses[members], starts)[runs]
            scaled = mass / total * n / 2
            worst = max(worst, scaled.max(initial=0.0))
            bounds = np.append(starts, len(members))
            for r in runs[scaled >= floor[2]]:
                on = on_line[owner[r]].copy()
                on[members[bounds[r]:bounds[r + 1]]] = True
                atom_sets[2, int(block[owner[r]]), int(low[r])] = on

    report = SubspaceConcentrationReport(satisfied=True, worst_ratio=float(worst))
    for (dim_L, i, j), on in sorted(atom_sets.items()):
        span_rows = dirs[[i, j] if dim_L == 2 else [i]]
        ratio = float(masses[on].sum() / total)
        limit = dim_L / n
        equality = abs(ratio - limit) <= tol
        complement_ok = False
        if equality:
            rest = dirs[~on]
            if len(rest) == 0:
                complement_ok = True
            else:
                rest_basis = _linear_span(rest)
                L_basis = _linear_span(span_rows)
                stacked = np.hstack([L_basis, rest_basis])
                full_rank = (np.linalg.matrix_rank(stacked, tol=1e-9)
                             == L_basis.shape[1] + rest_basis.shape[1])
                complement_ok = (rest_basis.shape[1] <= n - dim_L) and full_rank
        witness = SubspaceWitness(dim_L, ratio, equality, complement_ok,
                                  np.nonzero(on)[0].tolist())
        if ratio > limit + tol or (equality and not complement_ok):
            report.satisfied = False
            report.witnesses.append(witness)
        elif equality:
            report.witnesses.append(witness)
        report.worst_ratio = max(report.worst_ratio, ratio / limit)
    return report


def _regular_simplex(d):
    """d+1 unit vectors in R^d with pairwise inner product -1/d."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    sub = _regular_simplex(d - 1)
    scale = np.sqrt(1.0 - 1.0 / d ** 2)
    verts = [np.concatenate([[1.0], np.zeros(d - 1)])]
    for s in sub:
        verts.append(np.concatenate([[-1.0 / d], scale * s]))
    return np.array(verts)


def _orthonormal_extension(seed, orthogonal_to, dim_target):
    """Gram-Schmidt frame seeded by ``seed`` inside the complement of a basis."""
    n = len(seed)
    proj_out = orthogonal_to  # (n, r) orthonormal columns or empty
    basis = []

    def project(v):
        w = v.copy()
        if proj_out.shape[1]:
            w -= proj_out @ (proj_out.T @ w)
        for b in basis:
            w -= b * (b @ w)
        return w

    w0 = project(seed)
    basis.append(w0 / np.linalg.norm(w0))
    for i in range(n):
        if len(basis) == dim_target:
            break
        w = project(np.eye(n)[i])
        nw = np.linalg.norm(w)
        if nw > 1e-9:
            basis.append(w / nw)
    if len(basis) != dim_target:
        raise MeasureError("failed to build an orthonormal frame (dimension bookkeeping)")
    return np.column_stack(basis)


def symmetrize_hemisphere(measure):
    """Symmetrize a hemisphere-supported measure per the simplex construction.

    Finds a direction v0 in the relative interior of pos supp mu with
    <u, v0> >= 0 on the support, builds the regular d-simplex v0..vd in the
    orthogonal complement of L-tilde = lin supp cap v0-perp, the cyclic
    rotation A with A v_i = v_{i+1}, and returns:

        (mu0, simplex_vertices, A, cone_normals)

    where mu0(omega) = sum_i mu(A^i omega) lives on the same grid and
    ``cone_normals`` lists the inner normals w_j of the Dirichlet-Voronoi
    cone D(v0) = {x : <x, w_j> >= 0}.
    """
    sub, _ = measure.on_support()
    hull_report = positive_hull_check(sub)
    if hull_report.pos_equals_L:
        # pos supp = lin supp leaves no direction with <u, v0> >= 0 on the
        # support; the construction does not apply
        raise HypothesisError("positive hull equals the linear span (%s)"
                              % (hull_report.detail or "no hemisphere"))

    dirs, _ = _distinct_atoms(sub)
    n = measure.dim
    k = len(dirs)
    G = dirs @ dirs.T

    # stage 1: best achievable margin t* = max over v in conv(supp) of
    # min_j <u_j, v>
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-G, np.ones((k, 1))])
    A_eq = np.hstack([np.ones((1, k)), np.zeros((1, 1))])
    res1 = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=[1.0],
                   bounds=[(0, None)] * k + [(None, None)], method="highs")
    if not res1.success:
        raise HypothesisError("margin LP failed: %s" % res1.message)
    t_star = -res1.fun

    # stage 2: most interior coefficient vector keeping half that margin
    t_req = max(t_star, 0.0) / 2.0
    c2 = np.zeros(k + 1)
    c2[-1] = -1.0
    A_ub2 = np.vstack([
        np.hstack([-np.eye(k), np.ones((k, 1))]),
        np.hstack([-G, np.zeros((k, 1))]),
    ])
    b_ub2 = np.concatenate([np.zeros(k), -t_req * np.ones(k)])
    res2 = linprog(c2, A_ub=A_ub2, b_ub=b_ub2, A_eq=A_eq, b_eq=[1.0],
                   bounds=[(None, None)] * (k + 1), method="highs")
    if not res2.success or -res2.fun <= 1e-12:
        raise HypothesisError("no direction lies in relint(pos supp) with "
                              "nonnegative products; hypothesis violated")
    v0 = dirs.T @ res2.x[:k]
    v0 = v0 / np.linalg.norm(v0)
    if np.min(dirs @ v0) < -1e-10:
        raise HypothesisError("computed v0 fails <u, v0> >= 0 on the support")

    L_basis = _linear_span(dirs)
    # L-tilde = L cap v0-perp: project the L basis away from v0
    proj = L_basis - np.outer(v0, v0 @ L_basis)
    uu, ss, _ = np.linalg.svd(proj, full_matrices=False)
    Lt_rank = int(np.sum(ss > 1e-9))
    Lt_basis = uu[:, :Lt_rank] if Lt_rank else np.zeros((n, 0))
    d = n - Lt_rank

    W = _orthonormal_extension(v0, Lt_basis, d)
    simplex_local = _regular_simplex(d)
    simplex = simplex_local @ W.T  # rows: v_0 .. v_d in R^n

    # cyclic rotation on the simplex, identity on L-tilde
    S1 = simplex_local[:d].T  # columns s_0..s_{d-1}
    S2 = simplex_local[1:d + 1].T
    R_raw = S2 @ np.linalg.inv(S1)
    uu, _, vv = np.linalg.svd(R_raw)
    R = uu @ vv
    A = np.eye(n) - W @ W.T + W @ R @ W.T

    for i in range(d):
        if np.linalg.norm(A @ simplex[i] - simplex[i + 1]) > 1e-9:
            raise MeasureError("cyclic rotation failed to map the simplex")

    # mu0 = sum of pushforwards by A^{-i}; atoms must land on grid nodes
    new_masses = np.zeros(len(measure.grid))
    rot = np.eye(n)
    for i in range(d + 1):
        images = sub.grid.nodes @ rot  # (A^{-i}) u = u @ (A^{-i})^T = u @ A^i
        dist, idx = measure.grid._tree.query(images)
        if dist.max() > 1e-9:
            raise MeasureError(
                "rotated atoms miss the grid by %.2e; use a grid closed under "
                "the simplex rotation" % dist.max())
        np.add.at(new_masses, idx, sub.masses)
        rot = rot @ A

    cone_normals = []
    for j in range(1, d + 1):
        w = simplex[0] - simplex[j]
        cone_normals.append(w / np.linalg.norm(w))

    group = [np.linalg.matrix_power(A, i) for i in range(d + 1)]
    try:
        mu0 = SphericalMeasure(measure.grid, new_masses, group=group)
    except MeasureError:
        # the atoms are A-closed by construction even when the full grid is
        # not; keep the measure, drop the group annotation
        mu0 = SphericalMeasure(measure.grid, new_masses)
    return mu0, simplex, A, np.array(cone_normals)
