"""Spherical measures and the approximation/symmetrization pipeline.

Measures are stored as nonnegative masses on the nodes of a DirectionGrid.
The module provides density sampling, the pointwise density truncation onto
[1/m, m], Dirichlet-Voronoi smoothing of raw atomic measures into strictly
positive densities, hemisphere symmetrization with the cone restriction
data, and the hypothesis checkers (subspace concentration, positive hull).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from lpmink.sphere import DirectionGrid, GridError, sphere_area, validate_group


class MeasureError(ValueError):
    """Invalid measure data or incompatible grid."""


class HypothesisError(MeasureError):
    """An existence hypothesis of the solvability theory is violated."""


def _group_permutations(grid, group):
    """The group as one (k, n, n) array and the grid's kept table of it."""
    try:
        mats = validate_group(group, grid.dim)
        return mats, grid.node_permutations(mats)
    except GridError as exc:
        raise MeasureError("invalid invariance group: %s; use a finite orthogonal group"
                           " and a grid closed under it (grid.symmetry)" % exc) from exc


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
    group : ndarray, shape (k, n, n), or None
        Finite orthogonal invariance group; the solver descends on the
        subspace of offsets invariant under it.
    permutations : ndarray, shape (k, N), or None
        The grid's read-only table: row g is the index array ``pi`` with
        ``nodes[pi[i]] == group[g] @ nodes[i]`` up to matching tolerance.
    """

    def __init__(self, grid, masses, density_bounds=None, group=None):
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (len(grid),):
            raise MeasureError("masses must align with grid nodes")
        if not np.all(np.isfinite(masses) & (masses >= 0)):
            raise MeasureError("atom masses must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = masses.sum()
        if not 0 < total < np.inf:
            raise MeasureError("measure must have positive, finite total mass")
        if density_bounds is not None:
            t1, t2 = density_bounds
            lo = t1 * grid.weights - 1e-9 * t2 * grid.weights
            hi = t2 * grid.weights + 1e-9 * t2 * grid.weights
            if np.any(masses < lo) or np.any(masses > hi):
                raise MeasureError("masses violate the declared density bounds")
        self.grid = grid
        self.masses = masses
        self.density_bounds = density_bounds
        self.group, self.permutations = None, None
        if group is not None:
            self.group, self.permutations = _group_permutations(grid, group)
            scale = max(masses.max(), 1e-300)
            if np.max(np.abs(masses[self.permutations] - masses)) > 1e-8 * scale:
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
        support = self.masses > 0
        return {
            "dim": self.dim,
            "atoms": [
                {"u": u.tolist(), "mass": float(m)}
                for u, m in zip(self.grid.nodes[support], self.masses[support])
            ],
            "density_bounds": list(self.density_bounds) if self.density_bounds else None,
        }


def density_measure(f, grid):
    """Sample the density f on the grid: mass_a = f(u_a) * w_a.

    ``f`` maps the (N, n) array of grid nodes to the N node values; any
    other shape raises MeasureError, and an error raised by f propagates.
    Records (min f, max f) over the nodes as density bounds when the
    sampled density is strictly positive.
    """
    vals = np.asarray(f(grid.nodes), dtype=float)
    if vals.shape != (len(grid),):
        raise MeasureError("a density maps the (N, n) node array to N values; "
                           "got shape %s for N = %d" % (vals.shape, len(grid)))
    if not np.all(vals >= 0):
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


def _as_angles(cos):
    """arccos of the cosines clipped to [-1, 1], in place."""
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return np.arccos(cos, out=cos)


def _clipped_arccos(c):
    """arccos of one cosine clipped to [-1, 1]."""
    return np.arccos(min(max(c, -1.0), 1.0))


def _greedy_net(images, nodes, m):
    """Sorted indices of a greedy 1/m-net of the nodes in orbit distance.

    Starting from node 0, adds the lowest-index node farthest from the net
    until every node lies within 1/m of it. ``images`` are the nodes'
    group images. The net is kept as each node's largest cosine to it:
    arccos is monotone, so the farthest node has the least cosine. Where
    arccos is flat, a larger cosine may round to the same distance, and
    the earlier nodes whose cosines lie near the least are compared as
    distances.
    """
    g = len(images)
    # numpy hands a one-row product to the matrix-vector kernel, which
    # rounds differently from the matrix kernel of _nearest_center;
    # distances equal in exact arithmetic tie on the last bit, so a lone
    # row is doubled
    own = np.swapaxes(images, 0, 1)
    if g == 1:
        own = np.concatenate([own, own], axis=1)
    nodes_t = nodes.T
    centers = [0]
    best = own[0].dot(nodes_t).max(axis=0)
    while len(centers) < len(nodes):
        nxt = int(best.argmin())
        low = best.item(nxt)
        far = _clipped_arccos(low)
        if far <= 1.0 / m:
            break
        if _clipped_arccos(math.nextafter(low, 2.0)) == far:
            ties = np.flatnonzero(best[:nxt] <= low + _NET_TIE_COS)
            same = _as_angles(best[ties]) == far
            nxt = int(ties[same.argmax()]) if same.any() else nxt
        centers.append(nxt)
        cos = own[nxt].dot(nodes_t)
        np.maximum(best, cos[0] if g == 1 else cos.max(axis=0), out=best)
    return np.sort(centers)


def _nearest_center(center_images, points):
    """Each point's nearest centre in orbit distance, in blocks of points.

    ``center_images`` is (|G|, k, n), the group images of the k centres.
    The lowest index wins among equal computed distances.
    """
    g, k, n = center_images.shape
    flat = center_images.reshape(g * k, n)
    step = max(1, _CELL_BLOCK // (g * k))
    cells = []
    for b in range(0, len(points), step):
        cos = points[b:b + step].dot(flat.T)
        if g > 1:
            cos = cos.reshape(len(cos), g, k).max(axis=1)
        cells.append(_as_angles(cos).argmin(axis=1))
    return np.concatenate(cells)


def smooth_discrete(directions, masses, grid, group=None, m=8):
    """Dirichlet-Voronoi smoothing of a raw atomic measure onto the grid.

    The sphere (in the orbit space when a group is given) is partitioned
    into Voronoi cells of a greedily constructed 1/m-net of grid nodes;
    each cell receives the constant density mu(cell)/area(cell) plus the
    floor 1/(#cells)^2. A node or atom goes to its nearest centre; among
    equal computed distances the lowest-index centre wins, so a node
    equidistant in exact arithmetic goes to whichever centre its rounded
    distances favour. With a group, each orbit takes the cell of its
    lowest-index node, so the result is exactly G-invariant when the raw
    measure and grid are. The result is strictly positive.

    Distances are computed for one centre or one block of nodes at a
    time, so memory is O(N |G|) for N nodes: no N x N array is built.
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
    if group is None:
        mats, perms = np.eye(grid.dim)[None], np.arange(len(grid))[None]
    else:
        mats, perms = _group_permutations(grid, group)

    # the net and the cells live on the lowest-index node of each orbit
    orbit_low = perms.min(axis=0)
    reps = np.flatnonzero(orbit_low == np.arange(len(grid)))
    rep_nodes = grid.nodes[reps]
    images = rep_nodes @ np.swapaxes(mats, 1, 2)  # (|G|, R, n)
    centers = _greedy_net(images, rep_nodes, m)
    cells = _nearest_center(images[:, centers], rep_nodes)
    cell_of_node = cells[np.searchsorted(reps, orbit_low)]
    cell_of_atom = _nearest_center(images[:, centers], directions)

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


def _distinct_atoms(measure):
    """Merge coincident support directions, returning (dirs, masses).

    Scanning the support in index order, a direction joins the
    lowest-index representative within _ATOM_MERGE_TOL of it, or else
    becomes a representative; representatives keep their order and
    collect their members' masses in index order.
    """
    support = measure.masses > 0
    dirs, masses = measure.grid.nodes[support], measure.masses[support]
    pairs = cKDTree(dirs).query_pairs(_ATOM_MERGE_TOL, output_type="ndarray")
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


def _linear_span(dirs):
    """Orthonormal basis of the linear span of the directions."""
    _, s, vt = np.linalg.svd(dirs, full_matrices=False)
    rank = int(np.sum(s > _SPAN_RANK_TOL * s[0]))
    return vt[:rank].T  # (n, rank)


def _positive_hull_lp(dirs):
    """Whether the origin is a strictly positive combination of dirs."""
    from scipy.optimize import linprog  # HiGHS loads at the first LP

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

    antipodal = bool(len(dirs) == 2 and np.linalg.norm(dirs[0] + dirs[1]) <= 1e-9)
    if L_dim == n:
        return PositiveHullReport(True, L_dim, pos_equals_L,
                                  detail="support spans the ambient space")
    if pos_equals_L:
        detail = "antipodal pair" if antipodal else "positive hull equals lin supp"
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


#: subspace_concentration_check's tolerance on atom distances and ratios
SUBSPACE_TOL = 1e-9
#: chord distance within which _distinct_atoms merges support directions
_ATOM_MERGE_TOL = 1e-10
#: _linear_span's rank cut, relative to the largest singular value
_SPAN_RANK_TOL = 1e-9
#: entries in one (block rows x atoms) array of the subspace candidate scan
_SCAN_BLOCK = 1 << 13
#: entries in one (group x centres x points) block of smooth_discrete's cells
_CELL_BLOCK = 1 << 18
#: bound on the gap between cosines that arccos rounds to one distance; its
#: slope is at least 1 in magnitude, so they lie a few ulps apart
_NET_TIE_COS = 1e-12


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


def _plane_masses(rows, dirs, masses, dist):
    """Off-line mass of the plane through each row u and each atom.

    Seen from u, an atom v at distance r = |u ^ v| > SUBSPACE_TOL from u's
    line sits at the angle theta_v, mod pi, of its projection onto u-perp,
    and lies within SUBSPACE_TOL of the plane through u at angle t exactly
    when t is in the interval theta_v +- asin(SUBSPACE_TOL / r) mod pi.
    Each row sorts its interval ends and angles once (starts, then angles,
    then ends where they tie; an interval that wraps past pi is counted
    from the start of the row), and a running sum of +mass at each start
    and -mass at each end reads each plane's mass at its angle. In angle
    order the ends are nearly sorted, so the stable sort is about linear.

    Returns the masses, meaningless for atoms on the line, and segment ids,
    shared by the atoms one row sees with no interval end between them.
    """
    b, k = dist.shape
    axis = np.eye(3)[np.argmin(np.abs(rows), axis=1)]
    e1 = np.cross(rows, axis)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(rows, e1)
    theta = np.arctan2(e2 @ dirs.T, e1 @ dirs.T)
    theta += np.pi * (theta < 0)
    # atoms on the line sort last, at the angle inf
    theta[dist <= SUBSPACE_TOL] = np.inf
    order = np.argsort(theta, axis=1)
    flat = (order + k * np.arange(b)[:, None]).ravel()
    theta = theta.ravel()[flat].reshape(b, k)
    radius = np.maximum(dist.ravel()[flat], SUBSPACE_TOL).reshape(b, k)
    half = np.arcsin(SUBSPACE_TOL / radius)
    lo, hi = theta - half, theta + half
    start = np.where(lo < 0, lo + np.pi, lo)
    end = np.where(hi >= np.pi, hi - np.pi, hi)
    mass = masses[order]
    steps = np.hstack([mass, np.zeros((b, k)), -mass]).ravel()
    events = np.argsort(np.hstack([start, theta, end]), axis=1, kind="stable")
    # stable, so the c-th angle event of a row is theta[c]
    at = np.flatnonzero((events >= k) & (events < 2 * k)).reshape(b, k)
    events += 3 * k * np.arange(b)[:, None]
    running = np.cumsum(steps[events], axis=1).ravel()
    plane, seg = np.empty((b, k)), np.empty((b, k), dtype=at.dtype)
    plane.flat[flat] = np.where(start > end, mass, 0.0).sum(axis=1)[:, None] + running[at]
    # the interval ends before each angle, offset by the row's place
    seg.flat[flat] = at - np.arange(k)
    return plane, seg


def subspace_concentration_check(measure):
    """Check mu(L cap S^{n-1}) <= (dim L / n) mu(S^{n-1}) over atom-spanned L.

    At equality, also verifies that a complementary subspace L' containing
    the remaining support exists. Exact for atomic measures: any extremal
    subspace is spanned by support atoms.

    A candidate subspace is its set of atoms, and an atom lies in L when
    its distance from L is at most SUBSPACE_TOL: |u ^ v| <= SUBSPACE_TOL
    for the line through u, |<v, w>| <= SUBSPACE_TOL for a plane with unit
    normal w; a ratio within SUBSPACE_TOL of its limit is an equality.
    Lines are taken through every atom and, for n = 3, planes through every
    pair of atoms i < j off one line, all screened by ``_plane_masses``. A
    candidate near its limit takes its atom set from the direct test, once
    per row and segment. Each atom set counts once, under the first atom
    or pair (i, j) that spans it; witnesses list lines, then planes, in
    that order. Cost O(k^2 log k) time and O(k) memory per atom for k
    distinct atoms, plus O(k) per direct test.
    """
    dirs, masses = _distinct_atoms(measure)
    (k, n), total = dirs.shape, masses.sum()

    # only candidates near their limit can be witnesses; they keep their atom sets
    floor = {d: 1.0 - (SUBSPACE_TOL + 1e-12) * n / d for d in (1, 2)}
    found, worst = {}, 0.0
    step = max(1, _SCAN_BLOCK // k)
    for b in range(0, k, step):
        block = np.arange(b, min(b + step, k))
        dist = _line_distances(dirs[block], dirs)
        on_line = dist <= SUBSPACE_TOL
        line_mass = on_line @ masses
        scaled = line_mass / total * n
        worst = max(worst, scaled.max())
        for r in np.flatnonzero(scaled >= floor[1]):
            found.setdefault((1, on_line[r].tobytes()), (1, block[r], -1, on_line[r]))
        if n == 3:
            plane, seg = _plane_masses(dirs[block], dirs, masses, dist)
            pair = ~on_line & (np.arange(k) > block[:, None])
            scaled = (line_mass[:, None] + plane) / total * n / 2
            worst = max(worst, scaled.max(initial=0.0, where=pair))
            rows, cols = np.nonzero(pair & (scaled >= floor[2]))
            for r in np.sort(np.unique(seg[rows, cols], return_index=True)[1]):
                i, j = block[rows[r]], cols[r]
                w = np.cross(dirs[i], dirs[j])
                on = np.abs(dirs @ w) / np.linalg.norm(w) <= SUBSPACE_TOL
                found.setdefault((2, on.tobytes()), (2, i, j, on))

    report = SubspaceConcentrationReport(satisfied=True, worst_ratio=float(worst))
    for dim_L, i, j, on in sorted(found.values(), key=lambda c: c[:3]):
        ratio = float(masses[on].sum() / total)
        limit = dim_L / n
        equality = abs(ratio - limit) <= SUBSPACE_TOL
        complement_ok = False
        if equality:  # a ratio of dim L / n < 1 leaves atoms outside L
            rest = _linear_span(dirs[~on])
            both = np.hstack([_linear_span(dirs[[i, j] if dim_L == 2 else [i]]), rest])
            complement_ok = bool(rest.shape[1] <= n - dim_L and
                                 np.linalg.matrix_rank(both, tol=1e-9) == both.shape[1])
        if equality or ratio > limit + SUBSPACE_TOL:
            report.satisfied = report.satisfied and complement_ok
            report.witnesses.append(SubspaceWitness(dim_L, ratio, equality, complement_ok,
                                                    np.flatnonzero(on).tolist()))
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
    basis = []

    def project(v):
        # orthogonal_to holds (n, r) orthonormal columns, r >= 0
        w = v - orthogonal_to @ (orthogonal_to.T @ v)
        for b in basis:
            w -= b * (b @ w)
        return w

    for v in [seed, *np.eye(n)]:
        if len(basis) == dim_target:
            break
        w = project(v)
        nw = np.linalg.norm(w)
        if nw > 1e-9:
            basis.append(w / nw)
    return np.column_stack(basis)


def symmetrize_hemisphere(measure):
    """Symmetrize a hemisphere-supported measure per the simplex construction.

    Finds a direction v0 in the relative interior of pos supp mu with
    <u, v0> >= 0 on the support, builds the regular d-simplex v0..vd in the
    orthogonal complement of L-tilde = lin supp cap v0-perp, the cyclic
    rotation A with A v_i = v_{i+1}, and returns:

        (mu0, simplex_vertices, A, cone_normals)

    where mu0(omega) = sum_i mu(A^i omega) lives on the same grid, with
    the group {A^i} attached, and ``cone_normals`` lists the inner normals
    w_j of the Dirichlet-Voronoi cone D(v0) = {x : <x, w_j> >= 0}.
    Raises MeasureError unless the grid is closed under A.
    """
    hull_report = positive_hull_check(measure)
    if hull_report.pos_equals_L:
        # pos supp = lin supp leaves no direction with <u, v0> >= 0 on the
        # support; the construction does not apply
        raise HypothesisError("positive hull equals the linear span (%s)"
                              % (hull_report.detail or "no hemisphere"))

    from scipy.optimize import linprog  # HiGHS loads at the first LP

    dirs, _ = _distinct_atoms(measure)
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

    # stage 2, same objective: most interior coefficients keeping half that margin
    t_req = max(t_star, 0.0) / 2.0
    A_ub2 = np.vstack([
        np.hstack([-np.eye(k), np.ones((k, 1))]),
        np.hstack([-G, np.zeros((k, 1))]),
    ])
    b_ub2 = np.concatenate([np.zeros(k), -t_req * np.ones(k)])
    res2 = linprog(c, A_ub=A_ub2, b_ub=b_ub2, A_eq=A_eq, b_eq=[1.0],
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

    cone_normals = [(simplex[0] - v) / np.linalg.norm(simplex[0] - v)
                    for v in simplex[1:]]

    # mu0(u) = sum_i mu(A^i u), read through the node permutations of the
    # group {A^i}
    group, perms = _group_permutations(
        measure.grid, [np.linalg.matrix_power(A, i) for i in range(d + 1)])
    mu0 = SphericalMeasure(measure.grid, measure.masses[perms].sum(axis=0),
                           group=group)
    return mu0, simplex, A, np.array(cone_normals)
