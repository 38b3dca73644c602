"""Independent output checks for the benchmark.

Nothing here calls into ``lpmink``: the Lp surface area measure of a solved
body is rebuilt from its vertices with scipy's own ``ConvexHull`` (polygon
edges at n = 2, hull triangles at n = 3), so a change that corrupts the
program's geometry cannot pass its own verification.
"""

import numpy as np
from scipy.spatial import ConvexHull

#: a facet normal farther than this from every grid node carries off-grid mass
NODE_MATCH_TOL = 1e-6


def lp_residual_l1(vertices, nodes, masses, p):
    """sum_i |S_{M,p}(u_i) - mu_i| / mu(S^{n-1}) from the body's vertices.

    Each hull facet (edge or triangle) contributes h^(1-p) * area to the
    grid node nearest its outer normal, where h is the facet plane's
    distance from the origin. Mass on a facet whose normal matches no node
    counts in full as mismatch.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = vertices.shape[1]
    hull = ConvexHull(vertices)
    facets = vertices[hull.simplices]
    if n == 2:
        sizes = np.linalg.norm(facets[:, 1] - facets[:, 0], axis=1)
    else:
        sizes = 0.5 * np.linalg.norm(np.cross(facets[:, 1] - facets[:, 0],
                                              facets[:, 2] - facets[:, 0]),
                                     axis=1)
    normals = hull.equations[:, :n]
    h = -hull.equations[:, n]
    if np.min(h) <= 0:
        raise ValueError("origin is not interior to the solved body")
    facet_mass = h ** (1.0 - p) * sizes
    cosines = normals @ nodes.T
    match = np.argmax(cosines, axis=1)
    on_grid = cosines[np.arange(len(match)), match] >= 1.0 - NODE_MATCH_TOL ** 2 / 2
    sp = np.zeros(len(nodes))
    np.add.at(sp, match[on_grid], facet_mass[on_grid])
    mismatch = np.abs(sp - masses).sum() + facet_mass[~on_grid].sum()
    return float(mismatch / masses.sum())


def polygon_lp_atoms(angles, offsets, p):
    """Lp measure of the polygon {x : <x, u_i> <= h_i}, u_i at ``angles``.

    The origin must be interior (all offsets positive). Each constraint's
    edge is its line clipped by every other constraint; an inactive
    constraint gets an empty edge and zero mass.
    """
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    masses = np.zeros(len(offsets))
    for i in range(len(offsets)):
        # points h_i u_i + t w_i with <., u_j> <= h_j for every j != i
        slope = tangents[i] @ normals.T
        room = offsets - offsets[i] * (normals[i] @ normals.T)
        lo, hi = -np.inf, np.inf
        for j in range(len(offsets)):
            if j == i:
                continue
            if slope[j] > 1e-15:
                hi = min(hi, room[j] / slope[j])
            elif slope[j] < -1e-15:
                lo = max(lo, room[j] / slope[j])
            elif room[j] < 0:
                hi = lo = 0.0
        if not np.isfinite(hi - lo):
            raise ValueError("unbounded polygon")
        masses[i] = offsets[i] ** (1.0 - p) * max(hi - lo, 0.0)
    return normals, masses


def random_polygon(rng):
    """Angles and offsets of a random 12-gon, drawn as the test suite does.

    Sorted uniform angles are redrawn until no angular gap reaches
    pi - 0.2, which keeps the intersection bounded; offsets are uniform in
    [0.6, 1.4], which keeps the origin interior with a margin of 0.6.
    """
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 12))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if gaps.max() > np.pi - 0.2:
            continue
        return ang, rng.uniform(0.6, 1.4, 12)
