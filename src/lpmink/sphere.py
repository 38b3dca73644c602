"""Direction grids and quadrature on the unit sphere S^{n-1} for n in {2, 3}.

A DirectionGrid is the discretization substrate for everything else in this
package: spherical measures live as weighted atoms on grid directions, and
convex bodies are built as halfspace intersections over grid normals.
"""

from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma

GOLDEN_RATIO = (1.0 + 5.0**0.5) / 2.0

#: resolutions used by the acceptance suite; quadrature invariants are
#: guaranteed at or above these
DEFAULT_RESOLUTION = {2: 256, 3: 500}

#: angular tolerance for merging duplicate nodes during orbit closure
ORBIT_MERGE_TOL = 1e-9
#: entrywise tolerance of validate_group's orthogonality and closure tests
GROUP_TOL = 1e-7
#: distance within which node_permutations matches an image to a node
NODE_MATCH_TOL = 1e-8


class GridError(ValueError):
    """Unsupported dimension, degenerate symmetry group, or invalid grid data."""


def unit_ball_volume(n):
    """Volume kappa_n of the n-dimensional unit Euclidean ball."""
    return np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def sphere_area(n):
    """Total (n-1)-dimensional area of S^{n-1}, i.e. n * kappa_n."""
    return n * unit_ball_volume(n)


class DirectionGrid:
    """Quadrature nodes and weights on the unit sphere.

    Attributes
    ----------
    dim : int
        Ambient dimension n (nodes live on S^{n-1}).
    nodes : ndarray, shape (N, n)
        Unit direction vectors.
    weights : ndarray, shape (N,)
        Positive quadrature weights; they sum to the total sphere area.
    """

    def __init__(self, dim, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != dim:
            raise GridError("nodes must be an (N, %d) array" % dim)
        if weights.shape != (nodes.shape[0],):
            raise GridError("weights must align with nodes")
        norms = np.linalg.norm(nodes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise GridError("grid nodes must be unit vectors (within 1e-12)")
        if np.any(weights <= 0.0):
            raise GridError("grid weights must be positive")
        total = weights.sum()
        if abs(total - sphere_area(dim)) > 0.005 * sphere_area(dim):
            raise GridError("weights must sum to the sphere area within 0.5%")
        self._tree = cKDTree(nodes)
        # pairwise distinctness; the tree keeps this O(N log N)
        if len(nodes) > 1 and self._tree.query(nodes, k=2)[0][:, 1].min() <= 0:
            raise GridError("grid contains coincident nodes")
        self.dim = dim
        self.nodes = nodes
        self.weights = weights

    def __len__(self):
        return self.nodes.shape[0]

    @cached_property
    def antipodes(self):
        """Index arrays (i, j), i < j, of the antipodal node pairs.

        Nodes i and j pair when |u_i + u_j| <= 1e-12. Offsets with
        h_i + h_j <= 0 on such a pair bound no interior, so they admit no
        Wulff shape. Every node of an even n = 2 grid has a partner; the
        n = 3 Fibonacci grids have none.
        """
        d, j = self._tree.query(-self.nodes)
        i = np.flatnonzero((d <= 1e-12) & (np.arange(len(j)) < j))
        return i, j[i]

    def nearest_node(self, u):
        """Index of the grid node closest to direction u."""
        _, idx = self._tree.query(np.asarray(u, dtype=float))
        return int(idx)

    def cap_mass(self, v, alpha):
        """Summed weights of all nodes within geodesic angle alpha of v."""
        v = np.asarray(v, dtype=float)
        cosines = self.nodes @ (v / np.linalg.norm(v))
        return float(self.weights[cosines >= np.cos(alpha)].sum())

    def min_node_angle(self):
        """Smallest pairwise angular distance between nodes."""
        d, _ = self._tree.query(self.nodes, k=2)
        chord = d[:, 1].min()
        return 2.0 * np.arcsin(min(chord / 2.0, 1.0))


def _circle_grid(resolution):
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(resolution, 2.0 * np.pi / resolution)
    return nodes, weights


def _fibonacci_grid(resolution):
    # offset lattice: keeps both poles vacant and the point set antisymmetric
    # enough for quadrature of smooth integrands
    i = np.arange(resolution, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / resolution
    theta = 2.0 * np.pi * i / GOLDEN_RATIO
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    nodes = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    weights = np.full(resolution, 4.0 * np.pi / resolution)
    return nodes, weights


def validate_group(group, dim):
    """Check that ``group`` is a finite orthogonal group given numerically.

    Requires every matrix to be orthogonal (a non-finite entry fails),
    the set to be closed under composition and to contain the identity,
    each entrywise within GROUP_TOL; returns the matrices as float arrays.
    """
    try:
        mats = [np.asarray(A, dtype=float) for A in group]
    except (TypeError, ValueError) as exc:
        raise GridError("a symmetry group is a list of matrices") from exc
    if not mats:
        raise GridError("symmetry group is empty")
    for A in mats:
        if A.shape != (dim, dim):
            raise GridError("group matrix has wrong shape")
        if not np.max(np.abs(A.T @ A - np.eye(dim))) <= GROUP_TOL:
            raise GridError("group matrix is not orthogonal")
    for A in mats:
        for B in mats:
            C = A @ B
            if min(np.max(np.abs(C - M)) for M in mats) > GROUP_TOL:
                raise GridError("group is not closed under composition")
    if min(np.max(np.abs(M - np.eye(dim))) for M in mats) > GROUP_TOL:
        raise GridError("group does not contain the identity")
    return mats


def _orbit_closure(nodes, mats):
    """Close a node set under a group, merging chord-distance duplicates.

    Angular and chord tolerances agree to leading order at the 1e-9 scale
    (cosine comparisons are useless there: cos(1e-9) rounds to 1.0).
    """
    kept = np.asarray(nodes, dtype=float)
    changed = True
    while changed:
        changed = False
        tree = cKDTree(kept)
        fresh = []
        for A in mats:
            images = kept @ A.T
            d, _ = tree.query(images)
            fresh.append(images[d > ORBIT_MERGE_TOL])
        fresh = np.vstack(fresh)
        if len(fresh):
            # dedup the new points among themselves, keeping first occurrences
            ftree = cKDTree(fresh)
            keep = np.ones(len(fresh), dtype=bool)
            for i, j in ftree.query_pairs(r=ORBIT_MERGE_TOL):
                keep[max(i, j)] = False
            kept = np.vstack([kept, fresh[keep]])
            changed = True
    return kept


def node_permutations(nodes, mats):
    """Index permutations of a node set induced by the group ``mats``.

    For each group element A returns the index array ``pi`` with
    ``nodes[pi[i]] == A @ nodes[i]`` within NODE_MATCH_TOL. Raises
    GridError when an image misses the node set or A does not map it onto
    itself.
    """
    tree = cKDTree(nodes)
    perms = []
    for A in mats:
        images = nodes @ A.T
        d, idx = tree.query(images)
        if d.max() > NODE_MATCH_TOL:
            raise GridError("node set is not closed under the group: an "
                            "image misses it by %.2e" % d.max())
        if len(np.unique(idx)) != len(nodes):
            raise GridError("group element does not permute the node set")
        perms.append(idx)
    return perms


def build_grid(n, resolution, symmetry=None):
    """Build a quasi-uniform quadrature grid on S^{n-1}.

    Parameters
    ----------
    n : int
        Ambient dimension, 2 or 3.
    resolution : int
        Node count: equally spaced angles for n=2, a Fibonacci lattice for
        n=3. Equal weights summing to the sphere area in both cases.
    symmetry : sequence of (n, n) orthogonal matrices, optional
        Finite group; the returned node set is a union of full group orbits
        (orbit closure with duplicate merging). Invariant descent follows
        a measure's own group (``SphericalMeasure(group=)``), not the grid's.
    """
    if n not in (2, 3):
        raise GridError("only dimensions 2 and 3 are supported")
    # callers are expected to use >= 8; anything below 4 cannot even span
    if resolution < 4:
        raise GridError("resolution must be at least 4")
    if n == 2:
        nodes, weights = _circle_grid(resolution)
    else:
        nodes, weights = _fibonacci_grid(resolution)
    if symmetry is not None:
        mats = validate_group(symmetry, n)
        nodes = _orbit_closure(nodes, mats)
        weights = np.full(len(nodes), sphere_area(n) / len(nodes))
        node_permutations(nodes, mats)  # raises unless the closure holds
    return DirectionGrid(n, nodes, weights)
