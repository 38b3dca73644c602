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
#: entrywise tolerance of validate_group's orthogonality, distinctness and
#: closure tests
GROUP_TOL = 1e-7
#: chord distance within which DirectionGrid.node_permutations matches a
#: group image to a node
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
    unit_offset_body : Body
        The n = 3 descent's start, wulff_shape(n, nodes, ones, validate=False,
        interior_hint=0); built at first use, its own arrays read-only.
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
        self._permutations = {}  # node_permutations' tables, by group bytes

    def __len__(self):
        return self.nodes.shape[0]

    def nearest_node(self, u):
        """Index of the grid node closest to direction u."""
        _, idx = self._tree.query(np.asarray(u, dtype=float))
        return int(idx)

    def cap_mass(self, v, alpha):
        """Summed weights of all nodes within geodesic angle alpha of v."""
        v = np.asarray(v, dtype=float)
        cosines = self.nodes @ (v / np.linalg.norm(v))
        return float(self.weights[cosines >= np.cos(alpha)].sum())

    def node_permutations(self, mats):
        """The (k, N) table of node permutations a (k, n, n) group induces.

        Row g is ``pi`` with ``nodes[pi[i]] == mats[g] @ nodes[i]`` within
        NODE_MATCH_TOL, matched through the grid's own tree. Raises GridError
        when an image misses the node set or an element does not permute it.
        The grid matches each group once and keeps the table, read-only and
        keyed by the exact bytes of ``mats``; a failure is not kept.
        """
        key = np.asarray(mats, dtype=float).tobytes()
        if key not in self._permutations:
            d, idx = self._tree.query(self.nodes @ np.swapaxes(mats, 1, 2))
            if d.max() > NODE_MATCH_TOL:
                raise GridError("node set is not closed under the group: an "
                                "image misses it by %.2e" % d.max())
            if np.any(np.sort(idx, axis=1) != np.arange(len(self))):
                raise GridError("group element does not permute the node set")
            idx.flags.writeable = False
            self._permutations[key] = idx
        return self._permutations[key]

    @cached_property
    def unit_offset_body(self):
        """The grid's unit-offset Wulff shape; its normals are the grid's nodes."""
        from lpmink.geometry import wulff_shape  # geometry imports this module
        body = wulff_shape(self.dim, self.nodes, np.ones(len(self)),
                           validate=False, interior_hint=np.zeros(self.dim))
        for a in (*vars(body).values(), *vars(body.ridges).values()):
            if isinstance(a, np.ndarray) and a is not self.nodes:
                a.flags.writeable = False
        return body

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

    Requires every matrix to be orthogonal (a non-finite entry fails), no
    two to coincide, the set to be closed under composition and to contain
    the identity, each entrywise within GROUP_TOL. Returns the matrices as
    one (k, n, n) float array.
    """
    try:
        mats = np.array(group, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GridError("a symmetry group is a list of matrices") from exc
    if mats.shape[1:] != (dim, dim) or not mats.size:
        raise GridError("a symmetry group is a nonempty list of %d x %d matrices"
                        % (dim, dim))
    if not np.all(np.abs(np.swapaxes(mats, 1, 2) @ mats - np.eye(dim)) <= GROUP_TOL):
        raise GridError("group matrix is not orthogonal")
    # entrywise distance is the Chebyshev metric on the flattened matrices
    tree = cKDTree(mats.reshape(len(mats), -1))
    if tree.query_pairs(GROUP_TOL, p=np.inf):
        raise GridError("group lists an element twice")
    products = (mats[:, None] @ mats[None, :]).reshape(-1, dim * dim)
    if tree.query(products, p=np.inf)[0].max() > GROUP_TOL:
        raise GridError("group is not closed under composition")
    if tree.query(np.eye(dim).ravel(), p=np.inf)[0] > GROUP_TOL:
        raise GridError("group does not contain the identity")
    return mats


def _orbit_closure(nodes, mats):
    """The nodes, then their images under a group, less duplicates, in one pass.

    Images within ORBIT_MERGE_TOL of a node are dropped, and among the rest
    the first of each cluster is kept. When ``mats`` is a group the result
    is closed, since g (h x) = (g h) x; build_grid's node match checks it.
    Angular and chord tolerances agree to leading order at the 1e-9 scale
    (cosine comparisons are useless there: cos(1e-9) rounds to 1.0).
    """
    nodes = np.asarray(nodes, dtype=float)
    images = np.vstack([nodes @ A.T for A in mats])
    fresh = images[cKDTree(nodes).query(images)[0] > ORBIT_MERGE_TOL]
    pairs = cKDTree(fresh).query_pairs(ORBIT_MERGE_TOL, output_type="ndarray")
    keep = np.ones(len(fresh), dtype=bool)
    keep[pairs.max(axis=1)] = False
    return np.vstack([nodes, fresh[keep]])


def build_grid(n, resolution, symmetry=None):
    """Build a quasi-uniform quadrature grid on S^{n-1}.

    Parameters
    ----------
    n : int
        Ambient dimension, 2 or 3.
    resolution : int
        Node count: equally spaced angles for n=2, a Fibonacci lattice for
        n=3. Equal weights summing to the sphere area in both cases.
    symmetry : sequence of distinct (n, n) orthogonal matrices, optional
        Finite group; the nodes gain their images (``_orbit_closure``), a
        union of full orbits. The group's match to them (``node_permutations``)
        checks that closure and keeps the table; a group only within GROUP_TOL
        fails it. Invariant descent follows a measure's own group
        (``SphericalMeasure(group=)``), not the grid's.
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
    if symmetry is None:
        return DirectionGrid(n, nodes, weights)
    mats = validate_group(symmetry, n)
    nodes = _orbit_closure(nodes, mats)
    try:
        grid = DirectionGrid(n, nodes, np.full(len(nodes), sphere_area(n) / len(nodes)))
        grid.node_permutations(mats)
    except GridError as exc:
        raise GridError("the symmetry group does not close the grid (give its "
                        "matrices to full precision): %s" % exc) from exc
    return grid
