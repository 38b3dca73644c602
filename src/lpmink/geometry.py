"""Computational convex geometry for halfspace-intersection bodies.

Bodies are built as Wulff shapes (intersections of halfspaces <x,u_i> <= h_i)
in dimension 2 or 3 by polarity: translate by an interior point (the
caller's hint, which must be inside, else the Chebyshev center), dualize,
and take one convex hull of the dual points. That hull holds the whole
body: each dual facet is a vertex, each dual hull vertex is an active
constraint (a facet), and neighbouring dual facets span the edges. Facet
areas, volume, centroid and the ridges where two facets meet are read off
this structure; active constraints keep their offsets as support values.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from lpmink.sphere import unit_ball_volume


class GeometryError(ValueError):
    """Invalid body data or violated geometric invariant."""


class WulffError(GeometryError):
    """Unbounded, empty, or numerically degenerate halfspace intersection."""


def chebyshev_center(normals, offsets):
    """Largest inscribed ball center of {x : <x, u_i> <= h_i}.

    Returns (center, radius). Raises WulffError when the feasible set is
    empty, has empty interior, or is detectably unbounded.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = normals.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([normals, np.ones((m, 1))])
    bounds = [(None, None)] * n + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=offsets, bounds=bounds, method="highs")
    if res.status == 2:
        raise WulffError("empty halfspace intersection")
    if res.status == 3:
        raise WulffError("unbounded halfspace intersection")
    if not res.success:
        raise WulffError("Chebyshev LP failed: %s" % res.message)
    center, radius = res.x[:n], res.x[n]
    scale = max(1.0, float(np.max(np.abs(offsets))))
    if radius <= 1e-12 * scale:
        raise WulffError("halfspace intersection has empty interior")
    return center, float(radius)


def _polygon_from_dual(normals, shifted, dual_hull):
    """Vertices, edge lengths, area, centroid and ridges of a polygon.

    The dual hull's vertices are the active lines in counter-clockwise
    order; each consecutive pair meets in a vertex, a ridge of measure 1.
    Coordinates are relative to the interior point the dual was taken about.
    """
    a = dual_hull.vertices
    b = np.roll(a, -1)
    ua, ub, sa, sb = normals[a], normals[b], shifted[a], shifted[b]
    det = ua[:, 0] * ub[:, 1] - ua[:, 1] * ub[:, 0]
    vertices = np.column_stack([sa * ub[:, 1] - sb * ua[:, 1],
                                sb * ua[:, 0] - sa * ub[:, 0]]) / det[:, None]
    # the edge on line a[j] runs from vertex j-1 to vertex j
    prev = np.roll(vertices, 1, axis=0)
    cross = prev[:, 0] * vertices[:, 1] - vertices[:, 0] * prev[:, 1]
    area = 0.5 * cross.sum()
    if area <= 0:
        raise WulffError("degenerate polygon (nonpositive area)")
    centroid = cross @ (prev + vertices) / (6.0 * area)
    facet_areas = np.zeros(len(normals))
    facet_areas[a] = np.hypot(*(vertices - prev).T)
    return vertices, facet_areas, area, centroid, (np.column_stack([a, b]), None)


def _facet_sums(facet, values, m):
    """Per-facet sums of the rows of values, for facet ids in range(m)."""
    return np.stack([np.bincount(facet, col, minlength=m) for col in values.T], axis=1)


def _polytope_from_dual(shifted, dual_hull):
    """Vertices, facet areas, volume, centroid and ridges of a polytope.

    Each dual triangle is a vertex; Qhull's triangulated output ('Qt') gives
    every triangle cut from one dual facet the same hyperplane bit for bit,
    so equal hyperplanes are one vertex. Neighbouring triangles with distinct
    vertices span an edge, the ridge of the two facets at the shared dual
    edge. Coordinates are relative to the interior point the dual was taken
    about.
    """
    tri, m = dual_hull.simplices, len(shifted)
    planes, vid = np.unique(dual_hull.equations, axis=0, return_inverse=True)
    vertices = planes[:, :3] / -planes[:, 3:]
    f = np.repeat(np.arange(len(tri)), 3)
    k = np.tile(np.arange(3), len(tri))
    g = dual_hull.neighbors.ravel()
    edge = (f < g) & (vid[f] != vid[g])
    f, g, k = f[edge], g[edge], k[edge]
    facet = np.concatenate([tri[f, (k + 1) % 3], tri[f, (k + 2) % 3]])
    a, b = np.tile(vid[f], 2), np.tile(vid[g], 2)
    # fan each facet about its vertex mean (every vertex ends two of its edges)
    ends = vertices[a] + vertices[b]
    mean = _facet_sums(facet, ends, m)[facet] / (2.0 * np.bincount(facet)[facet, None])
    fan = 0.5 * np.linalg.norm(np.cross(vertices[a] - mean, vertices[b] - mean), axis=1)
    facet_areas = np.bincount(facet, fan, minlength=m)
    moments = _facet_sums(facet, fan[:, None] * (ends + mean) / 3.0, m)
    # the cone over facet i has volume s_i S_i / 3 and its centroid 3/4 of
    # the way from the apex to the facet centroid
    volume = float(shifted @ facet_areas) / 3.0
    if volume <= 0:
        raise WulffError("degenerate polytope (nonpositive volume)")
    centroid = 0.25 * (shifted @ moments) / volume
    return vertices, facet_areas, volume, centroid, (
        facet.reshape(2, -1).T, np.column_stack([vid[f], vid[g]]))


class Body:
    """Full-dimensional convex body as a halfspace intersection.

    Attributes
    ----------
    dim : int
    normals : ndarray, shape (m, dim)
        Unit outer normals of the proposed halfspaces.
    offsets : ndarray, shape (m,)
        Proposed support values h_i (the body satisfies <x,u_i> <= h_i).
    vertices : ndarray, shape (k, dim)
    facet_areas : ndarray, shape (m,)
        (dim-1)-measure of the facet with outer normal u_i; zero when the
        i-th constraint is inactive.
    volume : float
    centroid : ndarray, shape (dim,)
    support_values : ndarray, shape (m,)
        True support h(u_i) of the intersection; always <= offsets.
    ridges : (ndarray (r, 2), ndarray (r, 2) or None) or None
        The pairs (i, j) of facets that meet in a ridge, a (dim-2)-face,
        and for dim = 3 the indices into ``vertices`` of each ridge's two
        ends (a polygon's ridge is one vertex); None when the body was not
        built by wulff_shape.
    """

    def __init__(self, dim, normals, offsets, vertices, facet_areas, volume,
                 centroid, support_values, validate=True, ridges=None):
        self.dim = dim
        self.normals = normals
        self.offsets = offsets
        self.vertices = vertices
        self.facet_areas = facet_areas
        self.volume = volume
        self.centroid = centroid
        self.support_values = support_values
        self.ridges = ridges
        if validate:
            self._check_invariants()

    def _check_invariants(self):
        if not self.volume > 0:
            raise GeometryError("body volume must be positive")
        scale = max(1.0, float(np.max(np.abs(self.support_values))))
        if np.any(self.support_values > self.offsets + 1e-10 * scale):
            raise GeometryError("support values exceed offsets")
        total_area = self.facet_areas.sum()
        closure = np.linalg.norm(self.facet_areas @ self.normals)
        if closure > 1e-8 * total_area:
            raise GeometryError("surface area measure barycenter is not zero")
        vol_id = abs(self.volume - (self.support_values @ self.facet_areas) / self.dim)
        if vol_id > 1e-8 * self.volume:
            raise GeometryError("volume identity V = (1/n) sum h S violated")
        self._check_centroid_reflection()

    def _check_centroid_reflection(self, samples=64, tol=1e-9):
        # x in K implies (-1/n)(x - centroid) + centroid in K
        pts = self.vertices
        if len(pts) > samples:
            idx = np.linspace(0, len(pts) - 1, samples).astype(int)
            pts = pts[idx]
        reflected = (-1.0 / self.dim) * (pts - self.centroid) + self.centroid
        slack = self.support_values[None, :] - reflected @ self.normals.T
        scale = max(1.0, float(np.max(np.abs(self.support_values))))
        if slack.min() < -tol * scale:
            raise GeometryError("centroid reflection point escapes the body")

    def support(self, u):
        """Support function h(u) = max over vertices of <x, u>."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return float(np.max(self.vertices @ u))
        return np.max(self.vertices @ u.T, axis=0)

    def interior_gap(self, x):
        """min_i (h(u_i) - <u_i, x>); positive iff x lies in the interior."""
        return float(np.min(self.support_values - self.normals @ np.asarray(x)))

    def scaled(self, lam):
        """The body lam * K for lam > 0 (all cached fields rescale exactly)."""
        if lam <= 0:
            raise GeometryError("scale factor must be positive")
        return Body(self.dim, self.normals, self.offsets * lam,
                    self.vertices * lam, self.facet_areas * lam ** (self.dim - 1),
                    self.volume * lam ** self.dim, self.centroid * lam,
                    self.support_values * lam, validate=False,
                    ridges=self.ridges)

    def translated(self, t):
        """The body K + t."""
        t = np.asarray(t, dtype=float)
        shift = self.normals @ t
        return Body(self.dim, self.normals, self.offsets + shift,
                    self.vertices + t, self.facet_areas,
                    self.volume, self.centroid + t,
                    self.support_values + shift, validate=False,
                    ridges=self.ridges)

    def embedded(self, normals, index):
        """The body over the constraints ``normals``, whose rows ``index`` are its own.

        Every other constraint is inactive: zero facet area, with offset
        and support value at the body's true support, as wulff_shape keeps
        them; the ridges follow their facets to the new indices.
        """
        support_values = self.support(normals)
        support_values[index] = self.support_values
        offsets = support_values.copy()
        offsets[index] = self.offsets
        facet_areas = np.zeros(len(normals))
        facet_areas[index] = self.facet_areas
        ridges = None if self.ridges is None else (index[self.ridges[0]], self.ridges[1])
        return Body(self.dim, normals, offsets, self.vertices, facet_areas,
                    self.volume, self.centroid, support_values, ridges=ridges)

    def to_dict(self):
        return {
            "dim": self.dim,
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
            "vertices": self.vertices.tolist(),
            "facet_areas": self.facet_areas.tolist(),
            "volume": self.volume,
            "centroid": self.centroid.tolist(),
            "support_values": self.support_values.tolist(),
        }


def wulff_shape(dim, normals, offsets, validate=True, interior_hint=None):
    """Intersect the halfspaces {<x, u_i> <= h_i} and enumerate the result.

    The normals must be unit vectors that positively span R^dim with offsets
    admitting a bounded, full-dimensional intersection. Inactive constraints
    are kept in the output with zero facet area. ``validate=False`` skips
    the construction-time invariant checks (used by solver inner loops;
    every body handed back to callers is validated). The body is built
    about ``interior_hint`` when one is given, else about the Chebyshev
    center; a hint that is not inside every halfspace by at least
    1e-6 max(1, max|h|) raises WulffError, as do non-finite normals or
    offsets.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if normals.ndim != 2 or normals.shape[1] != dim:
        raise GeometryError("normals must be an (m, %d) array" % dim)
    if dim not in (2, 3):
        raise GeometryError("only dimensions 2 and 3 are supported")
    if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
        raise WulffError("normals and offsets must be finite")
    norms = np.linalg.norm(normals, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise GeometryError("normals must be unit vectors")
    if len(offsets) != len(normals):
        raise GeometryError("offsets must align with normals")

    if interior_hint is None:
        center, _ = chebyshev_center(normals, offsets)
    else:
        center = np.asarray(interior_hint, dtype=float)
        gap = float(np.min(offsets - normals @ center))
        if not gap > 1e-6 * max(1.0, float(np.max(np.abs(offsets)))):
            raise WulffError("interior hint is not inside the halfspaces")
    shifted = offsets - normals @ center  # all > 0: the center is interior
    try:
        dual_hull = ConvexHull(normals / shifted[:, None])
    except QhullError as exc:
        raise WulffError("degenerate dual hull: %s" % exc) from exc

    # origin must be interior to the dual hull, else the primal is unbounded
    if np.max(dual_hull.equations[:, -1]) > -1e-12:
        raise WulffError("unbounded halfspace intersection (dual origin escapes)")

    if dim == 2:
        vertices, facet_areas, volume, centroid, ridges = _polygon_from_dual(
            normals, shifted, dual_hull)
    else:
        vertices, facet_areas, volume, centroid, ridges = _polytope_from_dual(
            shifted, dual_hull)
    if len(vertices) <= dim:
        raise WulffError("degenerate intersection (fewer than %d vertices)"
                         % (dim + 1))
    vertices = vertices + center
    # an active constraint's facet lies in its plane
    support_values = offsets.copy()
    inactive = np.ones(len(normals), dtype=bool)
    inactive[dual_hull.vertices] = False
    support_values[inactive] = np.max(vertices @ normals[inactive].T, axis=0)
    return Body(dim, normals, offsets.copy(), vertices, facet_areas,
                float(volume), centroid + center, support_values,
                validate=validate, ridges=ridges)


def facet_jacobian(body):
    """Sparse (m, m) matrix of the facet-area derivatives dS_i/dh_j.

    Moving facet j out by dh sweeps each ridge it shares with facet i, of
    measure l_ij (1 in the plane, the edge length in space), across facet
    i's plane, so for neighbours

        dS_i/dh_j = l_ij / sin(theta_ij),
        dS_i/dh_i = -sum_j l_ij cot(theta_ij),

    with theta_ij the angle between the normals; facets that share no
    ridge do not interact. Read off the ridges wulff_shape recorded.
    """
    if body.ridges is None:
        raise GeometryError("facet_jacobian needs a body built by wulff_shape")
    pairs, ends = body.ridges
    i, j = pairs.T
    ui, uj = body.normals[i], body.normals[j]
    cos = np.einsum("ij,ij->i", ui, uj)
    if body.dim == 2:
        sin = np.abs(ui[:, 0] * uj[:, 1] - ui[:, 1] * uj[:, 0])
        off = 1.0 / sin
    else:
        sin = np.linalg.norm(np.cross(ui, uj), axis=1)
        ell = np.linalg.norm(body.vertices[ends[:, 0]] - body.vertices[ends[:, 1]],
                             axis=1)
        off = ell / sin
    m = len(body.normals)
    diag = -np.bincount(np.concatenate([i, j]), np.tile(off * cos, 2), minlength=m)
    rows = np.concatenate([i, j, np.arange(m)])
    cols = np.concatenate([j, i, np.arange(m)])
    return sparse.csr_matrix((np.concatenate([off, off, diag]), (rows, cols)),
                             shape=(m, m))


def lp_surface_area_measure(body, p):
    """Masses h(u_i)^(1-p) * S_i of the Lp surface area measure.

    Returns an (m,) array aligned with body.normals. Requires p < 1 and the
    origin inside the closed body; a facet with zero support carries zero
    mass (the exponent 1-p is positive).
    """
    if p >= 1:
        raise GeometryError("lp_surface_area_measure requires p < 1")
    h = body.support_values
    if np.min(h) < -1e-10 * max(1.0, float(np.max(np.abs(h)))):
        raise GeometryError("origin lies strictly outside the body")
    hc = np.maximum(h, 0.0)
    return np.where(body.facet_areas > 0.0, hc ** (1.0 - p) * body.facet_areas, 0.0)


def body_stats(body):
    """(volume, centroid, inradius, circumradius), radii about the centroid.

    Asserts the volume bound V <= (n+1) kappa_{n-1} rho R^{n-1}.
    """
    sigma = body.centroid
    rho = float(np.min(body.support_values - body.normals @ sigma))
    R = float(np.max(np.linalg.norm(body.vertices - sigma, axis=1)))
    n = body.dim
    bound = (n + 1) * unit_ball_volume(n - 1) * rho * R ** (n - 1)
    if body.volume > bound * (1 + 1e-9):
        raise GeometryError("volume bound V <= (n+1) kappa_{n-1} rho R^{n-1} violated")
    return body.volume, sigma, rho, R


def santalo_quadrature(body, grid):
    """Grid quadrature of (1/n) (h(u) - <centroid, u>)^(-n).

    For an exactly centered body this is the polar volume, bounded above by
    kappa_n^2 / V(K).
    """
    h = body.support(grid.nodes) - grid.nodes @ body.centroid
    if np.min(h) <= 0:
        raise GeometryError("centroid must be interior for the polar quadrature")
    return float(np.sum(h ** (-body.dim) * grid.weights) / body.dim)


def body_to_off(body):
    """OFF mesh text for a 3-dimensional body (triangulated facets)."""
    if body.dim != 3:
        raise GeometryError("OFF export is only available for n = 3")
    hull = ConvexHull(body.vertices)
    lines = ["OFF", "%d %d 0" % (len(body.vertices), len(hull.simplices))]
    for v in body.vertices:
        lines.append("%.17g %.17g %.17g" % tuple(v))
    for k, tri in enumerate(hull.simplices):
        a, b, c = body.vertices[tri]
        # orient triangles outward
        if np.dot(np.cross(b - a, c - a), hull.equations[k, :3]) < 0:
            tri = tri[::-1]
        lines.append("3 %d %d %d" % tuple(tri))
    return "\n".join(lines) + "\n"
