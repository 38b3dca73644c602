"""Computational convex geometry for halfspace-intersection bodies.

Bodies are built as Wulff shapes (intersections of halfspaces <x,u_i> <= h_i)
in dimension 2 or 3 by polarity: translate by an interior point (the
caller's hint, which must be inside, else the Chebyshev center), dualize,
and take one convex hull of the dual points. That hull holds the whole
body: each dual facet is a vertex, each dual hull vertex is an active
constraint (a facet), and neighbouring dual facets span the edges. Facet
areas, volume, centroid and the ridges where two facets meet are read off
this structure; active constraints keep their offsets as support values.
The ridges, one Ridges record that every body of a combinatorial type
holds, are the one face structure that facet_jacobian and body_to_off
read. solve_facet_system solves the systems diag(a) + c dS/dh of both of
the solver's Newton steps from them, so dS/dh is computed only here. Its
per-ridge data, band (n = 2) and sparsity pattern (n = 3) depend only on
the normals and the ridges, so they are computed once per record, and so
is what a body's build needs beyond its offsets: a polygon's cycle of
lines with the columns and determinants of adjacent normals, and a
polytope's facet degrees and the planes of each simple vertex. A Newton
step and a state of the finish then do only numeric work.

A polygon whose every constraint is active needs no hull: sorted by
angle, consecutive lines meet in its vertices (polygon_all_active). Nor
does a polytope whose ridges are known and whose vertices are simple:
each vertex follows from its three planes, and local convexity at every
vertex shows the ridges still hold (polytope_same_type). The Newton
finish, whose states are such bodies, builds its polygons the first way,
handing each one's record to the next, and its polytopes the second
while their ridges hold.
"""

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbsv
from scipy.spatial import ConvexHull, QhullError

from lpmink.sphere import unit_ball_volume

#: vertices that Body's centroid-reflection check samples, and its tolerance
_REFLECTION_SAMPLES = 64
_REFLECTION_TOL = 1e-9

class GeometryError(ValueError):
    """Invalid body data or violated geometric invariant."""


class WulffError(GeometryError):
    """Unbounded, empty, or numerically degenerate halfspace intersection."""


def chebyshev_center(normals, offsets):
    """Largest inscribed ball center of {x : <x, u_i> <= h_i}.

    Returns (center, radius). Raises WulffError when the feasible set is
    empty, has empty interior (radius at most 1e-12 max|h|), or is
    detectably unbounded. HiGHS's tolerances are absolute and it reads
    1e20 as infinite, so the LP is solved in a frame where max|h| is near
    1: the offsets are divided by 2^(32 round(log2(max|h|) / 32)) and the
    center and radius multiplied back. A power of two scales exactly, and
    it is 1 whenever max|h| lies in (2^-16, 2^16).
    """
    from scipy.optimize import linprog  # HiGHS loads at the first LP

    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = normals.shape
    size = float(np.max(np.abs(offsets)))
    frame = 2.0 ** (32 * round(np.log2(size) / 32)) if size > 0 else 1.0
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([normals, np.ones((m, 1))])
    bounds = [(None, None)] * n + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=offsets / frame, bounds=bounds, method="highs")
    if res.status == 2:
        raise WulffError("empty halfspace intersection")
    if res.status == 3:
        raise WulffError("unbounded halfspace intersection")
    if not res.success:
        raise WulffError("Chebyshev LP failed: %s" % res.message)
    center, radius = res.x[:n] * frame, res.x[n] * frame
    if radius <= 1e-12 * size:
        raise WulffError("halfspace intersection has empty interior")
    return center, float(radius)


def _frozen(*arrays):
    """The arrays, made read-only: every body of a ridge record's type reads them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _cycle(normals, a):
    """The ridge record of the polygon whose active lines ``a`` run counter-clockwise.

    Line a[k] meets b[k] = a[k+1], cyclically, in vertex k, a ridge of
    measure 1. The record's ``cycle`` keeps what _polygon needs beyond the
    offsets, which depends only on the normals and ``a``: a and b, the
    columns of u_a and u_b, det(u_a, u_b) and each vertex's predecessor.
    """
    pairs = np.column_stack([a, np.roll(a, -1)])
    a, b = pairs.T.copy()
    ua, ub = normals[a], normals[b]
    det = ua[:, 0] * ub[:, 1] - ua[:, 1] * ub[:, 0]
    ridges = Ridges(pairs)
    ridges.cycle = _frozen(a, b, ua[:, 0], ua[:, 1], ub[:, 0], ub[:, 1], det,
                           np.roll(np.arange(len(a)), 1))
    return ridges


def _polygon(shifted, ridges):
    """Vertices, edge vectors, edge lengths, area and centroid of a polygon.

    ``ridges`` is the polygon's record (_cycle). Edge j, on line a[j], runs
    from vertex j-1 to vertex j. Coordinates are relative to the interior
    point the offsets ``shifted`` are taken about.
    """
    a, b, ua0, ua1, ub0, ub1, det, before = ridges.cycle
    sa, sb = shifted[a], shifted[b]
    vertices = np.column_stack([sa * ub1 - sb * ua1, sb * ua0 - sa * ub0]) / det[:, None]
    prev = vertices.take(before, axis=0)
    cross = prev[:, 0] * vertices[:, 1] - vertices[:, 0] * prev[:, 1]
    area = 0.5 * cross.sum()
    if area <= 0:
        raise WulffError("degenerate polygon (nonpositive area)")
    # the moment is of order size^3 and underflows below a size of about
    # 1e-103, so cross and area are first divided by a power of two near
    # the area, which is exact
    frame = np.ldexp(1.0, np.frexp(area)[1])
    centroid = (cross / frame) @ (prev + vertices) / (6.0 * area / frame)
    edges = vertices - prev
    facet_areas = np.zeros(len(shifted))
    facet_areas[a] = np.hypot(*edges.T)
    return vertices, edges, facet_areas, area, centroid


def _shifted_about_hint(normals, offsets, center):
    """offsets - <u_i, center>; WulffError unless each is above 1e-6 max|h|."""
    shifted = offsets - normals @ center
    if not float(np.min(shifted)) > 1e-6 * float(np.max(np.abs(offsets))):
        raise WulffError("interior hint is not inside the halfspaces")
    return shifted


def _facet_sums(facet, values, m):
    """Per-facet sums of the rows of values, for facet ids in range(m)."""
    return np.stack([np.bincount(facet, col, minlength=m) for col in values.T], axis=1)


def _fan(shifted, at, ridges):
    """Facet areas, volume and centroid of a polytope from its facets' edges.

    ``at`` (r, 2, 3) holds the end vertices of each ridge of the record
    ``ridges``, and every ridge is an edge of both its facets. Coordinates
    are relative to the interior point the offsets ``shifted`` are taken
    about.
    """
    m = len(shifted)
    facet = ridges.facet
    a, b = np.concatenate([at, at]).transpose(1, 0, 2)
    # fan each facet about its vertex mean (every vertex ends two of its edges)
    ends = np.tile(at[:, 0] + at[:, 1], (2, 1))
    mean = _facet_sums(facet, ends, m).take(facet, axis=0) / ridges.degree
    # |(a - mean) x (b - mean)|, column by column
    (x0, x1, x2), (y0, y1, y2) = (a - mean).T, (b - mean).T
    c0, c1, c2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
    fan = 0.5 * np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    facet_areas = np.bincount(facet, fan, minlength=m)
    moments = _facet_sums(facet, fan[:, None] * (ends + mean) / 3.0, m)
    # the cone over facet i has volume s_i S_i / 3 and its centroid 3/4 of
    # the way from the apex to the facet centroid
    volume = float(shifted @ facet_areas) / 3.0
    if volume <= 0:
        raise WulffError("degenerate polytope (nonpositive volume)")
    centroid = 0.25 * (shifted @ moments) / volume
    return facet_areas, volume, centroid


def _polytope_from_dual(shifted, dual_hull):
    """Vertices, facet areas, volume, centroid and ridges of a polytope.

    Each dual triangle is a vertex; Qhull's triangulated output ('Qt') gives
    every triangle cut from one dual facet the same hyperplane bit for bit,
    so equal hyperplanes are one vertex. Neighbouring triangles with distinct
    vertices span an edge, the ridge of the two facets at the shared dual
    edge. Coordinates are relative to the interior point the dual was taken
    about.
    """
    tri = dual_hull.simplices
    planes, vid = np.unique(dual_hull.equations, axis=0, return_inverse=True)
    vertices = planes[:, :3] / -planes[:, 3:]
    f = np.repeat(np.arange(len(tri)), 3)
    k = np.tile(np.arange(3), len(tri))
    g = dual_hull.neighbors.ravel()
    edge = (f < g) & (vid[f] != vid[g])
    f, g, k = f[edge], g[edge], k[edge]
    facet = np.concatenate([tri[f, (k + 1) % 3], tri[f, (k + 2) % 3]])
    ridges = Ridges(facet.reshape(2, -1).T, np.column_stack([vid[f], vid[g]]))
    return (vertices, *_fan(shifted, vertices[ridges.ends], ridges), ridges)


class Ridges:
    """A combinatorial type, which every body of that type holds by reference.

    ``pairs`` (r, 2) are the facets (i, j) that meet in each ridge, a
    (dim-2)-face; ``ends`` (r, 2) index each ridge's two end vertices at
    dim = 3 and are None in the plane, where a ridge is one vertex. At
    dim = 3 ``facet`` lists the pairs' i's then their j's, the facet of
    each edge _fan fans, and ``degree`` is twice the number of edges of
    each such facet. A polygon's record keeps ``cycle`` (_cycle), and
    ``angular`` says that polygon_all_active built it: its cycle is every
    line in angular order, adjacent lines apart by an angle in (0, pi).
    ``simple_type``, ``pattern`` and ``band`` keep what _simple_type,
    _facet_pattern and _band compute once per record. Every array a
    record holds is read-only: the bodies of its type share them.
    """

    def __init__(self, pairs, ends=None):
        self.pairs, self.ends = pairs, ends
        self.simple_type = self.pattern = self.band = self.cycle = None
        self.angular = False
        _frozen(pairs)
        if ends is not None:
            self.facet = pairs.T.ravel()
            self.degree = 2.0 * np.bincount(self.facet)[self.facet, None]
            _frozen(ends, self.facet, self.degree)


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
    ridges : Ridges
        The combinatorial type, shared with every body of the same type:
        scaled, translated, polytope_same_type and polygon_all_active (from
        a polygon it built) pass it on.
    """

    def __init__(self, dim, normals, offsets, vertices, facet_areas, volume,
                 centroid, support_values, ridges, validate=True):
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
        size = float(np.max(np.abs(self.support_values)))
        if np.any(self.support_values > self.offsets + 1e-10 * size):
            raise GeometryError("support values exceed offsets")
        total_area = self.facet_areas.sum()
        closure = np.linalg.norm(self.facet_areas @ self.normals)
        if closure > 1e-8 * total_area:
            raise GeometryError("surface area measure barycenter is not zero")
        vol_id = abs(self.volume - (self.support_values @ self.facet_areas) / self.dim)
        if vol_id > 1e-8 * self.volume:
            raise GeometryError("volume identity V = (1/n) sum h S violated")
        # x in K implies (-1/n)(x - centroid) + centroid in K
        pts = self.vertices
        if len(pts) > _REFLECTION_SAMPLES:
            pts = pts[np.linspace(0, len(pts) - 1, _REFLECTION_SAMPLES).astype(int)]
        reflected = (-1.0 / self.dim) * (pts - self.centroid) + self.centroid
        slack = self.support_values[None, :] - reflected @ self.normals.T
        if slack.min() < -_REFLECTION_TOL * size:
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
                    self.support_values * lam, self.ridges, validate=False)

    def translated(self, t):
        """The body K + t."""
        t = np.asarray(t, dtype=float)
        shift = self.normals @ t
        return Body(self.dim, self.normals, self.offsets + shift,
                    self.vertices + t, self.facet_areas,
                    self.volume, self.centroid + t,
                    self.support_values + shift, self.ridges, validate=False)

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
        return Body(self.dim, normals, offsets, self.vertices, facet_areas,
                    self.volume, self.centroid, support_values,
                    ridges=Ridges(index[self.ridges.pairs], self.ridges.ends))

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
    1e-6 max|h| raises WulffError, as do non-finite normals or offsets.
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
        shifted = offsets - normals @ center  # all > 0: the center is interior
    else:
        center = np.asarray(interior_hint, dtype=float)
        shifted = _shifted_about_hint(normals, offsets, center)
    try:
        dual_hull = ConvexHull(normals / shifted[:, None])
    except QhullError as exc:
        raise WulffError("degenerate dual hull: %s" % exc) from exc

    # origin must be interior to the dual hull, else the primal is unbounded:
    # a vertex beyond 1e12 max(shifted) about the interior point counts so
    if np.max(dual_hull.equations[:, -1]) > -1e-12 / np.max(shifted):
        raise WulffError("unbounded halfspace intersection (dual origin escapes)")

    if dim == 2:
        ridges = _cycle(normals, dual_hull.vertices)
        vertices, _, facet_areas, volume, centroid = _polygon(shifted, ridges)
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


def polygon_all_active(normals, offsets, interior_hint, like=None):
    """The polygon {<x, u_i> <= h_i} in closed form when every line is active.

    Sorted by angle, consecutive lines meet in the vertices and bound the
    edges, so no hull has to find the active lines: the result is
    wulff_shape's body whenever every facet is active, with support values
    equal to the offsets and ridges between lines adjacent in angle. Such
    a polygon satisfies Body's invariants by construction, so they are not
    checked. The normals must be distinct unit vectors of the plane.
    The angular order depends only on the normals, so when ``like`` is a
    body this function built on equal normals its ridge record, which
    keeps that order, is handed on, bit for bit the record a fresh build
    would make; any other ``like`` is ignored.
    WulffError is raised when an offset is non-finite, when
    ``interior_hint`` is not inside every halfspace by at least 1e-6 max|h|,
    as in wulff_shape, when two normals adjacent in angle are not apart by
    an angle in (0, pi), or when some edge has a nonpositive signed length
    along its line, which is where a constraint is inactive.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if not np.all(np.isfinite(offsets)):
        raise WulffError("offsets must be finite")
    center = np.asarray(interior_hint, dtype=float)
    shifted = _shifted_about_hint(normals, offsets, center)
    if like is not None and like.ridges.angular and np.array_equal(like.normals, normals):
        ridges = like.ridges
    else:
        angles = np.arctan2(normals[:, 1], normals[:, 0])
        a = np.argsort(angles)
        gaps = np.diff(angles[a], append=angles[a[0]] + 2.0 * np.pi)
        if not np.all((gaps > 0) & (gaps < np.pi)):
            raise WulffError("normals adjacent in angle must be apart by less "
                             "than pi and more than 0")
        ridges = _cycle(normals, a)
        ridges.angular = True
    vertices, edges, facet_areas, area, centroid = _polygon(shifted, ridges)
    # the edge on line a[j], from vertex j-1 to vertex j, along the tangent
    # (-u_2, u_1) of a counter-clockwise walk
    ua0, ua1 = ridges.cycle[2:4]
    if np.any(edges[:, 1] * ua0 - edges[:, 0] * ua1 <= 0):
        raise WulffError("a constraint is inactive (nonpositive edge)")
    return Body(2, normals, offsets.copy(), vertices + center, facet_areas,
                float(area), centroid + center, offsets.copy(),
                validate=False, ridges=ridges)


def _simple_type(body):
    """The combinatorial type of a polytope whose vertices are all simple.

    Returns (planes, cramer, direction, third, beyond), kept in its ridge
    record: the three facets k, l, m of each vertex, the coefficients
    (u_l x u_m, u_m x u_k, u_k x u_l) / det(u_k, u_l, u_m) that give the
    vertex from their offsets, each ridge's direction u_i x u_j signed
    along its recorded ends, the third facet at each end and its normal.
    WulffError is raised when a facet is inactive or a vertex is not on
    exactly three facets.
    """
    if body.ridges.simple_type is None:
        pairs, ends = body.ridges.pairs, body.ridges.ends
        if (np.any(np.bincount(pairs.ravel(), minlength=len(body.normals)) == 0)
                or np.any(np.bincount(ends.ravel(), minlength=len(body.vertices)) != 3)):
            raise WulffError("a facet is inactive or a vertex is not simple")
        # the three ridges at a vertex name each of its facets twice
        around = np.argsort(ends.ravel(), kind="stable") // 2
        planes = np.sort(pairs[around].reshape(-1, 6), axis=1)[:, ::2]
        uk, ul, um = body.normals[planes.T]
        cross = np.stack([np.cross(ul, um), np.cross(um, uk), np.cross(uk, ul)], axis=1)
        cramer = cross / np.einsum("ij,ij->i", uk, cross[:, 0])[:, None, None]
        ui, uj = body.normals[pairs.T]
        direction = np.cross(ui, uj)
        edges = body.vertices[ends[:, 1]] - body.vertices[ends[:, 0]]
        direction *= np.sign(np.einsum("ij,ij->i", edges, direction))[:, None]
        third = planes[ends].sum(axis=2) - pairs.sum(axis=1)[:, None]
        body.ridges.simple_type = _frozen(planes, cramer, direction, third,
                                          body.normals[third])
    return body.ridges.simple_type


def polytope_same_type(body, offsets, interior_hint):
    """The polytope {<x, u_i> <= h_i} with ``body``'s ridges, built without a hull.

    ``body`` is a 3-dimensional body with recorded ridges, every facet
    active and every vertex simple (on exactly three facets). Each vertex
    is recomputed from its three planes by Cramer's rule,
    v = sum_k s_k (u_l x u_m) / det(u_k, u_l, u_m) with s the offsets about
    ``interior_hint``; the coefficients depend only on the normals and the
    ridges, so they are computed once, in the ridge record it shares.
    It is accepted when every ridge keeps a positive length along
    u_i x u_j in its recorded orientation and each ridge's far end lies
    strictly inside the third plane at its near end. The surface is then
    locally convex at every vertex, so it bounds a convex body (van
    Heijenoort, 1952): the Wulff shape, whose ridges are ``body``'s. Facet
    areas, volume and centroid are read off those ridges as in wulff_shape,
    support values equal the offsets, and Body's invariants hold by
    construction and are not checked.

    WulffError is raised when that combinatorial type does not hold: a
    facet of ``body`` is inactive or a vertex not simple, an offset is
    non-finite, the hint is not inside every halfspace by at least
    1e-6 max|h|, as in wulff_shape, or a check fails.
    """
    if body.dim != 3:
        raise GeometryError("polytope_same_type needs a 3-dimensional body")
    offsets = np.asarray(offsets, dtype=float)
    if not np.all(np.isfinite(offsets)):
        raise WulffError("offsets must be finite")
    planes, cramer, direction, third, beyond = _simple_type(body)
    normals, ends = body.normals, body.ridges.ends
    center = np.asarray(interior_hint, dtype=float)
    shifted = _shifted_about_hint(normals, offsets, center)
    vertices = np.einsum("ikj,ik->ij", cramer, shifted[planes])
    at = vertices[ends]
    # the ridge's far end against the third plane at each of its ends
    slack = np.einsum("ikj,ikj->ik", at[:, ::-1], beyond) - shifted[third]
    if not (np.all(np.einsum("ij,ij->i", at[:, 1] - at[:, 0], direction) > 0)
            and np.all(slack < 0)):
        raise WulffError("the combinatorial type does not hold at these offsets")
    facet_areas, volume, centroid = _fan(shifted, at, body.ridges)
    return Body(3, normals, offsets.copy(), vertices + center, facet_areas, volume,
                centroid + center, offsets.copy(), body.ridges, validate=False)


def _ridge_angles(normals, i, j):
    """1 / sin(theta_ij) and cos(theta_ij) for the angles between normals i and j."""
    ui, uj = normals[i], normals[j]
    if normals.shape[1] == 2:
        sin = np.abs(ui[:, 0] * uj[:, 1] - ui[:, 1] * uj[:, 0])
    else:
        sin = np.linalg.norm(np.cross(ui, uj), axis=1)
    return 1.0 / sin, np.einsum("ij,ij->i", ui, uj)


def _facet_pattern(body):
    """dS/dh's per-ridge data and sparsity pattern, kept in ``body``'s ridge record.

    Returns (facet, 1 / sin(theta_ij), cos(theta_ij), indptr, indices,
    scatter) for the ridge pairs (i, j), with ``facet`` their i's then
    their j's. The entries at every (i, j), every (j, i) and every
    diagonal (k, k), listed in that order and taken in ``scatter`` order,
    are the values of the CSC matrix with that ``indptr`` and
    ``indices``; the pattern is symmetric, so the same arrays are its CSR.
    It depends only on the normals and the ridges, so every body that
    holds the record reads it.
    """
    if body.ridges.pattern is None:
        pairs = body.ridges.pairs
        m = len(body.normals)
        facet = pairs.T.ravel()
        rows = np.concatenate([facet, np.arange(m)])
        cols = np.concatenate([pairs[:, ::-1].T.ravel(), np.arange(m)])
        scatter = np.argsort(cols * m + rows)
        indptr = np.zeros(m + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=m), out=indptr[1:])
        body.ridges.pattern = _frozen(facet, *_ridge_angles(body.normals, *pairs.T),
                                      indptr, rows[scatter].astype(np.intc), scatter)
    return body.ridges.pattern


def _band(body):
    """The n = 2 facet system's band data, kept in ``body``'s ridge record.

    Edge k of the cycle joins a[k] to b[k] = a[k+1]. Taking the cycle as
    0, m-1, 1, m-2, ... puts it in a band of half-width 2: band slot k
    holds cycle position perm[k], and pos inverts perm. Returns
    (1 / sin, -(cot_- + cot_+), nodes, rows, cols): 1 / sin(theta) of each
    edge, the cot sums of the diagonal in slot order, the facet of each
    slot, and the entries of gbsv's band layout at which each edge's
    1 / sin lands, above and below the diagonal.
    """
    if body.ridges.band is None:
        a, b = body.ridges.pairs.T
        m = len(a)
        off, cos = _ridge_angles(body.normals, a, b)
        cot = off * cos
        perm = np.empty(m, dtype=int)
        perm[0::2] = np.arange((m + 1) // 2)
        perm[1::2] = m - 1 - np.arange(m // 2)
        pos = np.empty(m, dtype=int)
        pos[perm] = np.arange(m)
        i, j = pos, np.concatenate([pos[1:], pos[:1]])
        body.ridges.band = _frozen(off, -(cot[perm] + cot[perm - 1]), a[perm],
                                   np.concatenate([4 + i - j, 4 + j - i]),
                                   np.concatenate([j, i]))
    return body.ridges.band


def _facet_matrix(body, diag, coef):
    """(data, indices, indptr) of diag(diag) + coef dS/dh, in CSC (and CSR) order."""
    facet, inv_sin, cos, indptr, indices, scatter = _facet_pattern(body)
    off = inv_sin  # times the ridge's measure, 1 in the plane
    if body.dim == 3:
        ends = body.ridges.ends
        off = off * np.linalg.norm(body.vertices[ends[:, 0]] - body.vertices[ends[:, 1]],
                                   axis=1)
    on = -np.bincount(facet, np.tile(off * cos, 2), minlength=len(diag))
    return (np.concatenate([np.tile(coef * off, 2), diag + coef * on])[scatter],
            indices, indptr)


def facet_jacobian(body):
    """Sparse (m, m) matrix of the facet-area derivatives dS_i/dh_j.

    Moving facet j out by dh sweeps each ridge it shares with facet i, of
    measure l_ij (1 in the plane, the edge length in space), across facet
    i's plane, so for neighbours

        dS_i/dh_j = l_ij / sin(theta_ij),
        dS_i/dh_i = -sum_j l_ij cot(theta_ij),

    with theta_ij the angle between the normals; facets that share no
    ridge do not interact. Read off the body's ridge record, with the
    per-ridge 1 / sin(theta_ij), cos(theta_ij) and sparsity pattern kept
    in it, from which solve_facet_system assembles its n = 3 systems.
    """
    m = len(body.normals)
    return sparse.csr_matrix(_facet_matrix(body, np.zeros(m), 1.0), shape=(m, m))


def solve_facet_system(body, diag, coef, rhs):
    """X with (diag(diag) + coef dS/dh) X = rhs, dS/dh as in facet_jacobian.

    ``diag`` is an (m,) array and ``rhs`` an (m,) or (m, k) one, solved
    for every column at once. At n = 2 dS/dh is cyclic tridiagonal over
    the active facets in the angular order of ``body.ridges.pairs``:
    1 / sin(theta) beside the diagonal and -(cot(theta_-) + cot(theta_+))
    on it. Taking that cycle as 0, m-1, 1, m-2, ... makes the system a
    band of half-width 2, solved by LAPACK's banded LU gbsv, and an
    inactive facet's row is ``diag`` alone. At n = 3 the matrix is
    symmetric and its sparsity pattern is fixed while the ridges hold:
    each call computes only the ridge lengths and the values, scatters
    them onto the pattern facet_jacobian reads (kept in the record), and
    SuperLU factors the result in symmetric mode, ordered by minimum
    degree on A + A^T, with its default threshold pivoting, which keeps
    the indefinite systems of the descent safe. Returns NaN in every
    entry when the system is singular or its data or solution are not
    finite.
    """
    with np.errstate(all="ignore"):
        if body.dim == 3:
            from scipy.sparse.linalg import splu  # SuperLU loads at the first system
            m = len(diag)
            M = sparse.csc_matrix(_facet_matrix(body, diag, coef), shape=(m, m))
            try:
                X = splu(M, permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True)).solve(rhs)
            except RuntimeError:
                X = np.nan  # SuperLU refuses an exactly singular matrix
        else:
            off, cots, nodes, rows, cols = _band(body)
            # gbsv's layout: two rows for the LU's fill-in above the band's five
            band = np.zeros((7, len(nodes)))
            band[4] = diag[nodes] + coef * cots
            band[rows, cols] = np.tile(coef * off, 2)
            # an inactive facet's row is diag alone
            X = (rhs.T / diag).T
            X[nodes] = np.nan
            if np.isfinite(band).all():
                _, _, x, info = dgbsv(2, 2, band, rhs[nodes], overwrite_ab=True)
                if info == 0:  # else a zero pivot: the system is singular
                    X[nodes] = x
    return X if np.all(np.isfinite(X)) else np.full(rhs.shape, np.nan)


def lp_surface_area_measure(body, p):
    """Masses h(u_i)^(1-p) * S_i of the Lp surface area measure.

    Returns an (m,) array aligned with body.normals. Requires p < 1 and the
    origin inside the closed body; a facet with zero support carries zero
    mass (the exponent 1-p is positive).
    """
    if p >= 1:
        raise GeometryError("lp_surface_area_measure requires p < 1")
    h = body.support_values
    if np.min(h) < -1e-10 * float(np.max(np.abs(h))):
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
    """OFF mesh text for a 3-dimensional body, read off its recorded ridges.

    Each facet is fanned from its lowest-index vertex over its own edges, and
    each triangle faces along the facet's outer normal: 2V - 4 triangles in all.
    """
    if body.dim != 3:
        raise GeometryError("OFF export needs a 3-dimensional body")
    # every ridge is an edge of both its facets
    facet, (a, b) = body.ridges.pairs.T.ravel(), np.tile(body.ridges.ends.T, 2)
    apex = np.full(len(body.normals), len(body.vertices))
    np.minimum.at(apex, facet, np.minimum(a, b))
    tri = np.column_stack([apex[facet], a, b])
    x, y, z = body.vertices[tri.T]
    flip = np.einsum("ij,ij->i", np.cross(y - x, z - x), body.normals[facet]) < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    tri = tri[(a != apex[facet]) & (b != apex[facet])]
    return "\n".join(["OFF", "%d %d 0" % (len(body.vertices), len(tri))]
                     + ["%.17g %.17g %.17g" % tuple(v) for v in body.vertices.tolist()]
                     + ["3 %d %d %d" % tuple(t) for t in tri.tolist()]) + "\n"
