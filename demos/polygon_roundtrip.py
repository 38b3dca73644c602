# Polygon round trip
# ==================
#
# Start from a known polygon, read off its Lp surface area measure (an
# atomic measure on the facet normals), smooth it into a strictly positive
# density with the Dirichlet-Voronoi construction, and solve. Since the
# Lp Minkowski problem is not unique for p < 1, we compare measures, never
# bodies: the output's Lp measure should reproduce the smoothed target.

import numpy as np

from lpmink.geometry import lp_surface_area_measure, wulff_shape
from lpmink.measures import smooth_discrete
from lpmink.solver import solve
from lpmink.sphere import build_grid

rng = np.random.default_rng(7)
angles = np.sort(rng.uniform(0, 2 * np.pi, 12))
normals = np.column_stack([np.cos(angles), np.sin(angles)])
offsets = rng.uniform(0.7, 1.3, 12)
polygon = wulff_shape(2, normals, offsets)
print("generator polygon: volume %.4f, %d active facets"
      % (polygon.volume, int(np.sum(polygon.facet_areas > 0))))

p = -1.0
raw_mass = lp_surface_area_measure(polygon, p)
print("raw Lp measure: total mass %.4f on %d atoms"
      % (raw_mass.sum(), len(raw_mass)))

grid = build_grid(2, 256)
mu = smooth_discrete(polygon.normals, raw_mass, grid, m=32)
print("smoothed: total %.4f, density in [%.2e, %.2e]"
      % (mu.total_mass, *mu.density_bounds))

M, report = solve(mu, p)
print("solve: converged=%s, residual_l1=%.4f, touch mass=%.2e"
      % (report.converged, report.residual_l1, report.touch_mass))
print("per-stage (eps, iterations, residual):")
for s in report.stages:
    print("   %.4f  %4d  %.2e" % (s.eps, s.iterations, s.residual))
