# Hemisphere symmetrization
# =========================
#
# A measure concentrated on a quarter arc fails the usual coercivity
# hypotheses: whole open hemispheres carry no mass. The remedy is to spread
# rotated copies of the measure around a regular simplex of directions,
# solve for the symmetrized measure, and cut the solution back to one
# Dirichlet-Voronoi cone of the simplex. The restricted body reproduces
# the original measure.

import numpy as np

from lpmink.geometry import lp_surface_area_measure, wulff_shape
from lpmink.measures import density_measure, symmetrize_hemisphere
from lpmink.solver import solve
from lpmink.sphere import build_grid

reflection = np.array([[-1.0, 0.0], [0.0, 1.0]])
grid = build_grid(2, 360, symmetry=[np.eye(2), reflection])


def quarter_arc(U):
    ang = np.arctan2(U[:, 1], U[:, 0])
    return np.where(np.abs(ang) <= np.pi / 4 + 1e-12, 1.0, 0.0)


mu = density_measure(quarter_arc, grid)
print("arc measure: total %.4f on %d atoms"
      % (mu.total_mass, len(mu.on_support()[1])))

mu0, simplex, A, cone = symmetrize_hemisphere(mu)
print("simplex directions:\n%s" % np.round(simplex, 6))
print("symmetrized total: %.4f (d+1 = %d copies)"
      % (mu0.total_mass, len(simplex)))

M, report = solve(mu0, 0.5)
print("solve on mu0: converged=%s, residual_l1=%.2e"
      % (report.converged, report.residual_l1))

# restrict to the cone D(v0) = {<x, w> >= 0 for the inner normals w}
walls = -cone
K = wulff_shape(2, np.vstack([M.normals, walls]),
                np.concatenate([M.support_values, np.zeros(len(walls))]))
restricted = lp_surface_area_measure(K, 0.5)
l1 = np.abs(restricted[:len(grid)] - mu.masses).sum() / mu.total_mass
print("restricted body matches the original arc measure: l1 = %.2e" % l1)
print("wall facets carry Lp mass %.2e (supports vanish there)"
      % restricted[len(grid):].sum())
