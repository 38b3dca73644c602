# Energy machinery
# ================
#
# The solver minimizes the integral of phi_eps(h_K(u) - <u, xi>) against
# the target measure over volume-one bodies, where xi is the body's optimal
# center. This script shows the two moving parts: the eps-modification of
# phi and the center's gradient condition.

import numpy as np

from lpmink.energy import build_profile, optimal_center
from lpmink.geometry import wulff_shape
from lpmink.measures import density_measure
from lpmink.sphere import build_grid

# 1. the profile: equal to phi above 3*eps, to -t^(-q) below eps, bridged
#    by monotone concave cubics in between
for p in (0.5, -0.5, -1.5):
    prof = build_profile(p, 2, 0.1)
    kind = "phi itself" if prof.is_unmodified else \
        "%d-piece cubic bridge" % len(prof.pieces)
    print("p=%+.1f: q=%.1f, bridge: %s" % (p, prof.q, kind))
    t = np.array([0.05, 0.15, 0.5, 2.0])
    print("   phi_eps  ", np.round(prof.phi(t), 4))
    print("   phi_eps' ", np.round(prof.dphi(t), 4))

# 2. the optimal center: for an asymmetric body it moves off the centroid
#    and zeroes the vector integral of u phi_eps'(h - <u, xi>) d mu
grid = build_grid(2, 256)
mu = density_measure(lambda U: np.ones(len(U)), grid)
ang = np.array([0.4, 2.3, 4.3])
triangle = wulff_shape(2, np.column_stack([np.cos(ang), np.sin(ang)]),
                       np.array([1.0, 0.7, 1.2]))
prof = build_profile(0.5, 2, 0.05)
xi, value, grad_norm, hess = optimal_center(triangle, mu, prof)
print("triangle centroid:      %s" % np.round(triangle.centroid, 6))
print("optimal center xi(K):   %s" % np.round(xi, 6))
print("energy Phi_eps(K, xi):  %.6f" % value)
print("gradient norm at xi:    %.1e" % grad_norm)
print("Hessian eigenvalues:    %s (negative definite)"
      % np.round(np.linalg.eigvalsh(hess), 3))
