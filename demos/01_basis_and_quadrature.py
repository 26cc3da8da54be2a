"""
Real spherical harmonics, per-axis parity, and sphere quadrature
================================================================

The direction dependence of the transport solution is expanded in real
spherical harmonics. This walk-through shows the basis conventions, the
even/odd classification per Cartesian axis, and the product quadrature
that makes the boundary matrices exact (the transport matrices come in
closed form).
"""

import numpy as np

from pnsat import (
    Direction,
    ShIndex,
    basis_indices,
    build_quadrature,
    classify_parity,
    eval_basis,
    eval_sh,
    reflect,
)

# The basis is ordered lexicographically in (degree l, order k); the flat
# position of (l, k) is l^2 + k + l.
for idx in basis_indices(2):
    print(f"position {idx.flat}: (l={idx.l}, k={idx.k})")

# The mean mode is the constant 1/sqrt(4 pi); degree one is proportional to
# the direction components themselves.
pole = Direction((0.0, 0.0, 1.0))
print("\nY_0^0 =", eval_sh(ShIndex(0, 0), pole), "= 1/sqrt(4 pi)")
print("Y_1^0 at the pole =", eval_sh(ShIndex(1, 0), pole), "= sqrt(3/(4 pi))")

# Each basis function is even or odd under reflecting one Cartesian axis;
# the classification follows closed-form rules in (l, k).
omega = Direction.from_mu_phi(0.4, 1.1)
for axis in (1, 2, 3):
    idx = ShIndex(2, 1)
    parity = classify_parity(axis, idx)
    val = eval_sh(idx, omega)
    val_reflected = eval_sh(idx, reflect(omega, axis))
    print(f"axis {axis}: Y_2^1 is {parity:5s}  ({val:+.6f} -> {val_reflected:+.6f})")

# A Gauss-Legendre (polar cosine) x trapezoid (azimuth) product rule
# integrates basis products exactly: the Gram matrix is the identity.
n_max = 8
quad = build_quadrature(n_max)
y = eval_basis(n_max, quad.nodes)
gram = y.T @ (quad.weights[:, None] * y)
print("\nfull-sphere weights sum to 4 pi:", quad.weights.sum())
print("Gram-matrix deviation from identity:", np.abs(gram - np.eye(y.shape[1])).max())

# Half-sphere rules never place a node on the equator, so integrands with a
# removable 1/omega_axis singularity are safe; the two halves add up to the
# full sphere.
half_up = build_quadrature(n_max, restriction=(3, +1))
half_dn = build_quadrature(n_max, restriction=(3, -1))
print("half-sphere weights sum to 2 pi:", half_up.weights.sum())
print("smallest |omega_z| sampled:", np.abs(half_up.nodes[:, 2]).min())
y_up = eval_basis(n_max, half_up.nodes)
y_dn = eval_basis(n_max, half_dn.nodes)
split = y_up.T @ (half_up.weights[:, None] * y_up) + y_dn.T @ (half_dn.weights[:, None] * y_dn)
print("half + half = full deviation:", np.abs(split - gram).max())
