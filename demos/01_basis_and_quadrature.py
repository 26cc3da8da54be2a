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

from pnsat import build_quadrature, degrees_orders, eval_basis, flat_position, parity_signs, reflect

# The basis is ordered lexicographically in (degree l, order k); the flat
# position of (l, k) is l^2 + k + l. The degree and order of every position
# are two integer arrays.
degrees, orders = degrees_orders(2)
for pos, (l, k) in enumerate(zip(degrees.tolist(), orders.tolist())):
    print(f"position {pos}: (l={l}, k={k})")

# The mean mode is the constant 1/sqrt(4 pi); degree one is proportional to
# the direction components themselves.
pole = np.array([0.0, 0.0, 1.0])
y_pole = eval_basis(1, pole)
print("\nY_0^0 =", y_pole[flat_position(0, 0)], "= 1/sqrt(4 pi)")
print("Y_1^0 at the pole =", y_pole[flat_position(1, 0)], "= sqrt(3/(4 pi))")

# Each basis function is even or odd under reflecting one Cartesian axis;
# the classification follows closed-form rules in (l, k).
mu, phi = 0.4, 1.1
s = np.sqrt(1.0 - mu * mu)
omega = np.array([s * np.cos(phi), s * np.sin(phi), mu])
pos = flat_position(2, 1)
signs = parity_signs(2, 1)
for axis in (1, 2, 3):
    parity = "even" if signs[axis - 1] > 0 else "odd"
    val = eval_basis(2, omega)[pos]
    val_reflected = eval_basis(2, reflect(omega, axis))[pos]
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
