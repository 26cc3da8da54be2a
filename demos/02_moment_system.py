"""
Assembling the moment transport system
======================================

Testing the transport equation against the basis yields one symmetric
matrix per spatial axis. Multiplying a basis function by a direction
component flips its parity along that axis and nothing else, so sorting
odd components first exposes an off-diagonal block structure with a full
row-rank coupling block -- the property every stability result in this
package rests on.
"""

import numpy as np

from pnsat import (
    MomentBasis,
    ScatteringSpectrum,
    assemble_transport,
    flat_position,
    recursion_check,
    scattering_diagonal,
)

basis = MomentBasis.build(5)
system = assemble_transport(basis)
print(f"order {basis.n_max}: {basis.dim} moments, "
      f"{basis.n_odd} odd / {basis.n_even} even per axis")

# After the odd-first permutation the same-parity blocks vanish identically.
axis = 1
odd, even = basis.odd_positions(axis), basis.even_positions(axis)
a = system.a_full[axis - 1]
print("odd-odd block max:", np.abs(a[np.ix_(odd, odd)]).max())
print("even-even block max:", np.abs(a[np.ix_(even, even)]).max())
print("coupling block shape:", system.a_hat[axis - 1].shape)

# The spectrum is symmetric about zero with exactly n_max + 1 standing modes.
ev = np.linalg.eigvalsh(a)
print("eigenvalues come in +/- pairs:", np.abs(ev + ev[::-1]).max())
print("standing modes:", int(np.sum(np.abs(ev) < 1e-10)), "=", basis.n_max + 1)
print("fastest wave speed:", system.max_speed())

# The assembled entries satisfy the degree-coupling recursion pointwise.
rng = np.random.default_rng(0)
dirs = rng.standard_normal((200, 3))
dirs /= np.linalg.norm(dirs, axis=1)[:, None]
print("recursion-identity residual:", max(recursion_check(system, ax, dirs) for ax in (1, 2, 3)))

# Rotation-invariant scattering kernels act diagonally: the entry for a
# degree-l moment is the l-th Legendre moment minus the total cross section.
iso = scattering_diagonal(ScatteringSpectrum.isotropic(2.0, basis.n_max), basis)
print("\nisotropic kernel: mean mode conserved (entry", iso[0], "), others relax at", iso[1])
hg = scattering_diagonal(ScatteringSpectrum.henyey_greenstein(1.0, 0.5, basis.n_max), basis)
print("Henyey-Greenstein g=0.5: degree-2 entry", hg[flat_position(2, 0)], "= 0.25 - 1")
