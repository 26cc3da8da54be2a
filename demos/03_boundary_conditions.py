"""
Half-moment boundary conditions and their stabilization
========================================================

Enforcing the kinetic inflow condition weakly against the axis-odd basis
functions gives u^o = Mtilde u^e + g per face. Mtilde itself couples
incoming waves to standing waves and admits energy growth; replacing the
highest-degree tail of the degree recursion turns it into M = +/- L Ahat
with L symmetric positive definite, which bounds the energy by initial
plus boundary data and determines exactly the incoming characteristics.
"""

import numpy as np

from pnsat import (
    Face,
    MomentBasis,
    assemble_transport,
    boundary_source,
    characteristic_form,
    eigenstructure,
    marshak_matrix,
    onsager_L,
    onsager_bc,
)
from pnsat.checks import golden_sector

basis = MomentBasis.build(2)
system = assemble_transport(basis)

# Restrict to the transversally even sector of the order-2 system: one odd
# component coupled to three even ones. These are the numbers quoted in
# every golden test of the package.
rows, cols = golden_sector(basis)

face = Face(1, "high")
a_hat = system.a_hat_block(1, rows, cols)
mt = marshak_matrix(basis, face, rows=rows, cols=cols)
l_mat = onsager_L(basis, face, rows=rows)
bc = onsager_bc(basis, face, system, rows=rows, cols=cols)
print("coupling row  Ahat       =", a_hat.ravel())
print("half-moment   Mtilde     =", mt.ravel())
print("stabilized    M = L Ahat =", bc.m_matrix.ravel(), " with L =", l_mat.ravel())
print("Mtilde . (1, 2.5, -1)    =", float(mt.ravel() @ [1.0, 2.5, -1.0]))

# The two matrices differ only in the columns of the highest even degree:
print("difference per column    :", (mt - bc.m_matrix).ravel())

# Eigenstructure of the block matrix: singular values of the coupling block
# are the nonzero wave speeds; the kernel spans the standing waves.
eig = eigenstructure(a_hat)
print("\nwave speed:", eig.lambda_p, "  standing modes:", eig.x_kernel.shape[1])
cf = characteristic_form(bc, eig)
u_e = np.array([1.0, 2.5, -1.0])
u_o = bc.m_matrix @ u_e
w_in, w_out = cf.waves(u_o, u_e)
print("characteristic residual at a compatible state:", cf.residual(u_o, u_e))
print("incoming / outgoing waves:", w_in, w_out)

# Boundary sources project the incoming distribution onto the odd functions.
g = boundary_source(Face(3, "high"), lambda om: np.ones(om.shape[0]), MomentBasis.build(1))
print("\nunit isotropic inflow at the top z-face, order 1: g =", g, "= -sqrt(3 pi)")
