"""
Staggered summation-by-parts operators and SAT penalties
========================================================

Odd variables live on integer nodes, even variables on midpoints plus both
endpoints, so each derivative is a plain central difference. The boundary
closures come from a table of dyadic rationals (denominators up to 32),
exact in binary, with both ends superposed: the left-end closure meets the
accuracy constraints and the SBP identity Q^o + (Q^e)^T = B, the right end
is its mirror image, and where the two ends share rows their deviations
from the stencil add. Doubles hold every entry and every such sum exactly,
so the identity holds entrywise, which makes the discrete
integration-by-parts identity hold to the last bit and carries the energy
bound to the semi-discrete level.
"""

import numpy as np

from pnsat import StaggeredGrid1d, build_sbp_pair, sat_penalties

grid = StaggeredGrid1d(0.0, 1.0, 16)
pair = build_sbp_pair(grid)
print("odd nodes:", grid.x_odd[:4], "...")
print("even nodes:", grid.x_even[:4], "...")

# The SBP identity holds entrywise exactly (not just to roundoff).
b = pair.q_odd + pair.q_even.T
print("\nSBP identity exact:", np.array_equal(b, pair.boundary_matrix()))
print("corner entries of B:", b[0, 0], b[-1, -1])

# Derivative exactness: constants vanish, linears are exact on both grids,
# and the odd-grid derivative is exact through quadratics at every node.
print("D^o 1 ->", np.abs(pair.d_odd @ np.ones(18)).max())
print("D^o x ->", np.abs(pair.d_odd @ grid.x_even - 1.0).max())
print("D^o x^2 ->", np.abs(pair.d_odd @ grid.x_even**2 - 2 * grid.x_odd).max())

# Observed convergence of the derivative in the discrete norm.
print("\nconvergence of D^o on sin(x + 2):")
prev = None
for n in (16, 32, 64, 128):
    g = StaggeredGrid1d(0.0, 1.0, n)
    p = build_sbp_pair(g)
    err = p.d_odd @ np.sin(g.x_even + 2.0) - np.cos(g.x_odd + 2.0)
    nrm = float(np.sqrt(err @ (p.p_odd * err)))
    rate = "" if prev is None else f"   order {np.log2(prev / nrm):.2f}"
    print(f"  n = {n:4d}: error {nrm:.3e}{rate}")
    prev = nrm

# Discrete integration by parts reproduces pure boundary terms.
rng = np.random.default_rng(0)
f_e, g_o = rng.standard_normal(18), rng.standard_normal(17)
lhs = (pair.d_odd @ f_e) @ (pair.p_odd * g_o) + (pair.d_even @ g_o) @ (pair.p_even * f_e)
print("\nintegration by parts residual:",
      abs(lhs - (f_e[-1] * g_o[-1] - f_e[0] * g_o[0])))

# SAT penalties: tau^o = -alpha L^{-1} with alpha in [0, 1] keeps stability;
# alpha = 1 makes the even-side penalty vanish identically.
l_scalar = np.array([[1.5]])
a_row = np.array([[0.5774, -0.2582, 0.4472]])
for alpha in (0.0, 0.5, 1.0):
    tau_odd, tau_even = sat_penalties(l_scalar, a_row, alpha)
    print(f"alpha = {alpha}: tau^o = {tau_odd.ravel()}, |tau^e| = {np.abs(tau_even).max():.3f}")
