"""Staggered-grid SBP finite-difference operators and SAT penalties.

Two grids share an interval: integer nodes x_i = x_L + i*h carry the odd
variables (n+1 nodes), midpoints plus both endpoints carry the even
variables (n+2 nodes).  The operator pair (P^o, Q^o, P^e, Q^e) satisfies

    Q^o + (Q^e)^T = B,   B = -e_first e_first^T + e_last e_last^T pattern,

with diagonal positive P, interior stencils that are plain staggered
central differences, and closures from a table of dyadic rationals, exact
in binary, both ends superposed on every grid with n >= 4 cells
(:func:`_overlay`).  The resulting D^o = (P^o)^{-1} Q^o is second-order
accurate at every node; D^e is second-order except first-order in its two
boundary rows.  A pair keeps what the transport kernel reads, the norm
vectors and the dense closure corners, plus the exact closure entries,
built in time linear in the number of cells.  The dense matrices Q and D,
reference operators for the checks and tests that no run reads, are
assembled from those and the interior stencil on first access.

Mirror plane.  A grid built with ``mirror=True`` stores only x >= 0 of a
symmetric interval [-X, X] with an even number n >= 8 of cells; h is the
full grid's.  Then x = 0 is an integer node where every odd (Omega-odd,
hence x-odd) variable vanishes, so the half grid stores no node there: the
odd grid is x = h, ..., X (n/2 nodes) and the even grid x = h/2, ..., X
(n/2 + 1 nodes).  The first even row reads u_o(h) / h, one 1 x 1 closure
corner; every other low-end row is the plain stencil and the high end keeps
the full grid's closure.  The half pair satisfies

    Q^o + (Q^e)^T = e_last e_last^T

exactly, with no term at the plane, so the semi-discrete energy estimate
carries over unchanged and the half norm is exactly half the full norm of
the mirror-symmetric extension.

SAT penalties for the boundary condition u^o = +/- L Ahat u^e + g follow
the one-parameter family tau^o = -alpha L^{-1}, alpha in [0, 1], with
tau^e = +/-(1 - alpha) Ahat^T tied to tau^o so the mixed boundary terms in
the discrete energy rate cancel; the sign is that of the face normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class StaggeredGrid1d:
    """Interval with its odd (integer) and even (midpoint + endpoint) grids.

    With ``mirror`` the grid holds only the nodes x > 0 of the symmetric
    interval [x_left, x_right] = [-X, X]; ``n_cells`` and ``h`` stay those
    of the full interval, and :attr:`full` is the full grid.
    """

    x_left: float
    x_right: float
    n_cells: int
    mirror: bool = False

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValidationError(f"staggered grid needs at least 4 cells, got {self.n_cells}")
        if not self.x_right > self.x_left:
            raise ValidationError("grid interval must have positive length")
        if self.mirror and not (
            self.x_left == -self.x_right and self.n_cells % 2 == 0 and self.n_cells >= 8
        ):
            raise ValidationError(
                "a mirrored grid needs extents [-X, X] and an even cell count of at least 8, "
                f"got [{self.x_left}, {self.x_right}] with {self.n_cells} cells"
            )

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def full(self) -> "StaggeredGrid1d":
        """The grid over the whole interval (the grid itself unless mirrored)."""
        return StaggeredGrid1d(self.x_left, self.x_right, self.n_cells) if self.mirror else self

    @property
    def kept(self) -> slice:
        """The full grid's nodes this grid stores, on both grids: those with x > 0 when mirrored."""
        return slice(self.n_cells // 2 + 1, None) if self.mirror else slice(None)

    @cached_property
    def x_odd(self) -> np.ndarray:
        """The odd-grid nodes, computed once per grid; read-only."""
        return _read_only((self.x_left + self.h * np.arange(self.n_cells + 1))[self.kept])

    @cached_property
    def x_even(self) -> np.ndarray:
        """The even-grid nodes, computed once per grid; read-only."""
        mids = self.x_left + self.h * (np.arange(self.n_cells) + 0.5)
        return _read_only(np.concatenate(([self.x_left], mids, [self.x_right]))[self.kept])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ClosureCorner:
    """Dense block ``weights = h * D[rows, cols]`` at one end of D^o or D^e.

    ``rows`` spans the closure rows of that end (with any stencil rows
    between them) and ``cols`` every column they touch; the entries come
    from the exact closure, so applying ``weights`` to ``u[cols]`` gives
    h * (D u)[rows].
    """

    rows: slice
    cols: slice
    weights: np.ndarray


@dataclass(frozen=True)
class SbpPair:
    """Operator pair on one staggered grid: norms, closure corners, exact closure entries.

    ``p_odd`` / ``p_even`` are the diagonal norm entries (already scaled by
    h).  ``corners_odd`` / ``corners_even`` hold the closure corners of
    D^o / D^e, low end first: every row outside them is the staggered
    central stencil.  A full grid has a corner at each end; on a mirrored
    grid D^o has only its high-end corner and D^e adds the 1 x 1 corner of
    its first row.  These are all the transport kernel reads.
    ``closure_odd`` / ``closure_even`` hold the exact (h = 1) entries of Q^o
    / Q^e per row they cover; every other row is the stencil -1, +1.

    The dense reference operators are built together on first access of
    any of them: ``q_odd`` is (n+1) x (n+2), ``q_even`` is (n+2) x (n+1),
    ``d_odd`` = (P^o)^{-1} Q^o maps even-grid functions to odd-grid
    derivative values and ``d_even`` vice versa.
    """

    grid: StaggeredGrid1d
    p_odd: np.ndarray
    p_even: np.ndarray
    corners_odd: tuple[ClosureCorner, ...]
    corners_even: tuple[ClosureCorner, ...]
    closure_odd: dict
    closure_even: dict

    @cached_property
    def _operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Q^o, Q^e, D^o, D^e), assembled once."""
        n_odd, n_even = self.p_odd.size, self.p_even.size
        q_odd, d_odd = _dense(self.closure_odd, self.p_odd, (n_odd, n_even), 0)
        q_even, d_even = _dense(self.closure_even, self.p_even, (n_even, n_odd), -1)
        return q_odd, q_even, d_odd, d_even

    @property
    def q_odd(self) -> np.ndarray:
        return self._operators[0]

    @property
    def q_even(self) -> np.ndarray:
        return self._operators[1]

    @property
    def d_odd(self) -> np.ndarray:
        return self._operators[2]

    @property
    def d_even(self) -> np.ndarray:
        return self._operators[3]

    def boundary_matrix(self) -> np.ndarray:
        """The exact corner matrix B = Q^o + (Q^e)^T: e_last e_last^T, less e_first e_first^T unless mirrored."""
        b = np.zeros((self.p_odd.size, self.p_even.size))
        b[-1, -1] = 1.0
        if not self.grid.mirror:
            b[0, 0] = -1.0
        return b


# ---------------------------------------------------------------------------
# exact closure

# The left-end closure in units h = 1: Q^o rows 0..2 over even columns 0..3,
# Q^e rows 0..3 over odd columns 0..3 (column 3 holds only the stencil's +1 of
# row 3) and the first norm entries.  They meet the SBP identity on the
# corner, make D^o exact on 1, x, x^2 in every row and D^e exact on 1, x, x^2
# in rows 1..3 and on 1, x in its boundary row; tests/test_sbp.py checks each
# condition in exact arithmetic.  Every entry is a dyadic rational with a
# denominator of at most 32, so a double holds it exactly, and the overlay's
# sums of such entries are exact too.
_CORNER_Q_ODD = (
    (-3 / 4, 25 / 32, 0.0, -1 / 32),
    (-1 / 4, -25 / 32, 15 / 16, 3 / 32),
    (0.0, 0.0, -15 / 16, 15 / 16),
)
_CORNER_Q_EVEN = (
    (-1 / 4, 1 / 4, 0.0, 0.0),
    (-25 / 32, 25 / 32, 0.0, 0.0),
    (0.0, -15 / 16, 15 / 16, 0.0),
    (1 / 32, -3 / 32, -15 / 16, 1.0),
)
_CORNER_P_ODD = (5 / 16, 5 / 4, 15 / 16)
_CORNER_P_EVEN = (1 / 4, 25 / 32, 15 / 16, 33 / 32)


def _overlay(n: int):
    """Exact (h = 1) entries of the full pair's closure rows on an n >= 4 cell grid.

    Returns the rows ``qo[i][j]``, ``qe[j][i]`` and the norms ``po[i]``,
    ``pe[j]`` the corners cover, zero entries dropped (a covered row may be
    empty); every other row is the stencil -1, +1 at columns i + shift,
    i + shift + 1 with unit norm.  Each entry is that stencil plus the left
    corner's deviation from it plus the deviation's antisymmetric mirror
    image (i, j) -> (last row - i, last column - j) at the right end; the
    stencil is itself antisymmetric under that map.  For n = 4, 5 the ends
    share rows and the two deviations are added there, not overwritten.  The
    SBP identity and the accuracy conditions are linear in (Q, P) and hold
    for the stencil alone on the shared (interior) rows, so the sum meets
    them too; the shared norms are 7/8 and 31/32.
    """
    out = []
    for table, norms, shift, n_rows in (
        (_CORNER_Q_ODD, _CORNER_P_ODD, 0, n + 1),
        (_CORNER_Q_EVEN, _CORNER_P_EVEN, -1, n + 2),
    ):
        n_cols = n_rows + 1 + 2 * shift
        q, p = {}, {}
        for r, (row, w) in enumerate(zip(table, norms)):
            i = n_rows - 1 - r
            p[r] = p.get(r, 1.0) + w - 1
            p[i] = p.get(i, 1.0) + w - 1
            low, high = q.setdefault(r, {}), q.setdefault(i, {})
            for c, v in enumerate(row):
                j = n_cols - 1 - c
                st = (c == r + shift + 1) - (c == r + shift)  # the stencil entry; it is -st at (i, j)
                low[c] = low.get(c, st) + v - st
                high[j] = high.get(j, -st) - (v - st)
        out.append(({i: {j: v for j, v in row.items() if v} for i, row in q.items()}, p))
    (qo, po), (qe, pe) = out
    return qo, qe, po, pe


def _mirror_overlay(n: int):
    """Exact (h = 1) closure rows and norms of the half pair on x > 0 of an even n >= 8 cell grid.

    The full grid's high-end rows, shifted so that its node n/2 + 1 (x = h
    on the odd grid, h/2 on the even grid) becomes row 0, plus the first
    even row's single entry +1 at odd column 0: its stencil partner is the
    node x = 0, where every odd variable of a mirror-symmetric state
    vanishes.
    """
    qo_f, qe_f, po_f, pe_f = _overlay(n)
    o = n // 2 + 1
    qo, qe = ({i - o: {j - o: v for j, v in row.items()} for i, row in q.items() if i >= o} for q in (qo_f, qe_f))
    po, pe = ({i - o: w for i, w in p.items() if i >= o} for p in (po_f, pe_f))
    qe[0], pe[0] = {0: 1.0}, 1.0
    return qo, qe, po, pe


def _closure(rows: dict, p: dict, n_rows: int, shift: int, h: float, split: int):
    """Scaled norm P and closure corners of one operator.

    ``rows`` and ``p`` (:func:`_overlay`) hold the exact (h = 1) entries of
    the rows they cover; every other row i is the staggered stencil -1, +1
    at columns i + shift, i + shift + 1 with unit norm.  A covered row is a
    closure row when its D entries differ from that stencil; the closure
    rows below ``split`` make up the low-end :class:`ClosureCorner`, the
    others the high-end one, and an end without closure rows has no corner.
    The one rounding is the division Q / P, correctly rounded.
    """
    p_vec = np.ones(n_rows)
    p_vec[list(p)] = list(p.values())
    p_vec *= h

    def stencil(i):
        return {i + shift: -1.0, i + shift + 1: 1.0}

    h_d = {i: {j: w / p[i] for j, w in row.items()} for i, row in rows.items()}  # rows of h * D
    closure = [i for i, e in h_d.items() if e != stencil(i)]
    low = [i for i in closure if i < split]
    high = [i for i in closure if i >= split]
    corners = []
    for lo, hi in ((0, max(low, default=-1) + 1), (min(high, default=n_rows), n_rows)):
        if lo == hi:
            continue
        entries = [h_d[i] if i in h_d else stencil(i) for i in range(lo, hi)]
        c0 = min(min(e) for e in entries)
        weights = np.zeros((hi - lo, max(max(e) for e in entries) + 1 - c0))
        for i, e in enumerate(entries):
            for j, w in e.items():
                weights[i, j - c0] = w
        corners.append(ClosureCorner(slice(lo, hi), slice(c0, c0 + weights.shape[1]), weights))
    return p_vec, tuple(corners)


def _dense(rows: dict, p_vec: np.ndarray, shape: tuple[int, int], shift: int):
    """Dense Q and D = Q / P of one operator from its closure rows and the stencil elsewhere."""
    q_mat = np.zeros(shape)
    stencil = np.setdiff1d(np.arange(shape[0]), list(rows))
    q_mat[stencil, stencil + shift] = -1.0
    q_mat[stencil, stencil + shift + 1] = 1.0
    for i, row in rows.items():
        q_mat[i, list(row)] = list(row.values())
    return q_mat, q_mat / p_vec[:, None]


def build_sbp_pair(grid: StaggeredGrid1d) -> SbpPair:
    """Second-order staggered SBP pair on a grid; closures from the dyadic table, exact in binary.

    The SBP identity Q^o + (Q^e)^T = B holds entrywise exactly: every
    closure entry and norm is a dyadic rational that a double holds
    exactly, so the only rounding is the division D = P^{-1} Q.  P entries
    are positive; D^o is exact through quadratics at every node.  The build
    forms the closure corners and the norms only, in time linear in the
    number of cells; the dense matrices are assembled from the interior
    stencil and the closure rows on first access (:class:`SbpPair`).
    On a mirrored grid the pair is the half pair of the module docstring.
    """
    n = grid.n_cells
    n_odd, n_even = grid.x_odd.size, grid.x_even.size
    if grid.mirror:
        (qo, qe, po, pe), split_odd, split_even = _mirror_overlay(n), 1, 1
    else:
        qo, qe, po, pe = _overlay(n)
        split_odd, split_even = (n_odd + 1) // 2, (n_even + 1) // 2
    p_odd, corners_odd = _closure(qo, po, n_odd, 0, grid.h, split_odd)
    p_even, corners_even = _closure(qe, pe, n_even, -1, grid.h, split_even)
    return SbpPair(grid, p_odd, p_even, corners_odd, corners_even, qo, qe)


# ---------------------------------------------------------------------------
# SAT penalties


def sat_penalties(l_matrix: np.ndarray, a_hat: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Energy-stable penalties (tau_odd, tau_even) of the high face: tau^o = -alpha L^{-1}, tied tau^e.

    The tied even-side penalty is tau^e = (1 - alpha) Ahat^T, exactly zero at
    alpha = 1; tau_odd is r x r and tau_even s x r.  A face's side is the
    sign of its normal: tau^o does not depend on it, and the low face
    negates tau^e.

    The admissible family requires alpha in [0, 1]: the discrete energy
    bound needs tau^o negative semidefinite and x^T L (-tau^o)^T L x <=
    x^T L x, which for tau^o = -alpha L^{-1} is exactly alpha <= 1.  The
    spectral condition is re-verified on the assembled matrices.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(
            f"alpha = {alpha} is outside [0, 1]; the penalty family tau = -alpha L^(-1) "
            "violates the discrete stability condition x^T L (-tau)^T L x <= x^T L x for alpha > 1"
        )
    l_matrix = np.atleast_2d(np.asarray(l_matrix, dtype=float))
    a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
    tau_odd = -alpha * np.linalg.inv(l_matrix) if alpha != 0.0 else np.zeros_like(l_matrix)
    tau_odd = 0.5 * (tau_odd + tau_odd.T)
    # tied penalty (Ahat + tau^o L Ahat)^T in closed form: tau^o L = -alpha I
    tau_even = (1.0 - alpha) * a_hat.T
    # spectral re-check: eigenvalues of L^(1/2) (-tau)^T L^(1/2) must be <= 1
    w, v = np.linalg.eigh(l_matrix)
    sqrt_l = (v * np.sqrt(w)) @ v.T
    ev = np.linalg.eigvalsh(sqrt_l @ (-tau_odd.T) @ sqrt_l)
    if ev.size and (ev.max() > 1.0 + 1e-12 or ev.min() < -1e-12):
        raise NumericalError(
            f"assembled penalty violates the stability condition (spectrum [{ev.min():.3e}, {ev.max():.3e}])"
        )
    return tau_odd, tau_even


# ---------------------------------------------------------------------------
# tensor grids


PARITIES = ("o", "e")


def outer(vectors) -> np.ndarray:
    """Tensor product of 1-D arrays: axis j runs over ``vectors[j]``; the 0-d 1.0 for none."""
    return reduce(np.multiply.outer, vectors, np.ones(()))


@dataclass(frozen=True)
class TensorGrid:
    """Per-axis staggered grids with the 2^d parity-family bookkeeping.

    ``axes`` are the physical axis labels (subset of 1, 2, 3) in storage
    order; family keys are tuples over ``axes`` with 'o'/'e' entries.
    """

    axes: tuple[int, ...]
    grids: tuple[StaggeredGrid1d, ...]
    pairs: tuple[SbpPair, ...]

    @classmethod
    def build(cls, axes, grids) -> "TensorGrid":
        grids = tuple(grids)
        return cls(tuple(axes), grids, tuple(build_sbp_pair(g) for g in grids))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def families(self) -> list[tuple[str, ...]]:
        keys = [()]
        for _ in self.axes:
            keys = [k + (p,) for k in keys for p in PARITIES]
        return keys

    def complement(self, family: tuple[str, ...], d: int) -> tuple[str, ...]:
        """``family`` with the parity of storage axis ``d`` flipped: the grid its axis-d differences read."""
        return family[:d] + ("e" if family[d] == "o" else "o",) + family[d + 1:]

    def axis_nodes(self, d: int, parity: str) -> np.ndarray:
        g = self.grids[d]
        return g.x_odd if parity == "o" else g.x_even

    def family_nodes(self, family) -> tuple[np.ndarray, ...]:
        return tuple(self.axis_nodes(d, p) for d, p in enumerate(family))

    def family_shape(self, family) -> tuple[int, ...]:
        return tuple(n.size for n in self.family_nodes(family))

    def axis_weights(self, d: int, parity: str) -> np.ndarray:
        return self.pairs[d].p_odd if parity == "o" else self.pairs[d].p_even

    def weights(self, family) -> np.ndarray:
        """The family's SBP norm table: the outer product of its axis P entries, shaped like its grid."""
        return outer([self.axis_weights(d, p) for d, p in enumerate(family)])

    def boundary_weight(self, family, d: int) -> np.ndarray:
        """Transverse norm-weight table for a face with normal along axis ``d``.

        Outer product of the other axes' P entries, shaped like the family
        grid with axis ``d`` removed; scalar 1.0 in 1D.
        """
        return outer([self.axis_weights(j, family[j]) for j in range(self.ndim) if j != d])
