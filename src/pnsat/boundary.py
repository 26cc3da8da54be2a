"""Marshak and Onsager boundary matrices, boundary sources, eigenstructure.

For a face with outward normal n = +/- e_i the half-moment (Marshak)
condition on the axis-odd test space reads  u^o = Mtilde u^e + g  with

    Mtilde = 2 < Y^o, (Y^e)^T >_{n+},      g = 2 < psi_in, Y^o >_{n-}.

Dropping the highest-degree tail of the degree recursion replaces Mtilde
by  M = sign * L Ahat  where

    L = 2 * integral_{omega_i > 0} (1/omega_i) Y^o (Y^o)^T domega

is symmetric positive definite (identical on both faces of an axis) and
sign is +1 on the high face, -1 on the low face.  M differs from Mtilde
only in columns of even components with degree n_max, and the resulting
condition determines exactly the incoming characteristic waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .moments import MomentBasis, PnSystem
from .sphharm import build_quadrature, eval_basis

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Face:
    """Axis-aligned boundary face; outward normal is -e_axis (low) or +e_axis (high)."""

    axis: int
    side: str

    def __post_init__(self):
        if self.axis not in (1, 2, 3):
            raise ValidationError(f"face axis must be 1, 2 or 3, got {self.axis}")
        if self.side not in ("low", "high"):
            raise ValidationError(f"face side must be 'low' or 'high', got {self.side!r}")

    @property
    def sign(self) -> int:
        """+1 on the high face, -1 on the low face (sign of the outward normal)."""
        return 1 if self.side == "high" else -1


def _rows_cols(basis: MomentBasis, face: Face, rows, cols):
    if rows is None:
        rows = basis.odd_positions(face.axis)
    if cols is None:
        cols = basis.even_positions(face.axis)
    return np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)


def symmetry_key(basis: MomentBasis, axis: int) -> np.ndarray:
    """Per flat position, a code of its class under the symmetries of the half-sphere omega_axis > 0.

    Reflecting either other axis maps the half-sphere onto itself, so the key
    is one code per parity class on those axes; about the polar axis 3 so does
    every rotation, so there it is the order k.  Face integrals vanish between
    classes, and a function of omega_axis alone lies in the class of u00.
    """
    if axis == 3:
        return basis.orders
    p, q = (basis.parity[ax - 1] for ax in (1, 2, 3) if ax != axis)
    return p + 3 * q


def _coupled(basis: MomentBasis, face: Face, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where a face matrix over (rows, cols) can be non-zero: the same :func:`symmetry_key`."""
    key = symmetry_key(basis, face.axis)
    return key[rows, None] == key[None, cols]


def marshak_matrix(basis: MomentBasis, face: Face, rows=None, cols=None) -> np.ndarray:
    """Half-moment matrix Mtilde of the face; rows odd, cols even components.

    Computed on the outgoing hemisphere omega . n > 0.  By reflection
    antisymmetry of the integrand, Mtilde(low) = -Mtilde(high), which is
    realized here by evaluating on omega_axis > 0 and applying the face sign.
    Only the basis functions of ``rows`` and ``cols`` are evaluated
    (default: every odd and every even component of the face axis).
    Entries that vanish by symmetry (:func:`_coupled`) are exact zeros.
    """
    rows, cols = _rows_cols(basis, face, rows, cols)
    q = build_quadrature(basis.n_max, restriction=(face.axis, +1))
    y_odd, y_even = eval_basis(basis.n_max, q.nodes, rows), eval_basis(basis.n_max, q.nodes, cols)
    mt = face.sign * 2.0 * (y_odd.T @ (q.weights[:, None] * y_even))
    mt[~_coupled(basis, face, rows, cols)] = 0.0
    return mt


def onsager_L(basis: MomentBasis, face: Face, rows=None) -> np.ndarray:
    """SPD matrix L = 2 * int_{omega_i > 0} (1/omega_i) Y^o (Y^o)^T; side-independent.

    The integrand is finite as omega_i -> 0 (odd functions carry at least
    one factor omega_i) but must not be sampled on the equator; the
    half-sphere rule guarantees that.  Only the basis functions of ``rows``
    are evaluated (default: every odd component of the face axis).  Entries
    that vanish by symmetry (:func:`_coupled`) are exact zeros, so
    M = sign * L Ahat has them too.  Raises if an eigenvalue falls below
    1e-10, which would signal a quadrature breakdown.
    """
    rows, _ = _rows_cols(basis, face, rows, None)
    q = build_quadrature(basis.n_max, restriction=(face.axis, +1))
    y = eval_basis(basis.n_max, q.nodes, rows)
    w = q.weights / q.nodes[:, face.axis - 1]
    lmat = 2.0 * (y.T @ (w[:, None] * y))
    lmat = 0.5 * (lmat + lmat.T)
    lmat[~_coupled(basis, face, rows, rows)] = 0.0
    if rows.size and float(np.linalg.eigvalsh(lmat)[0]) < 1e-10:
        raise NumericalError(
            f"computed L for axis {face.axis} has an eigenvalue below 1e-10; "
            "half-sphere quadrature breakdown"
        )
    return lmat


@dataclass(frozen=True)
class OnsagerBoundary:
    """Per-face Onsager data: u^o = m_matrix u^e + g with m_matrix = sign * L Ahat."""

    face: Face
    l_matrix: np.ndarray
    a_hat: np.ndarray
    m_matrix: np.ndarray


def onsager_bc(basis: MomentBasis, face: Face, system: PnSystem, rows=None, cols=None) -> OnsagerBoundary:
    """Assemble the stabilized boundary condition for one face."""
    rows, cols = _rows_cols(basis, face, rows, cols)
    lmat = onsager_L(basis, face, rows=rows)
    a_hat = system.a_hat_block(face.axis, rows, cols)
    return OnsagerBoundary(face, lmat, a_hat, face.sign * (lmat @ a_hat))


def boundary_source(face: Face, psi_in, basis: MomentBasis, rows=None) -> np.ndarray:
    """g = 2 < psi_in, Y^o >_{n-}: incoming-hemisphere moments of the inflow.

    ``psi_in`` is a callable taking direction arrays of shape (n, 3).  The
    rule is the face's incoming half-sphere with at least 48 Gauss nodes in
    the polar cosine, because inflow profiles are generally not polynomial.
    Only the basis functions of ``rows`` are evaluated (default: every odd
    component of the face axis).  Since L is invertible, g automatically
    satisfies the admissibility requirement g in Im(L).
    """
    rows, _ = _rows_cols(basis, face, rows, None)
    quad = build_quadrature(
        basis.n_max, restriction=(face.axis, -face.sign), polar_nodes=max(basis.n_max + 2, 48)
    )
    y = eval_basis(basis.n_max, quad.nodes, rows)
    vals = np.asarray(psi_in(quad.nodes), dtype=float)
    return 2.0 * (y.T @ (quad.weights * vals))


# ---------------------------------------------------------------------------
# eigenstructure and characteristic variables


@dataclass(frozen=True)
class Eigenstructure:
    """SVD-based eigendecomposition of the off-diagonal block matrix.

    With Ahat = x_hat diag(lambda_p) x_tilde^T, the symmetric matrix
    [[0, Ahat], [Ahat^T, 0]] equals X Lambda X^T where Lambda carries
    +lambda_p, zeros, -lambda_p and X is orthogonal; x_kernel spans
    ker(Ahat).
    """

    lambda_p: np.ndarray
    x_hat: np.ndarray
    x_tilde: np.ndarray
    x_kernel: np.ndarray

    @property
    def n_odd(self) -> int:
        return self.lambda_p.size

    def assemble_x(self) -> np.ndarray:
        r = self.n_odd
        s = self.x_tilde.shape[0]
        x = np.zeros((r + s, r + s))
        inv = 1.0 / SQRT2
        x[:r, :r] = inv * self.x_hat
        x[r:, :r] = inv * self.x_tilde
        x[r:, r : s] = self.x_kernel
        x[:r, s:] = inv * self.x_hat
        x[r:, s:] = -inv * self.x_tilde
        return x

    def assemble_lambda(self) -> np.ndarray:
        r = self.n_odd
        s = self.x_tilde.shape[0]
        lam = np.zeros(r + s)
        lam[:r] = self.lambda_p
        lam[s:] = -self.lambda_p
        return np.diag(lam)


def eigenstructure(a_hat: np.ndarray, rank_tol: float = 1e-10) -> Eigenstructure:
    """Decompose a coupling block; raises on row-rank deficiency."""
    a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
    r, s = a_hat.shape
    if r > s:
        raise ValidationError(f"coupling block must be wide (r <= s), got {a_hat.shape}")
    u, sv, vh = np.linalg.svd(a_hat)
    if r and sv[-1] <= rank_tol:
        raise NumericalError(
            f"coupling block is row-rank deficient (smallest singular value {sv[-1]:.3e})"
        )
    return Eigenstructure(sv, u, vh[:r].T, vh[r:].T)


@dataclass(frozen=True)
class CharacteristicForm:
    """Characteristic restatement of the boundary condition.

    coef_in @ w_in = coef_out @ w_out + sqrt(2) * g, where the incoming /
    outgoing characteristic variables at the face are

        w_in  = (x_hat^T u^o - sign * x_tilde^T u^e) / sqrt(2)
        w_out = (x_hat^T u^o + sign * x_tilde^T u^e) / sqrt(2)

    (sign = face.sign).  coef_in is provably invertible for SPD L.
    """

    face: Face
    eig: Eigenstructure
    coef_in: np.ndarray
    coef_out: np.ndarray
    src_scale: float = SQRT2

    def waves(self, u_odd: np.ndarray, u_even: np.ndarray):
        a = self.eig.x_hat.T @ u_odd
        b = self.face.sign * (self.eig.x_tilde.T @ u_even)
        return (a - b) / SQRT2, (a + b) / SQRT2

    def residual(self, u_odd: np.ndarray, u_even: np.ndarray, g=None) -> float:
        w_in, w_out = self.waves(u_odd, u_even)
        rhs = self.coef_out @ w_out
        if g is not None:
            rhs = rhs + self.src_scale * np.asarray(g)
        return float(np.abs(self.coef_in @ w_in - rhs).max())


def characteristic_form(bc: OnsagerBoundary, eig: Eigenstructure | None = None) -> CharacteristicForm:
    """Characteristic form of an Onsager condition; validates invertibility.

    The incoming-wave coefficient factors as x_hat (x_hat^T L x_hat +
    lambda_p^{-1}) lambda_p, a product of invertible matrices; its condition
    number is checked as a guard (failure should be impossible for SPD L).
    """
    if eig is None:
        eig = eigenstructure(bc.a_hat)
    lx = bc.l_matrix @ eig.x_hat * eig.lambda_p[None, :]
    coef_in = lx + eig.x_hat
    coef_out = lx - eig.x_hat
    if coef_in.size and np.linalg.cond(coef_in) > 1e12:
        raise NumericalError("incoming-wave coefficient matrix is numerically singular")
    return CharacteristicForm(bc.face, eig, coef_in, coef_out)
