"""Assembly of the P_N moment system.

Testing the transport equation with the basis and integrating over the
sphere yields, per spatial axis i, the symmetric transport matrix

    A^(i) = < omega_i Y, Y^T >.

The three-term recursions of the spherical harmonics give every entry in
closed form, so :func:`assemble_transport` fills A^(i) without quadrature
and every other entry is exactly zero.  Multiplying by omega_i changes the
degree by one, so A^(i) couples only degrees l and l +- 1.  omega_z keeps
the order k.  omega_x and omega_y move the azimuthal order m = |k| by one
and keep (x) or swap (y) the cos/sin kind.  The product omega_i * Y flips
the axis-i parity and nothing else, so A^(i) couples only basis functions
of opposite axis-i parity.  Sorting odd components first puts A^(i) in the
off-diagonal block form with coupling block Ahat^(i) of shape r x s,
r = N(N+1)/2, s = (N+1)(N+2)/2.

Scattering kernels that depend only on the deflection cosine act
diagonally on the basis: the entry for degree l is sigma_l - sigma_t with
sigma_l = 2 pi * integral of sigma_s(c) P_l(c) dc, independent of the order k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss

from .errors import ValidationError
from .sphharm import ParityTable, ShIndex, basis_indices, eval_basis

_AXES = (1, 2, 3)
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MomentBasis:
    """Ordering and parity bookkeeping for the basis up to degree ``n_max``."""

    n_max: int
    indices: tuple[ShIndex, ...]
    parity: ParityTable

    @classmethod
    def build(cls, n_max: int) -> "MomentBasis":
        return cls(n_max, tuple(basis_indices(n_max)), ParityTable.build(n_max))

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    @functools.cached_property
    def orders(self) -> np.ndarray:
        """The order k of each flat position."""
        return np.array([i.k for i in self.indices])

    @property
    def n_odd(self) -> int:
        return self.n_max * (self.n_max + 1) // 2

    @property
    def n_even(self) -> int:
        return (self.n_max + 1) * (self.n_max + 2) // 2

    def pos(self, l: int, k: int) -> int:
        return ShIndex(l, k).flat

    def odd_positions(self, axis: int) -> np.ndarray:
        return self.parity.odd_positions(axis)

    def even_positions(self, axis: int) -> np.ndarray:
        return self.parity.even_positions(axis)

    def permutation(self, axis: int) -> np.ndarray:
        """Odd-first permutation: flat position of the j-th reordered component."""
        return np.concatenate([self.odd_positions(axis), self.even_positions(axis)])

    def family_indices(self, axes: tuple[int, ...]) -> dict[tuple[str, ...], np.ndarray]:
        """Partition the basis by parity over the given active axes.

        Keys are tuples over ``axes`` with entries 'o'/'e'; values are the
        sorted flat positions belonging to that family.  Inactive axes are
        not distinguished, so in 1D there are two families, in 2D four.
        """
        keys = [()]
        for _ in axes:
            keys = [k + (p,) for k in keys for p in ("o", "e")]
        out = {}
        for key in keys:
            mask = np.ones(self.dim, dtype=bool)
            for ax, p in zip(axes, key):
                sign = self.parity.signs[ax - 1]
                mask &= (sign < 0) if p == "o" else (sign > 0)
            out[key] = np.nonzero(mask)[0]
        return out


@dataclass(frozen=True)
class PnSystem:
    """Assembled transport matrices for one basis.

    ``a_full[i-1]`` is the dense symmetric m x m matrix for axis i;
    ``a_hat[i-1]`` its odd x even coupling block in the flat sub-orderings
    given by ``basis.odd_positions(i)`` / ``even_positions(i)``.
    """

    basis: MomentBasis
    a_full: tuple[np.ndarray, np.ndarray, np.ndarray]
    a_hat: tuple[np.ndarray, np.ndarray, np.ndarray]

    def a_hat_block(self, axis: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sub-block of A^(axis) for explicit flat index sets (rows odd, cols even)."""
        return self.a_full[axis - 1][np.ix_(rows, cols)]

    def max_speed(self, axis: int | None = None) -> float:
        """Largest transport eigenvalue magnitude (max singular value of Ahat)."""
        axes = _AXES if axis is None else (axis,)
        return max(float(np.linalg.svd(self.a_hat[a - 1], compute_uv=False)[0]) for a in axes)


def assemble_transport(basis: MomentBasis) -> PnSystem:
    """Build A^(i) for all three axes from the closed-form recursion coefficients.

    Each degree l < n_max couples upward to l + 1; symmetry gives the rest.
    With m = |k| and den = (2l+1)(2l+3):

    * z: (l, k) to (l+1, k) with sqrt(((l+1)^2 - m^2) / den);
    * x: (l, +-m) to (l+1, +-(m+1)) with up = sqrt((l+m+1)(l+m+2) / den) / 2,
      and to (l+1, +-(m-1)) with -down, down = sqrt((l-m+1)(l-m+2) / den) / 2;
    * y: the same moves with the cos/sin kind swapped; cos to sin takes
      +up and +down, sin to cos -up and -down.

    up carries a factor sqrt(2) where an m = 0 function enters (m = 0),
    down where it leaves toward one (m = 1).  The sine of order 0 does not
    exist, so x drops sin 1 -> sin 0 and y drops cos 1 -> sin 0.
    """
    n = basis.n_max
    l = np.repeat(np.arange(n), 2 * np.arange(n) + 1)  # every (l, k) with l < n_max, flat order
    k = np.arange(l.size) - l * l - l
    m = np.abs(k)
    trig = np.where(k < 0, -1, 1)  # -1 for sin, +1 for cos: k = trig * m
    src = np.arange(l.size)
    up_zero = (l + 1) * (l + 2)  # flat position of (l+1, 0)
    den = (2 * l + 1.0) * (2 * l + 3.0)
    up = 0.5 * np.sqrt((l + m + 1.0) * (l + m + 2.0) / den) * np.where(m == 0, _SQRT2, 1.0)
    down = 0.5 * np.sqrt((l - m + 1.0) * (l - m + 2.0) / den) * np.where(m == 1, _SQRT2, 1.0)
    a = np.zeros((3, basis.dim, basis.dim))
    a[2, src, up_zero + k] = np.sqrt(((l + 1.0) ** 2 - m * m) / den)
    a[0, src, up_zero + trig * (m + 1)] = up
    a[1, src, up_zero - trig * (m + 1)] = trig * up
    x_down = (m > 0) & (k != -1)
    a[0, src[x_down], (up_zero + trig * (m - 1))[x_down]] = -down[x_down]
    y_down = (m > 0) & (k != 1)
    a[1, src[y_down], (up_zero - trig * (m - 1))[y_down]] = (trig * down)[y_down]
    a = a + a.transpose(0, 2, 1)
    a_hat = [a[axis - 1][np.ix_(basis.odd_positions(axis), basis.even_positions(axis))] for axis in _AXES]
    return PnSystem(basis, tuple(a), tuple(a_hat))


def recursion_check(system: PnSystem, axis: int, omega) -> float:
    """Pointwise residual of the degree-coupling recursion at one direction.

    Checks, for every degree l whose neighbours l-1 and l+1 still lie in
    the basis, that omega_i * Y_l^{o,i} equals the assembled-coefficient
    combination of Y_{l-1}^{e,i} and Y_{l+1}^{e,i}, and the analogous
    even-side identity.  Returns the max absolute residual (exact up to
    roundoff for l < n_max; vacuously 0 when no degree qualifies).
    """
    basis = system.basis
    y = eval_basis(basis.n_max, omega)
    om_i = np.asarray(omega, dtype=float)[..., axis - 1]
    a = system.a_full[axis - 1]
    signs = basis.parity.signs[axis - 1]
    res = 0.0
    for parity in (-1, 1):
        rows = [i for i in basis.indices if signs[i.flat] == parity and 1 <= i.l <= basis.n_max - 1]
        for i in rows:
            cols = [
                j.flat
                for j in basis.indices
                if signs[j.flat] == -parity and abs(j.l - i.l) == 1
            ]
            approx = sum(a[i.flat, c] * y[..., c] for c in cols)
            res = max(res, float(np.abs(om_i * y[..., i.flat] - approx).max()))
    return res


# ---------------------------------------------------------------------------
# scattering


@dataclass(frozen=True)
class ScatteringSpectrum:
    """Legendre moments of the deflection kernel plus the total cross section.

    ``moments[l] = 2 pi * integral_{-1}^{1} sigma_s(c) P_l(c) dc`` in units of
    1/length; ``sigma_t`` in the same units.  Requires |sigma_l| <= sigma_0
    and sigma_0 <= sigma_t (up to roundoff) so relaxation never amplifies.
    """

    sigma_t: float
    moments: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.moments, dtype=float)
        object.__setattr__(self, "moments", m)
        if m.ndim != 1 or m.size == 0:
            raise ValidationError("scattering moments must be a non-empty 1-d sequence")
        if np.abs(m[1:]).size and np.abs(m[1:]).max() > m[0] + 1e-12:
            raise ValidationError("scattering moments must satisfy |sigma_l| <= sigma_0")
        if m[0] > self.sigma_t + 1e-12:
            raise ValidationError(
                f"sigma_0 = {m[0]!r} exceeds sigma_t = {self.sigma_t!r}; "
                "relaxation would be positive"
            )

    @classmethod
    def none(cls, n_max: int = 0) -> "ScatteringSpectrum":
        return cls(0.0, np.zeros(n_max + 1))

    @classmethod
    def isotropic(cls, sigma_s: float, n_max: int, sigma_t: float | None = None) -> "ScatteringSpectrum":
        m = np.zeros(n_max + 1)
        m[0] = sigma_s
        return cls(sigma_s if sigma_t is None else sigma_t, m)

    @classmethod
    def henyey_greenstein(
        cls, sigma_s: float, g: float, n_max: int, sigma_t: float | None = None
    ) -> "ScatteringSpectrum":
        """HG kernel, Legendre moments sigma_s * g^l."""
        if not -1.0 < g < 1.0:
            raise ValidationError(f"HG anisotropy must lie in (-1, 1), got {g}")
        m = sigma_s * g ** np.arange(n_max + 1, dtype=float)
        return cls(sigma_s if sigma_t is None else sigma_t, m)

    def truncated(self, n_max: int) -> "ScatteringSpectrum":
        m = np.zeros(n_max + 1)
        upto = min(n_max + 1, self.moments.size)
        m[:upto] = self.moments[:upto]
        return ScatteringSpectrum(self.sigma_t, m)

    def phase_density(self, cos_theta: np.ndarray) -> np.ndarray:
        """sigma_s(c) reconstructed from the moments: sum (2l+1)/(4 pi) sigma_l P_l(c)."""
        coef = (2 * np.arange(self.moments.size) + 1) / FOUR_PI_ * self.moments
        return Legendre(coef)(np.asarray(cos_theta, dtype=float))


FOUR_PI_ = 4.0 * np.pi


def legendre_moments(phase, n_max: int, n_quad: int = 256) -> np.ndarray:
    """2 pi * integral of phase(c) * P_l(c) over c in [-1, 1] for l = 0..n_max.

    Gauss-Legendre oracle used to turn a tabulated/callable kernel into a
    :class:`ScatteringSpectrum`; also handy as an independent check of the
    built-in spectra.
    """
    c, w = leggauss(n_quad)
    vals = np.asarray(phase(c), dtype=float)
    out = np.empty(n_max + 1)
    for l in range(n_max + 1):
        p = Legendre.basis(l)(c)
        out[l] = 2.0 * np.pi * np.sum(w * vals * p)
    return out


def scattering_diagonal(spec: ScatteringSpectrum, basis: MomentBasis) -> np.ndarray:
    """Relaxation eigenvalues per flat component: sigma_l - sigma_t (all <= 0)."""
    spec = spec.truncated(basis.n_max)
    q = np.empty(basis.dim)
    for i in basis.indices:
        q[i.flat] = spec.moments[i.l] - spec.sigma_t
    return q


# ---------------------------------------------------------------------------
# moment-table files


def load_moment_table(path) -> ScatteringSpectrum:
    """Read a plain-text table: header ``sigma_t <value>``, then ``l sigma_l`` lines."""
    sigma_t = None
    entries: dict[int, float] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "sigma_t":
                sigma_t = float(parts[1])
            else:
                if len(parts) != 2:
                    raise ValidationError(f"malformed moment-table line: {raw!r}")
                entries[int(parts[0])] = float(parts[1])
    if sigma_t is None:
        raise ValidationError(f"moment table {path} is missing the 'sigma_t <value>' header")
    if not entries:
        raise ValidationError(f"moment table {path} contains no 'l sigma_l' lines")
    n_max = max(entries)
    if sorted(entries) != list(range(n_max + 1)):
        raise ValidationError("moment table must list every degree 0..n_max exactly once")
    return ScatteringSpectrum(sigma_t, np.array([entries[l] for l in range(n_max + 1)]))


def dump_moment_table(spec: ScatteringSpectrum, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"sigma_t {float(spec.sigma_t)!r}\n")
        for l, s in enumerate(spec.moments):
            fh.write(f"{l} {float(s)!r}\n")
