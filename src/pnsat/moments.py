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

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss

from .errors import ValidationError
from .sphharm import (
    FOUR_PI,
    _check_axis,
    _gauss_legendre,
    degrees_orders,
    eval_basis,
    parity_signs,
)

_AXES = (1, 2, 3)
_SQRT2 = np.sqrt(2.0)
LEGENDRE_NODES = 256  # Gauss-Legendre nodes of legendre_moments


@dataclass(frozen=True)
class MomentBasis:
    """The basis up to degree ``n_max`` as flat-ordered index arrays.

    ``degrees`` and ``orders`` hold l and k of each flat position
    (:func:`pnsat.sphharm.degrees_orders`); ``parity[axis - 1]`` holds its
    sign under reflection of that Cartesian axis, +1 even or -1 odd
    (:func:`pnsat.sphharm.parity_signs`), shape (3, dim).
    """

    n_max: int
    degrees: np.ndarray
    orders: np.ndarray
    parity: np.ndarray

    @classmethod
    def build(cls, n_max: int) -> "MomentBasis":
        l, k = degrees_orders(n_max)
        return cls(n_max, l, k, parity_signs(l, k))

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    @property
    def n_odd(self) -> int:
        return self.n_max * (self.n_max + 1) // 2

    @property
    def n_even(self) -> int:
        return (self.n_max + 1) * (self.n_max + 2) // 2

    def odd_positions(self, axis: int) -> np.ndarray:
        _check_axis(axis)
        return np.flatnonzero(self.parity[axis - 1] < 0)

    def even_positions(self, axis: int) -> np.ndarray:
        _check_axis(axis)
        return np.flatnonzero(self.parity[axis - 1] > 0)

    def permutation(self, axis: int) -> np.ndarray:
        """Odd-first permutation: flat position of the j-th reordered component."""
        return np.concatenate([self.odd_positions(axis), self.even_positions(axis)])


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

    def max_speed(self) -> float:
        """The one transport speed of every axis (max singular value of its Ahat): the largest root of P_{N+1}.

        A^(z) couples equal orders k only; its k = 0 block is the Legendre Jacobi matrix, whose eigenvalues
        are the roots of P_{N+1} and exceed those of every |k| > 0 block, and A^(x), A^(y) are rotations of A^(z).
        """
        return float(_gauss_legendre(self.basis.n_max + 1)[0].max())


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
    l, k = basis.degrees[: n * n], basis.orders[: n * n]  # every (l, k) with l < n_max
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
    l, signs = basis.degrees, basis.parity[axis - 1]
    coupled = (signs[:, None] != signs[None, :]) & (np.abs(l[:, None] - l[None, :]) == 1)
    rows = (l >= 1) & (l <= basis.n_max - 1)
    approx = y @ np.where(coupled, system.a_full[axis - 1], 0.0)[rows].T
    return float(np.abs(om_i[..., None] * y[..., rows] - approx).max(initial=0.0))


# ---------------------------------------------------------------------------
# scattering


@dataclass(frozen=True, eq=False)
class ScatteringSpectrum:
    """Legendre moments of the deflection kernel plus the total cross section.

    ``moments[l] = 2 pi * integral_{-1}^{1} sigma_s(c) P_l(c) dc`` in units of
    1/length; ``sigma_t`` in the same units.  Requires |sigma_l| <= sigma_0
    and sigma_0 <= sigma_t (up to roundoff) so relaxation never amplifies.
    ``g`` names the law the moments come from, which the Monte Carlo oracle
    samples: the Henyey-Greenstein anisotropy, 0.0 for an isotropic kernel
    (and for none), None for a table, sampled from :meth:`phase_density`.
    Two spectra are equal when ``sigma_t``, ``g`` and the moments are
    (``np.array_equal``); the hash agrees with that equality.
    """

    sigma_t: float
    moments: np.ndarray
    g: float | None = None

    def __post_init__(self):
        m = np.asarray(self.moments, dtype=float)
        object.__setattr__(self, "moments", m)
        if m.ndim != 1 or m.size == 0:
            raise ValidationError("scattering moments must be a non-empty 1-d sequence")
        over = np.flatnonzero(np.abs(m[1:]) > m[0] + 1e-12)
        if over.size:
            l = int(over[0]) + 1
            raise ValidationError(
                f"scattering moments must satisfy |sigma_l| <= sigma_0: sigma_{l} = {float(m[l])} "
                f"exceeds sigma_0 = {float(m[0])} in magnitude"
            )
        if m[0] > self.sigma_t + 1e-12:
            raise ValidationError(
                f"sigma_0 = {float(m[0])} exceeds sigma_t = {float(self.sigma_t)}; "
                "relaxation would be positive"
            )

    def __eq__(self, other):
        if not isinstance(other, ScatteringSpectrum):
            return NotImplemented
        return (self.sigma_t == other.sigma_t and self.g == other.g
                and np.array_equal(self.moments, other.moments))

    def __hash__(self):
        # float hashes agree with ==, so -0.0 and 0.0 moments hash alike
        return hash((self.sigma_t, self.g, tuple(self.moments.tolist())))

    @classmethod
    def none(cls, n_max: int = 0) -> "ScatteringSpectrum":
        return cls(0.0, np.zeros(n_max + 1), 0.0)

    @classmethod
    def isotropic(cls, sigma_s: float, n_max: int, sigma_t: float | None = None) -> "ScatteringSpectrum":
        m = np.zeros(n_max + 1)
        m[0] = sigma_s
        return cls(sigma_s if sigma_t is None else sigma_t, m, 0.0)

    @classmethod
    def henyey_greenstein(
        cls, sigma_s: float, g: float, n_max: int, sigma_t: float | None = None
    ) -> "ScatteringSpectrum":
        """HG kernel, Legendre moments sigma_s * g^l."""
        if not -1.0 < g < 1.0:
            raise ValidationError(f"HG anisotropy must lie in (-1, 1), got {g}")
        m = sigma_s * g ** np.arange(n_max + 1, dtype=float)
        return cls(sigma_s if sigma_t is None else sigma_t, m, float(g))

    def truncated(self, n_max: int) -> "ScatteringSpectrum":
        m = np.zeros(n_max + 1)
        upto = min(n_max + 1, self.moments.size)
        m[:upto] = self.moments[:upto]
        return ScatteringSpectrum(self.sigma_t, m, self.g)

    def phase_density(self, cos_theta: np.ndarray) -> np.ndarray:
        """sigma_s(c) reconstructed from the moments: sum (2l+1)/(4 pi) sigma_l P_l(c)."""
        coef = (2 * np.arange(self.moments.size) + 1) / FOUR_PI * self.moments
        return Legendre(coef)(np.asarray(cos_theta, dtype=float))


def legendre_moments(phase, n_max: int) -> np.ndarray:
    """2 pi * integral of phase(c) * P_l(c) over c in [-1, 1] for l = 0..n_max.

    Gauss-Legendre oracle used to turn a tabulated/callable kernel into a
    :class:`ScatteringSpectrum`; also handy as an independent check of the
    built-in spectra.
    """
    c, w = leggauss(LEGENDRE_NODES)
    vals = np.asarray(phase(c), dtype=float)
    out = np.empty(n_max + 1)
    for l in range(n_max + 1):
        p = Legendre.basis(l)(c)
        out[l] = 2.0 * np.pi * np.sum(w * vals * p)
    return out


def scattering_diagonal(spec: ScatteringSpectrum, basis: MomentBasis) -> np.ndarray:
    """Relaxation eigenvalues per flat component: sigma_l - sigma_t, clamped at 0 (roundoff never amplifies)."""
    spec = spec.truncated(basis.n_max)
    return np.minimum(spec.moments[basis.degrees] - spec.sigma_t, 0.0)


# ---------------------------------------------------------------------------
# moment-table files


def load_moment_table(path) -> ScatteringSpectrum:
    """Read a plain-text table: header ``sigma_t <value>``, then ``l sigma_l`` lines; ``#`` starts a comment.

    A line that is not a key (``sigma_t`` or an integer degree) and one
    finite number, or that repeats a key, is a ValidationError naming
    ``path:line``.
    """
    entries: dict = {}
    with open(path) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                key, value = line.split()
                key, value = (key if key == "sigma_t" else int(key)), float(value)
                if not math.isfinite(value):
                    raise ValueError
            except ValueError:
                raise ValidationError(
                    f"{path}:{n}: expected 'sigma_t <value>' or 'l sigma_l' with an integer l and a finite value, "
                    f"got {line!r}"
                ) from None
            if key in entries:
                raise ValidationError(f"{path}:{n}: repeated {'header' if key == 'sigma_t' else 'degree'} {line!r}")
            entries[key] = value
    sigma_t = entries.pop("sigma_t", None)
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
