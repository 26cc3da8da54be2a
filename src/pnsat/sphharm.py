"""Real spherical harmonics, per-axis parity, and sphere quadrature.

Conventions
-----------
A basis function of degree ``l`` and order ``k`` (``|k| <= l``) is

    Y_l^k(mu, phi) = C_{l,|k|} P_l^{|k|}(mu) * {cos(|k| phi), 1/sqrt(2), sin(|k| phi)}

for ``k > 0``, ``k = 0``, ``k < 0`` respectively, where ``P_l^m`` is the
associated Legendre function (Condon-Shortley phase included) and

    C_{l,m} = (-1)^m sqrt((2l+1)/(2 pi) * (l-m)!/(l+m)!).

The set is orthonormal with respect to the unweighted measure on the unit
sphere.  Directions are unit 3-vectors with polar cosine ``mu = omega[2]``
and azimuth ``phi = atan2(omega[1], omega[0])``.

Each basis function is either even or odd under the reflection of a single
Cartesian component; see :func:`parity_signs` for the closed-form rules.
The same harmonics taken about the x or y axis instead of z
(:func:`eval_axis_modes`, parities by :func:`axis_mode_signs`) span each
degree too; a 1-D run uses those about its axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ShIndex:
    """Degree/order pair identifying one real spherical harmonic."""

    l: int
    k: int

    def __post_init__(self):
        if self.l < 0 or abs(self.k) > self.l:
            raise ValidationError(f"invalid spherical-harmonic index (l={self.l}, k={self.k})")

    @property
    def flat(self) -> int:
        """Position in the (l, k)-lexicographic ordering: l^2 + k + l."""
        return self.l * self.l + self.k + self.l


def basis_indices(n_max: int) -> list[ShIndex]:
    """All indices with ``l <= n_max`` in flat order; length ``(n_max+1)^2``."""
    if n_max < 0:
        raise ValidationError(f"basis degree must be >= 0, got {n_max}")
    return [ShIndex(l, k) for l in range(n_max + 1) for k in range(-l, l + 1)]


@dataclass(frozen=True)
class Direction:
    """Unit direction on the sphere; validates the norm on construction."""

    omega: tuple[float, float, float]

    def __post_init__(self):
        nrm = math.sqrt(sum(c * c for c in self.omega))
        if abs(nrm - 1.0) > 1e-14:
            raise ValidationError(f"direction must be unit norm, |omega| = {nrm!r}")

    @classmethod
    def from_mu_phi(cls, mu: float, phi: float) -> "Direction":
        s = math.sqrt(max(0.0, 1.0 - mu * mu))
        return cls((s * math.cos(phi), s * math.sin(phi), mu))

    @property
    def mu(self) -> float:
        return self.omega[2]

    @property
    def phi(self) -> float:
        return math.atan2(self.omega[1], self.omega[0])


def _as_omega(omega) -> np.ndarray:
    if isinstance(omega, Direction):
        return np.asarray(omega.omega, dtype=float)
    arr = np.asarray(omega, dtype=float)
    if arr.shape[-1] != 3:
        raise ValidationError("direction arrays must have trailing dimension 3")
    return arr


def reflect(omega, axis: int):
    """Mirror a direction across the plane normal to a Cartesian axis (1, 2 or 3)."""
    _check_axis(axis)
    if isinstance(omega, Direction):
        c = list(omega.omega)
        c[axis - 1] = -c[axis - 1]
        return Direction(tuple(c))
    arr = np.array(_as_omega(omega))
    arr[..., axis - 1] = -arr[..., axis - 1]
    return arr


def _check_axis(axis: int) -> None:
    if axis not in (1, 2, 3):
        raise ValidationError(f"axis must be 1, 2 or 3, got {axis}")


def parity_signs(l, k) -> np.ndarray:
    """Parity signs (+1 even, -1 odd) of Y_l^k under reflection of each Cartesian axis.

    Closed forms over arrays of degrees and orders, shape (3,) + broadcast
    shape: axis 3 is even iff (l+k) is even; axis 2 is even iff k >= 0;
    axis 1 is even iff (k < 0 and k odd) or (k >= 0 and k even).
    """
    l, k = np.broadcast_arrays(l, k)
    y = np.where(k >= 0, 1, -1)  # the sine harmonics (k < 0) are the y-odd ones
    alt = 1 - 2 * (np.abs(k) % 2)  # (-1)^k
    return np.stack([y * alt, y, alt * (1 - 2 * (l % 2))])


def parity_sign(axis: int, idx: ShIndex) -> int:
    """+1 for even, -1 for odd."""
    _check_axis(axis)
    return int(parity_signs(idx.l, idx.k)[axis - 1])


def classify_parity(axis: int, idx: ShIndex) -> str:
    """Parity ('even' or 'odd') of Y_l^k under reflection of one Cartesian axis (:func:`parity_signs`)."""
    return "even" if parity_sign(axis, idx) > 0 else "odd"


@dataclass(frozen=True)
class ParityTable:
    """Per-axis parity flags for a full basis up to degree ``n_max``.

    ``signs[axis-1]`` is an int array over the flat ordering with +1 (even)
    or -1 (odd) entries.
    """

    n_max: int
    signs: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(cls, n_max: int) -> "ParityTable":
        l = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
        k = np.arange(l.size) - l * l - l
        return cls(n_max, tuple(parity_signs(l, k)))

    def odd_positions(self, axis: int) -> np.ndarray:
        _check_axis(axis)
        return np.nonzero(self.signs[axis - 1] < 0)[0]

    def even_positions(self, axis: int) -> np.ndarray:
        _check_axis(axis)
        return np.nonzero(self.signs[axis - 1] > 0)[0]


# ---------------------------------------------------------------------------
# evaluation


def _normalized_assoc_legendre(l_max: int, m: int, mu: np.ndarray) -> np.ndarray:
    """N_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) * (-1)^m P_l^m(mu) for l = 0..l_max.

    Upward recurrence in l at fixed m, seeded by the closed-form diagonal
    term; stable far beyond the degrees used here.  Rows l < m are zero.
    """
    mu = np.asarray(mu, dtype=float)
    out = np.zeros((l_max + 1,) + mu.shape)
    if m > l_max:
        return out
    amm = 1.0
    for j in range(1, m + 1):
        amm *= (2 * j + 1) / (2 * j)
    seed = math.sqrt(amm / FOUR_PI) * (1.0 - mu * mu) ** (m / 2.0)
    out[m] = seed
    if m + 1 <= l_max:
        out[m + 1] = math.sqrt(2 * m + 3.0) * mu * seed
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m) / ((2.0 * l - 3.0) * (l * l - m * m)))
        out[l] = a * mu * out[l - 1] - b * out[l - 2]
    return out


def eval_basis(n_max: int, omega) -> np.ndarray:
    """Evaluate all Y_l^k with l <= n_max at one or many directions.

    Parameters
    ----------
    n_max : int
        Maximum degree.
    omega : array_like
        Direction(s); shape (..., 3).

    Returns
    -------
    np.ndarray
        Values with shape (..., (n_max+1)^2), flat (l, k) ordering.
    """
    arr = _as_omega(omega)
    mu = arr[..., 2]
    phi = np.arctan2(arr[..., 1], arr[..., 0])
    m_dim = (n_max + 1) ** 2
    out = np.zeros(mu.shape + (m_dim,))
    sqrt2 = math.sqrt(2.0)
    for m in range(n_max + 1):
        nlm = _normalized_assoc_legendre(n_max, m, mu)
        if m == 0:
            for l in range(n_max + 1):
                out[..., l * l + l] = nlm[l]
        else:
            cos_m = np.cos(m * phi)
            sin_m = np.sin(m * phi)
            for l in range(m, n_max + 1):
                out[..., l * l + l + m] = sqrt2 * nlm[l] * cos_m
                out[..., l * l + l - m] = sqrt2 * nlm[l] * sin_m
    return out


def _azimuth_axes(axis: int) -> tuple[int, int]:
    """The axes (p, q) after ``axis`` in cyclic order: the azimuth about ``axis`` runs from p toward q."""
    return axis % 3 + 1, (axis + 1) % 3 + 1


def axis_mode_signs(axis: int, l: int, m: int, trig: str) -> tuple[int, int, int]:
    """Parity signs, per Cartesian axis 1..3, of the degree-l harmonic of mode (m, trig) about ``axis``.

    The polar factor gives (-1)^(l+m) along ``axis``.  Reflecting p maps
    phi to pi - phi, so cos(m phi) picks up (-1)^m and sin(m phi) -(-1)^m;
    reflecting q maps phi to -phi, so cos is even and sin odd.  About axis
    3 these are the signs of :func:`classify_parity` for Y_l^{+-m}.
    """
    _check_axis(axis)
    p, q = _azimuth_axes(axis)
    signs = [0, 0, 0]
    signs[axis - 1] = (-1) ** (l + m)
    signs[p - 1] = (-1) ** m if trig == "cos" else -((-1) ** m)
    signs[q - 1] = 1 if trig == "cos" else -1
    return tuple(signs)


def eval_axis_modes(n_max: int, axis: int, columns, omega) -> np.ndarray:
    """Real harmonics about a Cartesian axis, one per column (l, m, trig), at one or many directions.

    The column (l, m, trig) is C_{l,m} P_l^m(omega_axis) times cos(m phi)
    or sin(m phi) (m = 0: cos only), with the normalization of
    :func:`eval_basis` and the azimuth phi measured from axis p toward
    axis q (:func:`axis_mode_signs`).  About axis 3 the column (l, m, cos)
    is Y_l^m and (l, m, sin) is Y_l^-m.  Returns shape (..., len(columns)).
    """
    arr = _as_omega(omega)
    _check_axis(axis)
    p, q = _azimuth_axes(axis)
    mu = arr[..., axis - 1]
    phi = np.arctan2(arr[..., q - 1], arr[..., p - 1])
    legendre, waves = {}, {}
    out = np.empty(mu.shape + (len(columns),))
    for j, (l, m, trig) in enumerate(columns):
        if m not in legendre:
            legendre[m] = _normalized_assoc_legendre(n_max, m, mu)
        if m == 0:
            out[..., j] = legendre[m][l]
            continue
        if (m, trig) not in waves:
            waves[(m, trig)] = math.sqrt(2.0) * (np.cos(m * phi) if trig == "cos" else np.sin(m * phi))
        out[..., j] = legendre[m][l] * waves[(m, trig)]
    return out


def eval_sh(idx: ShIndex, omega) -> float:
    """Single basis function at a single direction."""
    vals = eval_basis(idx.l, omega)
    return float(vals[..., idx.flat])


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the full sphere or on an axis half-sphere.

    ``nodes`` has shape (n, 3); ``weights`` are positive and sum to 4*pi
    (full) or 2*pi (half).  ``restriction`` is ``None`` for the full sphere
    or ``(axis, sign)`` for the half-sphere ``sign * omega_axis > 0``.  Half
    rules never place a node on the equator ``omega_axis = 0``, so
    integrands with a removable ``1/omega_axis`` singularity are safe.
    """

    nodes: np.ndarray
    weights: np.ndarray
    restriction: tuple[int, int] | None = None

    @property
    def axis(self) -> int:
        return 3 if self.restriction is None else self.restriction[0]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum over nodes; ``values`` shape (..., n_nodes)."""
        return np.asarray(values) @ self.weights


def build_quadrature(n_max: int, restriction=None, polar_nodes: int | None = None) -> SphereQuadrature:
    """Quadrature exact for products of basis functions up to degree ``n_max``.

    Gauss-Legendre in the cosine relative to the rule's polar axis crossed
    with a uniform (trapezoid) azimuth grid of ``2*n_max + 3`` points; exact
    for all integrands arising from products Y*Y and (1/omega_i)*Y^o*Y^o of
    degree <= 2*n_max + 2 on its domain.

    Parameters
    ----------
    n_max : int
        Basis degree the rule must handle exactly.
    restriction : None or (axis, sign)
        Full sphere, or the half-sphere ``sign * omega_axis > 0``.
    polar_nodes : int, optional
        Override for the Gauss-Legendre node count (useful for projecting
        non-polynomial inflow profiles); never below the exactness minimum.
        The azimuth grid keeps its ``2*n_max + 3`` points, which integrate a
        basis function, or a product of two, times any function of the polar
        cosine (such as an inflow profile) exactly in the azimuth.
    """
    if n_max < 0:
        raise ValidationError(f"quadrature degree must be >= 0, got {n_max}")
    n_mu = max(n_max + 2, polar_nodes or 0)
    n_phi = 2 * n_max + 3
    if restriction is None:
        axis, sign = 3, 0
        c, w = np.polynomial.legendre.leggauss(n_mu)
    else:
        axis, sign = restriction
        _check_axis(axis)
        if sign not in (-1, 1):
            raise ValidationError(f"half-sphere sign must be -1 or +1, got {sign}")
        c0, w0 = np.polynomial.legendre.leggauss(n_mu)
        c = sign * 0.5 * (c0 + 1.0)  # strictly inside (0, 1): no equator node
        w = 0.5 * w0
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    cc = np.repeat(c, n_phi)
    pp = np.tile(phi, n_mu)
    ww = np.repeat(w, n_phi) * w_phi
    s = np.sqrt(np.maximum(0.0, 1.0 - cc * cc))
    if axis == 3:
        nodes = np.stack([s * np.cos(pp), s * np.sin(pp), cc], axis=-1)
    elif axis == 1:
        nodes = np.stack([cc, s * np.cos(pp), s * np.sin(pp)], axis=-1)
    else:
        nodes = np.stack([s * np.sin(pp), cc, s * np.cos(pp)], axis=-1)
    return SphereQuadrature(nodes, ww, None if restriction is None else (axis, sign))
