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

The basis is ordered lexicographically in (l, k); :func:`degrees_orders`
and :func:`flat_position` are the one home of that ordering.

Each basis function is either even or odd under the reflection of a single
Cartesian component; see :func:`parity_signs` for the closed-form rules.
The basis about another Cartesian axis is the same functions at cyclically
permuted coordinates (:func:`cyclic_axes`), and :func:`rotation_about`
carries coefficients onto it; a 1-D run works in the basis about its axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FOUR_PI = 4.0 * math.pi


@functools.lru_cache(maxsize=None)
def degrees_orders(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree l and order k of every flat position up to degree ``n_max``.

    The basis is ordered lexicographically in (l, k): Y_l^k sits at flat
    position l^2 + l + k (:func:`flat_position`), so there are
    ``(n_max+1)^2`` positions.  The two int arrays are cached per degree
    and read-only.
    """
    if n_max < 0:
        raise ValidationError(f"basis degree must be >= 0, got {n_max}")
    l = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    k = np.arange(l.size) - l * l - l
    l.flags.writeable = k.flags.writeable = False
    return l, k


def flat_position(l: int, k: int) -> int:
    """Flat position l^2 + l + k of Y_l^k; requires 0 <= |k| <= l."""
    if not 0 <= abs(k) <= l:
        raise ValidationError(f"invalid spherical-harmonic index (l={l}, k={k})")
    return l * l + l + k


def _as_omega(omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if arr.shape[-1] != 3:
        raise ValidationError("direction arrays must have trailing dimension 3")
    return arr


def reflect(omega, axis: int) -> np.ndarray:
    """Mirror directions across the plane normal to a Cartesian axis (1, 2 or 3)."""
    _check_axis(axis)
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


# ---------------------------------------------------------------------------
# evaluation


def _recurrence(l_max: int, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of the normalized associated-Legendre recurrence for ``orders`` up to degree ``l_max``.

    Returns (seed, a, b): ``seed[j] = sqrt(prod_{i<=m} (2i+1)/(2i) / (4 pi))``
    at m = orders[j] and, for l >= m + 2, ``a[l, j]`` and ``b[l, j]`` of
    N_l^m = a mu N_{l-1}^m - b N_{l-2}^m (zero elsewhere).  Each entry takes
    the floating-point operations of its scalar closed form in the same
    order, so it has the same bits.
    """
    ratio = np.arange(3, 2 * l_max + 2, 2) / np.arange(2, 2 * l_max + 1, 2)  # (2i+1)/(2i), i = 1..l_max
    seed = np.sqrt(np.concatenate(([1.0], np.cumprod(ratio)))[orders] / FOUR_PI)
    l, m = np.broadcast_arrays(np.arange(l_max + 1.0)[:, None], orders.astype(float)[None, :])
    active = l >= m + 2
    l, m = l[active], m[active]
    a, b = np.zeros(active.shape), np.zeros(active.shape)
    a[active] = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    b[active] = np.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m) / ((2.0 * l - 3.0) * (l * l - m * m)))
    return seed, a, b


def eval_basis(n_max: int, omega, positions=None) -> np.ndarray:
    """Evaluate the Y_l^k with l <= n_max at one or many directions.

    N_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) (-1)^m P_l^m(mu) comes from
    the upward recurrence in l, seeded by the closed-form diagonal term and
    run for every needed order m at once; it is stable far beyond the
    degrees used here.  Only the orders and degrees that the requested
    positions hold are evaluated, and each value is bit-identical to the
    same column of the full evaluation.

    Parameters
    ----------
    n_max : int
        Maximum degree.
    omega : array_like
        Unit direction(s); shape (..., 3).
    positions : array_like of int, optional
        Flat (l, k) positions to evaluate, in any order and with repeats;
        all ``(n_max+1)^2`` of them by default.

    Returns
    -------
    np.ndarray
        Values with shape (..., len(positions)): column j is Y at flat
        position ``positions[j]``.  The full table is C-contiguous; a
        restricted one has the memory layout of ``full[..., positions]``
        (position-major), so products read it as they read that slice.
    """
    arr = _as_omega(omega)
    # mu and phi keep the directions' shape until after the transcendental
    # calls: a single direction takes numpy's scalar paths, as a full
    # evaluation at it always has
    mu = arr[..., 2]
    phi = np.arctan2(arr[..., 1], arr[..., 0])
    full = positions is None
    if full:
        positions = np.arange((n_max + 1) ** 2)
    positions = np.asarray(positions, dtype=int).ravel()
    if positions.size and (positions.min() < 0 or positions.max() >= (n_max + 1) ** 2):
        raise ValidationError(f"basis positions must lie in [0, {(n_max + 1) ** 2})")
    l, k = (table[positions] for table in degrees_orders(n_max))
    orders, slot = np.unique(np.abs(k), return_inverse=True)  # ascending: the recurrence grows a prefix
    l_top = int(l.max()) if l.size else 0
    seed, a, b = _recurrence(l_top, orders)
    one_minus, mu = 1.0 - mu * mu, mu.ravel()
    nlm = np.zeros((l_top + 1, orders.size, mu.size))
    for j, mj in enumerate(orders.tolist()):
        nlm[mj, j] = np.ravel(seed[j] * one_minus ** (mj / 2.0))
        if mj < l_top:
            nlm[mj + 1, j] = math.sqrt(2 * mj + 3.0) * mu * nlm[mj, j]
    for deg in range(2, l_top + 1):
        n = np.searchsorted(orders, deg - 1)  # the orders m <= deg - 2
        if n:
            nlm[deg, :n] = a[deg, :n, None] * mu * nlm[deg - 1, :n] - b[deg, :n, None] * nlm[deg - 2, :n]
    vals = nlm[l, slot]  # (positions, directions)
    turned = np.flatnonzero(k)  # sqrt(2) N_l^|k| times cos (k > 0) or sin (k < 0) of |k| phi
    if turned.size:
        trig = np.empty((2, orders.size, mu.size))
        for j, mj in enumerate(orders.tolist()):
            if mj:
                trig[0, j] = np.ravel(np.cos(mj * phi))
                trig[1, j] = np.ravel(np.sin(mj * phi))
        vals[turned] = math.sqrt(2.0) * vals[turned] * trig[(k[turned] < 0).astype(int), slot[turned]]
    out = vals.T.reshape(arr.shape[:-1] + (positions.size,))
    return np.ascontiguousarray(out) if full else out


def cyclic_axes(axis: int) -> tuple[int, int, int]:
    """The Cartesian axes (p, q, axis) that play the basis's axes 1, 2, 3 in the basis about ``axis``.

    p and q follow ``axis`` in cyclic order, so omega -> (omega_p, omega_q,
    omega_axis) is a rotation.  The basis about ``axis`` is :func:`eval_basis`
    at those coordinates: its polar axis is ``axis``, its azimuth runs from
    p toward q, and its parity on axis j of the basis is the parity under
    reflection of the Cartesian axis ``cyclic_axes(axis)[j - 1]``.
    """
    _check_axis(axis)
    return axis % 3 + 1, (axis + 1) % 3 + 1, axis


def rotation_about(n_max: int, axis: int) -> np.ndarray:
    """R with R[i, j] = < Y_i about ``axis``, Y_j >, over the basis up to degree ``n_max``.

    Coefficients c on the basis are R c on the basis about ``axis``
    (:func:`cyclic_axes`).  R is orthogonal and keeps each degree and each
    Cartesian parity class: Y_i about the axis has on Cartesian axis
    ``cyclic_axes(axis)[j]`` the parity of basis axis j + 1.  The full-sphere
    rule of degree ``n_max`` integrates every product exactly, and the
    entries between different degrees or different parity classes are exact
    zeros.
    """
    quad = build_quadrature(n_max)
    about = [ax - 1 for ax in cyclic_axes(axis)]
    rot = eval_basis(n_max, quad.nodes[:, about]).T @ (quad.weights[:, None] * eval_basis(n_max, quad.nodes))
    l, k = degrees_orders(n_max)
    signs = parity_signs(l, k)
    apart = l[:, None] != l[None, :]
    for j, ax in enumerate(about):  # row i's parity on Cartesian axis `ax` is that of basis axis j + 1
        apart |= signs[j][:, None] != signs[ax][None, :]
    rot[apart] = 0.0
    return rot


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the full sphere or on an axis half-sphere.

    ``nodes`` has shape (n, 3); ``weights`` are positive and sum to 4*pi
    (full) or 2*pi (half).  Half rules never place a node on the equator
    ``omega_axis = 0``, so integrands with a removable ``1/omega_axis``
    singularity are safe.
    """

    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; solved once per node count."""
    c, w = np.polynomial.legendre.leggauss(n)
    c.flags.writeable = w.flags.writeable = False
    return c, w


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

    The Gauss-Legendre solve is cached per node count, so rules of the same
    polar node count share it; the rest of a rule is cheap to rebuild.
    """
    if n_max < 0:
        raise ValidationError(f"quadrature degree must be >= 0, got {n_max}")
    n_mu = max(n_max + 2, polar_nodes or 0)
    n_phi = 2 * n_max + 3
    if restriction is None:
        axis, sign = 3, 0
        c, w = _gauss_legendre(n_mu)
    else:
        axis, sign = restriction
        _check_axis(axis)
        if sign not in (-1, 1):
            raise ValidationError(f"half-sphere sign must be -1 or +1, got {sign}")
        c0, w0 = _gauss_legendre(n_mu)
        c = sign * 0.5 * (c0 + 1.0)  # strictly inside (0, 1): no equator node
        w = 0.5 * w0
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    cc = np.repeat(c, n_phi)
    pp = np.tile(phi, n_mu)
    ww = np.repeat(w, n_phi) * w_phi
    s = np.sqrt(np.maximum(0.0, 1.0 - cc * cc))
    # (s cos phi, s sin phi, c) about the rule's polar axis, placed as in the basis about it
    nodes = np.empty((cc.size, 3))
    nodes[:, [ax - 1 for ax in cyclic_axes(axis)]] = np.stack([s * np.cos(pp), s * np.sin(pp), cc], axis=-1)
    return SphereQuadrature(nodes, ww)
