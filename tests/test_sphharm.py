import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsat import checks, sphharm
from pnsat.errors import ValidationError
from pnsat.moments import MomentBasis
from pnsat.sphharm import (
    build_quadrature,
    cyclic_axes,
    degrees_orders,
    eval_basis,
    flat_position,
    parity_signs,
    reflect,
    rotation_about,
)

FOUR_PI = 4.0 * math.pi


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestIndexing:
    def test_flat_position(self):
        assert flat_position(0, 0) == 0
        assert flat_position(1, -1) == 1
        assert flat_position(1, 0) == 2
        assert flat_position(2, 2) == 8

    def test_basis_order_matches_flat(self):
        l, k = degrees_orders(6)
        assert l.size == k.size == 49
        assert [flat_position(int(a), int(b)) for a, b in zip(l, k)] == list(range(49))
        assert degrees_orders(6)[0] is l  # cached
        assert not l.flags.writeable and not k.flags.writeable

    def test_invalid_index_rejected(self):
        with pytest.raises(ValidationError, match="invalid spherical-harmonic index"):
            flat_position(1, 2)
        with pytest.raises(ValidationError, match="invalid spherical-harmonic index"):
            flat_position(-1, 0)
        with pytest.raises(ValidationError, match="basis degree must be >= 0"):
            degrees_orders(-1)


POLE, X_AXIS = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])


class TestEvaluation:
    def test_constant_mode(self):
        # 1/sqrt(4 pi) for any direction
        y = eval_basis(0, random_directions(5))
        np.testing.assert_allclose(y[:, flat_position(0, 0)], 0.28209479177387814, rtol=0.0, atol=1e-15)

    def test_degree_one_pole(self):
        val = eval_basis(1, POLE)[flat_position(1, 0)]
        assert val == pytest.approx(math.sqrt(3.0 / FOUR_PI), abs=1e-15)

    def test_degree_two_equator_zero(self):
        # associated Legendre factor vanishes at mu = 0 for (l, k) = (2, -1)
        assert eval_basis(2, X_AXIS)[flat_position(2, -1)] == 0.0

    def test_degree_one_is_cartesian(self):
        dirs = random_directions(50, seed=3)
        y = eval_basis(1, dirs)
        c = math.sqrt(3.0 / FOUR_PI)
        np.testing.assert_allclose(y[:, 1], c * dirs[:, 1], atol=1e-14)  # (1,-1) ~ omega_y
        np.testing.assert_allclose(y[:, 2], c * dirs[:, 2], atol=1e-14)  # (1, 0) ~ omega_z
        np.testing.assert_allclose(y[:, 3], c * dirs[:, 0], atol=1e-14)  # (1, 1) ~ omega_x


def mu_phi_directions(n, seed=0):
    """Directions at uniform (mu, phi), with the poles and the azimuth seam among them."""
    rng = np.random.default_rng(seed)
    mu = np.concatenate(([-1.0, 1.0, 0.0, 0.5], rng.uniform(-1.0, 1.0, n)))
    phi = np.concatenate(([0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi], rng.uniform(0.0, 2.0 * math.pi, n)))
    s = np.sqrt(1.0 - mu * mu)
    return np.stack([s * np.cos(phi), s * np.sin(phi), mu], axis=-1)


class TestParity:
    def test_table_rows(self):
        def parity(axis, l, k):
            return "even" if parity_signs(l, k)[axis - 1] > 0 else "odd"

        assert parity(3, 1, 0) == "odd"      # l+k odd
        assert parity(2, 1, -1) == "odd"     # k < 0
        assert parity(1, 1, 1) == "odd"      # k >= 0, k odd
        assert parity(1, 1, -1) == "even"    # k < 0, k odd
        assert parity(3, 2, 0) == "even"

    def test_counting(self):
        for n in range(14):
            basis = MomentBasis.build(n)
            for axis in (1, 2, 3):
                assert basis.odd_positions(axis).size == n * (n + 1) // 2
                assert basis.even_positions(axis).size == (n + 1) * (n + 2) // 2

    def test_reflection_property_bulk(self):
        # sign flip under reflection, exactly to roundoff: 1000 isotropic directions, and
        # 500 at uniform (mu, phi) with the poles and the azimuth seam
        dirs = np.concatenate([random_directions(1000, seed=7), mu_phi_directions(500, seed=8)])
        n_max = 9
        y = eval_basis(n_max, dirs)
        signs = parity_signs(*degrees_orders(n_max))
        for axis in (1, 2, 3):
            y_ref = eval_basis(n_max, reflect(dirs, axis))
            np.testing.assert_allclose(y_ref, signs[axis - 1][None, :] * y, atol=1e-13)

    @given(
        mu=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        axis=st.sampled_from([1, 2, 3]),
        l=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflection_property_hypothesis(self, mu, phi, axis, l):
        s = math.sqrt(1.0 - mu * mu)
        d = np.array([s * math.cos(phi), s * math.sin(phi), mu])
        block = slice(flat_position(l, -l), flat_position(l, l) + 1)
        lhs = eval_basis(l, reflect(d, axis))[block]
        signs = parity_signs(*degrees_orders(l))[axis - 1][block]
        rhs = signs * eval_basis(l, d)[block]
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def eval_about(n_max, axis, omega):
    """The basis about ``axis``: eval_basis at the cyclically permuted coordinates."""
    return eval_basis(n_max, np.asarray(omega)[..., [ax - 1 for ax in cyclic_axes(axis)]])


class TestAxisModes:
    def test_modes_about_z_are_the_basis(self):
        assert cyclic_axes(3) == (1, 2, 3)
        assert cyclic_axes(1) == (2, 3, 1) and cyclic_axes(2) == (3, 1, 2)
        np.testing.assert_allclose(rotation_about(5, 3), np.eye(36), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_orthonormal_and_within_degree(self, axis):
        # each harmonic about an axis is a combination of the basis functions of its degree,
        # with the coefficients of rotation_about
        n = 6
        quad = build_quadrature(n)
        vals = eval_about(n, axis, quad.nodes)
        gram = vals.T @ (quad.weights[:, None] * vals)
        np.testing.assert_allclose(gram, np.eye(vals.shape[1]), rtol=0.0, atol=1e-13)
        rot = rotation_about(n, axis)
        degrees = degrees_orders(n)[0]
        assert np.all(rot[degrees[:, None] != degrees[None, :]] == 0.0)
        np.testing.assert_allclose(rot @ rot.T, np.eye(rot.shape[0]), rtol=0.0, atol=1e-13)
        dirs = random_directions(40, seed=axis)
        np.testing.assert_allclose(eval_about(n, axis, dirs), eval_basis(n, dirs) @ rot.T,
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_rotation_exact_zero_between_parity_classes(self, axis):
        # Y_i about the axis has on Cartesian axis cyclic_axes(axis)[j] the parity of basis axis
        # j + 1, Y_j its own parities; where they differ the integral vanishes, and R holds an
        # exact zero in place of the quadrature's roundoff
        for n in range(14):
            quad = build_quadrature(n)
            raw = eval_about(n, axis, quad.nodes).T @ (quad.weights[:, None] * eval_basis(n, quad.nodes))
            signs = parity_signs(*degrees_orders(n))
            apart = np.zeros(raw.shape, dtype=bool)
            for j, cart in enumerate(cyclic_axes(axis)):
                apart |= signs[j][:, None] != signs[cart - 1][None, :]
            rot = rotation_about(n, axis)
            assert np.all(rot[apart] == 0.0)
            assert np.abs(raw[apart]).max(initial=0.0) < 1e-14
            kept = ~apart & (degrees_orders(n)[0][:, None] == degrees_orders(n)[0][None, :])
            assert np.array_equal(rot[kept], raw[kept])

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_signs_match_reflections(self, axis):
        # reflecting Cartesian axis cyclic_axes(axis)[j] flips the basis about axis by the
        # parity of the basis's own axis j + 1
        dirs = random_directions(30, seed=axis)
        vals = eval_about(4, axis, dirs)
        signs = parity_signs(*degrees_orders(4))
        for j, refl in enumerate(cyclic_axes(axis)):
            mirrored = eval_about(4, axis, reflect(dirs, refl))
            np.testing.assert_allclose(mirrored, signs[j] * vals, rtol=0.0, atol=1e-13)


class TestReflect:
    def test_flip_and_fixed_point(self):
        assert reflect(POLE, 3).tolist() == [0.0, 0.0, -1.0]
        assert reflect(X_AXIS, 2).tolist() == [1.0, 0.0, 0.0]
        omega = np.array([0.6, 0.0, 0.8])
        assert reflect(omega, 1).tolist() == [-0.6, 0.0, 0.8]
        assert omega.tolist() == [0.6, 0.0, 0.8]  # the input is not changed

    def test_involution(self):
        dirs = random_directions(20, seed=1)
        for axis in (1, 2, 3):
            np.testing.assert_array_equal(reflect(reflect(dirs, axis), axis), dirs)


class TestQuadrature:
    def test_weight_sums(self):
        q = build_quadrature(3)
        assert q.weights.sum() == pytest.approx(FOUR_PI, abs=1e-13)
        assert q.weights.min() > 0
        for axis in (1, 2, 3):
            for sign in (-1, 1):
                h = build_quadrature(3, restriction=(axis, sign))
                assert h.weights.sum() == pytest.approx(2.0 * math.pi, abs=1e-12)
                assert np.all(sign * h.nodes[:, axis - 1] > 0)

    def test_no_equator_nodes(self):
        h = build_quadrature(9, restriction=(2, 1))
        assert np.abs(h.nodes[:, 1]).min() > 1e-4

    def test_unit_norm_nodes(self):
        for restriction in (None, (1, 1), (3, -1)):
            q = build_quadrature(5, restriction=restriction)
            np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [0, 2, 5, 9, 13])
    def test_gram_identity(self, n):
        q = build_quadrature(n)
        y = eval_basis(n, q.nodes)
        gram = y.T @ (q.weights[:, None] * y)
        assert np.abs(gram - np.eye(y.shape[1])).max() < 1e-11

    def test_half_sphere_analytic_value(self):
        # 2 pi * sqrt(3)/(4 pi) * int_0^1 mu dmu = sqrt(3)/4
        h = build_quadrature(1, restriction=(3, 1))
        y = eval_basis(1, h.nodes)
        val = float(np.sum(h.weights * y[:, 2] * y[:, 0]))
        assert val == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-14)

    def test_half_plus_half_equals_full(self):
        result = checks.check_half_plus_half()  # N = 6, each axis, both half spheres, 1e-11
        assert result.passed, result.line()

    def test_rejects_negative_degree(self):
        with pytest.raises(ValidationError):
            build_quadrature(-1)

    def test_gauss_legendre_cached_read_only(self):
        c, w = sphharm._gauss_legendre(9)
        again = sphharm._gauss_legendre(9)
        assert again[0] is c and again[1] is w
        want_c, want_w = np.polynomial.legendre.leggauss(9)
        np.testing.assert_array_equal(c, want_c)
        np.testing.assert_array_equal(w, want_w)
        for arr in (c, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # a rule built from the cached arrays owns its nodes and weights
        h = build_quadrature(7, restriction=(3, 1))
        h.weights[0] = h.nodes[0, 2] = -1.0
        assert np.array_equal(c, want_c) and np.array_equal(w, want_w)


def reference_eval_basis(n_max, omega):
    """The full table from a per-(l, m) loop of the normalized associated-Legendre recurrence."""
    arr = np.asarray(omega, dtype=float)
    mu, phi = arr[..., 2], np.arctan2(arr[..., 1], arr[..., 0])
    out = np.zeros(mu.shape + ((n_max + 1) ** 2,))
    for m in range(n_max + 1):
        nlm = np.zeros((n_max + 1,) + mu.shape)
        amm = 1.0
        for j in range(1, m + 1):
            amm *= (2 * j + 1) / (2 * j)
        nlm[m] = math.sqrt(amm / FOUR_PI) * (1.0 - mu * mu) ** (m / 2.0)
        if m + 1 <= n_max:
            nlm[m + 1] = math.sqrt(2 * m + 3.0) * mu * nlm[m]
        for l in range(m + 2, n_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m) / ((2.0 * l - 3.0) * (l * l - m * m)))
            nlm[l] = a * mu * nlm[l - 1] - b * nlm[l - 2]
        for l in range(m, n_max + 1):
            if m == 0:
                out[..., l * l + l] = nlm[l]
            else:
                out[..., l * l + l + m] = math.sqrt(2.0) * nlm[l] * np.cos(m * phi)
                out[..., l * l + l - m] = math.sqrt(2.0) * nlm[l] * np.sin(m * phi)
    return out


DIRECTION_SETS = {
    "random": random_directions(200, seed=11),
    "poles": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
    "single": np.array([0.48, -0.6, 0.64]),
    "grid": random_directions(12, seed=12).reshape(3, 4, 3),
}


class TestRestrictedEvaluation:
    @pytest.mark.parametrize("n", [0, 1, 5, 13])
    @pytest.mark.parametrize("dirs", sorted(DIRECTION_SETS))
    def test_columns_bit_identical_to_the_full_table(self, n, dirs):
        omega = DIRECTION_SETS[dirs]
        full = eval_basis(n, omega)
        assert full.shape == omega.shape[:-1] + ((n + 1) ** 2,)
        rng = np.random.default_rng(n)
        dim = (n + 1) ** 2
        for positions in (
            rng.permutation(dim),  # unsorted
            rng.integers(0, dim, size=2 * dim + 1),  # repeated
            np.array([dim - 1, 0, dim - 1]),
            np.array([], dtype=int),  # empty
            [(n // 2) ** 2],  # a plain list
        ):
            got = eval_basis(n, omega, positions)
            want = full[..., np.asarray(positions, dtype=int)]
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 5, 13])
    def test_full_table_matches_the_per_order_loop(self, n):
        for omega in DIRECTION_SETS.values():
            assert np.array_equal(eval_basis(n, omega), reference_eval_basis(n, omega))
        nodes = build_quadrature(n, restriction=(3, -1), polar_nodes=48).nodes
        assert np.array_equal(eval_basis(n, nodes), reference_eval_basis(n, nodes))

    def test_restricted_layout_is_that_of_the_slice(self):
        # products read a restricted table as they read the slice of the full one
        nodes = build_quadrature(7, restriction=(1, 1)).nodes
        rows = MomentBasis.build(7).odd_positions(1)
        got, want = eval_basis(7, nodes, rows), eval_basis(7, nodes)[:, rows]
        assert got.strides == want.strides
        w = nodes[:, 0]
        assert np.array_equal(got.T @ (w[:, None] * got), want.T @ (w[:, None] * want))

    @pytest.mark.parametrize("positions", [[-1], [16], [0, 3, 99]])
    def test_rejects_positions_outside_the_basis(self, positions):
        with pytest.raises(ValidationError):
            eval_basis(3, random_directions(4), positions)
