import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsat.errors import ValidationError
from pnsat.sphharm import (
    Direction,
    ParityTable,
    ShIndex,
    axis_mode_signs,
    basis_indices,
    build_quadrature,
    classify_parity,
    eval_axis_modes,
    eval_basis,
    eval_sh,
    parity_sign,
    reflect,
)

FOUR_PI = 4.0 * math.pi


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestIndexing:
    def test_flat_position(self):
        assert ShIndex(0, 0).flat == 0
        assert ShIndex(1, -1).flat == 1
        assert ShIndex(1, 0).flat == 2
        assert ShIndex(2, 2).flat == 8

    def test_basis_order_matches_flat(self):
        for pos, idx in enumerate(basis_indices(6)):
            assert idx.flat == pos

    def test_invalid_index_rejected(self):
        with pytest.raises(ValidationError):
            ShIndex(1, 2)
        with pytest.raises(ValidationError):
            ShIndex(-1, 0)

    def test_direction_validates_norm(self):
        with pytest.raises(ValidationError):
            Direction((1.0, 1.0, 0.0))
        d = Direction.from_mu_phi(0.3, 1.2)
        assert d.mu == pytest.approx(0.3)
        assert d.phi == pytest.approx(1.2)


class TestEvaluation:
    def test_constant_mode(self):
        # 1/sqrt(4 pi) for any direction
        for omega in random_directions(5):
            assert eval_sh(ShIndex(0, 0), omega) == pytest.approx(0.28209479177387814, abs=1e-15)

    def test_degree_one_pole(self):
        val = eval_sh(ShIndex(1, 0), Direction((0.0, 0.0, 1.0)))
        assert val == pytest.approx(math.sqrt(3.0 / FOUR_PI), abs=1e-15)

    def test_degree_two_equator_zero(self):
        # associated Legendre factor vanishes at mu = 0 for (l, k) = (2, -1)
        assert eval_sh(ShIndex(2, -1), Direction((1.0, 0.0, 0.0))) == 0.0

    def test_degree_one_is_cartesian(self):
        dirs = random_directions(50, seed=3)
        y = eval_basis(1, dirs)
        c = math.sqrt(3.0 / FOUR_PI)
        np.testing.assert_allclose(y[:, 1], c * dirs[:, 1], atol=1e-14)  # (1,-1) ~ omega_y
        np.testing.assert_allclose(y[:, 2], c * dirs[:, 2], atol=1e-14)  # (1, 0) ~ omega_z
        np.testing.assert_allclose(y[:, 3], c * dirs[:, 0], atol=1e-14)  # (1, 1) ~ omega_x


class TestParity:
    def test_table_rows(self):
        assert classify_parity(3, ShIndex(1, 0)) == "odd"      # l+k odd
        assert classify_parity(2, ShIndex(1, -1)) == "odd"     # k < 0
        assert classify_parity(1, ShIndex(1, 1)) == "odd"      # k >= 0, k odd
        assert classify_parity(1, ShIndex(1, -1)) == "even"    # k < 0, k odd
        assert classify_parity(3, ShIndex(2, 0)) == "even"

    def test_counting(self):
        for n in range(14):
            table = ParityTable.build(n)
            for axis in (1, 2, 3):
                assert table.odd_positions(axis).size == n * (n + 1) // 2
                assert table.even_positions(axis).size == (n + 1) * (n + 2) // 2

    def test_reflection_property_bulk(self):
        # sign flip under reflection, exactly to roundoff, 1000 directions
        dirs = random_directions(1000, seed=7)
        n_max = 9
        y = eval_basis(n_max, dirs)
        for axis in (1, 2, 3):
            y_ref = eval_basis(n_max, reflect(dirs, axis))
            signs = np.array([parity_sign(axis, i) for i in basis_indices(n_max)])
            np.testing.assert_allclose(y_ref, signs[None, :] * y, atol=1e-13)

    @given(
        mu=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        axis=st.sampled_from([1, 2, 3]),
        l=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflection_property_hypothesis(self, mu, phi, axis, l):
        d = Direction.from_mu_phi(mu, phi)
        for k in range(-l, l + 1):
            idx = ShIndex(l, k)
            lhs = eval_sh(idx, reflect(d, axis))
            rhs = parity_sign(axis, idx) * eval_sh(idx, d)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def mode_columns(n_max):
    modes = [(0, "cos")] + [(m, trig) for m in range(1, n_max + 1) for trig in ("cos", "sin")]
    return [(l, m, trig) for m, trig in modes for l in range(m, n_max + 1)]


class TestAxisModes:
    def test_modes_about_z_are_the_basis(self):
        dirs = random_directions(40, seed=3)
        cols = mode_columns(5)
        flat = [ShIndex(l, m if trig == "cos" else -m).flat for l, m, trig in cols]
        np.testing.assert_allclose(eval_axis_modes(5, 3, cols, dirs), eval_basis(5, dirs)[:, flat],
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_orthonormal_and_within_degree(self, axis):
        # each harmonic about an axis is a combination of the basis functions of its degree
        n = 6
        quad = build_quadrature(n)
        cols = mode_columns(n)
        vals = eval_axis_modes(n, axis, cols, quad.nodes)
        gram = vals.T @ (quad.weights[:, None] * vals)
        np.testing.assert_allclose(gram, np.eye(len(cols)), rtol=0.0, atol=1e-13)
        coef = eval_basis(n, quad.nodes).T @ (quad.weights[:, None] * vals)
        degrees = np.array([i.l for i in basis_indices(n)])
        for j, (l, _, _) in enumerate(cols):
            assert np.abs(coef[degrees != l, j]).max() < 1e-13
            assert np.sum(coef[:, j] ** 2) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_signs_match_reflections(self, axis):
        dirs = random_directions(30, seed=axis)
        cols = mode_columns(4)
        vals = eval_axis_modes(4, axis, cols, dirs)
        for refl in (1, 2, 3):
            mirrored = eval_axis_modes(4, axis, cols, reflect(dirs, refl))
            signs = np.array([axis_mode_signs(axis, *col)[refl - 1] for col in cols])
            np.testing.assert_allclose(mirrored, signs * vals, rtol=0.0, atol=1e-13)


class TestReflect:
    def test_flip_and_fixed_point(self):
        assert reflect(Direction((0.0, 0.0, 1.0)), 3).omega == (0.0, 0.0, -1.0)
        assert reflect(Direction((1.0, 0.0, 0.0)), 2).omega == (1.0, 0.0, 0.0)
        out = reflect(Direction((0.6, 0.0, 0.8)), 1)
        assert out.omega == (-0.6, 0.0, 0.8)

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
        n = 6
        full = build_quadrature(n)
        y = eval_basis(n, full.nodes)
        gram_full = y.T @ (full.weights[:, None] * y)
        for axis in (1, 2, 3):
            acc = np.zeros_like(gram_full)
            for sign in (-1, 1):
                h = build_quadrature(n, restriction=(axis, sign))
                yh = eval_basis(n, h.nodes)
                acc += yh.T @ (h.weights[:, None] * yh)
            assert np.abs(acc - gram_full).max() < 1e-11

    def test_rejects_negative_degree(self):
        with pytest.raises(ValidationError):
            build_quadrature(-1)
