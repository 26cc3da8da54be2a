import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sector_test2
from pnsat.boundary import (
    Face,
    boundary_source,
    characteristic_form,
    eigenstructure,
    marshak_matrix,
    onsager_L,
    onsager_bc,
)
from pnsat.errors import NumericalError, ValidationError
from pnsat.moments import MomentBasis, assemble_transport


class TestMarshak:
    def test_golden_row(self, basis2):
        rows, cols = sector_test2(basis2)
        mt = marshak_matrix(basis2, Face(1, "high"), rows=rows, cols=cols).ravel()
        np.testing.assert_allclose(
            mt,
            [math.sqrt(3.0) / 2.0, -math.sqrt(15.0) / 16.0, 3.0 * math.sqrt(5.0) / 16.0],
            atol=1e-13,
        )
        assert float(mt @ [1.0, 2.5, -1.0]) == pytest.approx(-0.15839098984168, abs=1e-12)

    def test_order_one_z_face(self):
        basis = MomentBasis.build(1)
        mt = marshak_matrix(basis, Face(3, "high"))
        # single odd row (1,0); mean column carries the half-flux moment sqrt(3)/2
        assert mt.shape == (1, 3)
        assert mt[0, 0] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-13)

    def test_reflection_antisymmetry(self, basis5):
        for axis in (1, 2, 3):
            lo = marshak_matrix(basis5, Face(axis, "low"))
            hi = marshak_matrix(basis5, Face(axis, "high"))
            np.testing.assert_allclose(lo, -hi, atol=1e-14)


class TestOnsagerL:
    def test_analytic_order_one(self):
        basis = MomentBasis.build(1)
        l_mat = onsager_L(basis, Face(3, "high"))
        assert l_mat.shape == (1, 1)
        assert l_mat[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_sector_test2_scalar(self, basis2):
        rows, _ = sector_test2(basis2)
        l_mat = onsager_L(basis2, Face(1, "low"), rows=rows)
        assert l_mat[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_side_independent(self, basis5):
        for axis in (1, 2, 3):
            lo = onsager_L(basis5, Face(axis, "low"))
            hi = onsager_L(basis5, Face(axis, "high"))
            np.testing.assert_allclose(lo, hi, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_spd_all_orders(self, n):
        basis = MomentBasis.build(n)
        for axis in (1, 2, 3):
            l_mat = onsager_L(basis, Face(axis, "high"))
            ev = np.linalg.eigvalsh(l_mat)
            assert ev[0] > 0
            assert np.abs(l_mat - l_mat.T).max() < 1e-12


class TestOnsagerBc:
    def test_m_is_l_times_coupling(self, basis2, system2):
        rows, cols = sector_test2(basis2)
        bc = onsager_bc(basis2, Face(1, "high"), system2, rows=rows, cols=cols)
        np.testing.assert_allclose(
            bc.m_matrix.ravel(), [0.8660254037844386, -0.3872983346207417, 0.6708203932499369],
            atol=1e-12,
        )

    def test_mean_column_matches_marshak(self, basis2, system2):
        # truncation only touches the highest-degree even columns
        rows, cols = sector_test2(basis2)
        mt = marshak_matrix(basis2, Face(1, "high"), rows=rows, cols=cols)
        bc = onsager_bc(basis2, Face(1, "high"), system2, rows=rows, cols=cols)
        assert bc.m_matrix[0, 0] == pytest.approx(mt[0, 0], abs=1e-13)
        assert abs(bc.m_matrix[0, 1] - mt[0, 1]) > 0.1  # degree-2 columns genuinely differ

    @pytest.mark.parametrize("n", range(1, 8))
    def test_truncation_locality(self, n):
        basis = MomentBasis.build(n)
        system = assemble_transport(basis)
        for axis in (1, 2, 3):
            for side in ("low", "high"):
                face = Face(axis, side)
                mt = marshak_matrix(basis, face)
                bc = onsager_bc(basis, face, system)
                low_degree = np.array([basis.indices[j].l < n for j in basis.even_positions(axis)])
                assert np.abs((mt - bc.m_matrix)[:, low_degree]).max() < 1e-11

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_cross_class_entries_exact_zero(self, axis):
        # entries between different parity classes of the two axes other than the normal vanish
        # by symmetry; at N = 13 nearly all of them used to hold roundoff up to 8e-15
        basis = MomentBasis.build(13)
        bc = onsager_bc(basis, Face(axis, "high"), assemble_transport(basis))
        mt = marshak_matrix(basis, Face(axis, "low"))
        signs = np.stack(basis.parity.signs)[[ax - 1 for ax in (1, 2, 3) if ax != axis]]
        odd, even = basis.odd_positions(axis), basis.even_positions(axis)
        cross_l = np.any(signs[:, odd, None] != signs[:, None, odd], axis=0)
        cross_m = np.any(signs[:, odd, None] != signs[:, None, even], axis=0)
        assert (cross_l.sum(), cross_m.sum()) == (6174, 7154)
        assert np.count_nonzero(bc.l_matrix[cross_l]) == 0
        assert np.count_nonzero(bc.m_matrix[cross_m]) == 0
        assert np.count_nonzero(mt[cross_m]) == 0
        assert np.count_nonzero(bc.l_matrix[~cross_l]) > 0 and np.count_nonzero(mt[~cross_m]) > 0
        if axis == 3:
            # about the polar axis the half-sphere is rotation invariant: L and M keep the order k
            k = basis.orders
            assert np.count_nonzero(bc.l_matrix[k[odd, None] != k[None, odd]]) == 0
            assert np.count_nonzero(bc.m_matrix[k[odd, None] != k[None, even]]) == 0

    def test_sign_per_side(self, basis5, system5):
        for axis in (1, 2, 3):
            lo = onsager_bc(basis5, Face(axis, "low"), system5)
            hi = onsager_bc(basis5, Face(axis, "high"), system5)
            np.testing.assert_allclose(lo.m_matrix, -hi.m_matrix, atol=1e-13)


class TestBoundarySource:
    def test_zero_inflow(self):
        basis = MomentBasis.build(3)
        g = boundary_source(Face(2, "high"), lambda om: np.zeros(om.shape[0]), basis)
        np.testing.assert_array_equal(g, np.zeros(basis.n_odd))

    def test_isotropic_unit_inflow_order_one(self):
        # 2 * 2 pi * sqrt(3/(4 pi)) * int_{-1}^0 mu dmu = -sqrt(3 pi)
        basis = MomentBasis.build(1)
        g = boundary_source(Face(3, "high"), lambda om: np.ones(om.shape[0]), basis)
        assert g.shape == (1,)
        assert g[0] == pytest.approx(-math.sqrt(3.0 * math.pi), abs=1e-12)

    def test_beam_profile_matches_fine_quadrature(self):
        # width-0.1 Gaussian in the axis cosine against a 400-node polar oracle
        from pnsat.sphharm import build_quadrature, eval_basis

        basis = MomentBasis.build(9)
        face = Face(3, "high")
        profile = lambda om: np.exp(-(((om[:, 2] + 1.0) / (math.sqrt(2.0) * 0.1)) ** 2))
        g = boundary_source(face, profile, basis)
        oracle_quad = build_quadrature(basis.n_max, restriction=(3, -1), polar_nodes=400)
        y = eval_basis(basis.n_max, oracle_quad.nodes)[:, basis.odd_positions(3)]
        g_oracle = 2.0 * (y.T @ (oracle_quad.weights * profile(oracle_quad.nodes)))
        np.testing.assert_allclose(g, g_oracle, atol=1e-10)

    def test_rejects_mismatched_quadrature(self):
        from pnsat.sphharm import build_quadrature

        basis = MomentBasis.build(2)
        quad = build_quadrature(2, restriction=(3, 1))  # outgoing hemisphere
        with pytest.raises(ValidationError):
            boundary_source(Face(3, "high"), lambda om: np.ones(om.shape[0]), basis, quad=quad)


class TestEigenstructure:
    def test_trivial_block(self):
        eig = eigenstructure(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(eig.lambda_p, [1.0])
        np.testing.assert_allclose(np.abs(eig.x_hat), [[1.0]])
        np.testing.assert_allclose(np.abs(eig.x_tilde.ravel()), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(eig.x_kernel.ravel()), [0.0, 1.0], atol=1e-15)

    def test_test2_singular_value(self, basis2, system2):
        rows, cols = sector_test2(basis2)
        eig = eigenstructure(system2.a_hat_block(1, rows, cols))
        assert eig.lambda_p[0] == pytest.approx(math.sqrt(3.0 / 5.0), abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_reassembled_decomposition(self, n):
        system = assemble_transport(MomentBasis.build(n))
        for axis in (1, 2, 3):
            a_hat = system.a_hat[axis - 1]
            eig = eigenstructure(a_hat)
            x = eig.assemble_x()
            lam = eig.assemble_lambda()
            m = a_hat.shape[0] + a_hat.shape[1]
            assert np.abs(x @ x.T - np.eye(m)).max() < 1e-11
            a = np.block([
                [np.zeros((a_hat.shape[0],) * 2), a_hat],
                [a_hat.T, np.zeros((a_hat.shape[1],) * 2)],
            ])
            assert np.abs(x @ lam @ x.T - a).max() < 1e-11
            assert eig.x_kernel.shape[1] == n + 1          # kernel dimension
            assert eig.lambda_p.size == n * (n + 1) // 2   # incoming-wave count
            assert np.abs(a_hat @ eig.x_kernel).max() < 1e-12

    def test_rank_deficiency_raises(self):
        with pytest.raises(NumericalError):
            eigenstructure(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


class TestCharacteristicForm:
    def test_scalar_relation_test2(self, basis2, system2):
        rows, cols = sector_test2(basis2)
        bc = onsager_bc(basis2, Face(1, "high"), system2, rows=rows, cols=cols)
        cf = characteristic_form(bc)
        l_lp = 1.5 * math.sqrt(3.0 / 5.0)
        # x_hat is a 1x1 orthogonal block (+-1); compare magnitudes
        assert abs(cf.coef_in[0, 0]) == pytest.approx(l_lp + 1.0, abs=1e-12)
        # w_in = ((L Lp - 1)/(L Lp + 1)) w_out + sqrt(2) g / (L Lp + 1), up to x_hat sign
        ratio = cf.coef_out[0, 0] / cf.coef_in[0, 0]
        assert ratio == pytest.approx((l_lp - 1.0) / (l_lp + 1.0), abs=1e-12)

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_equivalence_both_ways(self, side, basis5, system5):
        rng = np.random.default_rng(11)
        bc = onsager_bc(basis5, Face(2, side), system5)
        cf = characteristic_form(bc)
        for _ in range(100):
            u_e = rng.standard_normal(bc.a_hat.shape[1])
            g = rng.standard_normal(bc.a_hat.shape[0])
            u_o = bc.m_matrix @ u_e + g
            assert cf.residual(u_o, u_e, g) < 1e-11
            u_bad = u_o + rng.standard_normal(u_o.shape)
            bc_res = float(np.abs(u_bad - (bc.m_matrix @ u_e + g)).max())
            assert cf.residual(u_bad, u_e, g) > 1e-3 * bc_res

    def test_incoming_wave_count(self, basis5, system5):
        bc = onsager_bc(basis5, Face(1, "high"), system5)
        cf = characteristic_form(bc)
        assert cf.coef_in.shape == (basis5.n_odd, basis5.n_odd)
        assert basis5.n_odd == basis5.n_max * (basis5.n_max + 1) // 2


class TestEnergyAlgebra:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_flux_form_bounded_by_source(self, seed, basis2, system2):
        # with u^o = M u^e + g at a high face: -2 (u^o)^T Ahat u^e <= |L^-1| g^T g
        rng = np.random.default_rng(seed)
        bc = onsager_bc(basis2, Face(1, "high"), system2)
        l_inv_norm = float(np.linalg.norm(np.linalg.inv(bc.l_matrix), 2))
        u_e = rng.standard_normal(bc.a_hat.shape[1])
        g = rng.standard_normal(bc.a_hat.shape[0])
        u_o = bc.m_matrix @ u_e + g
        flux = -2.0 * float(u_o @ (bc.a_hat @ u_e))
        assert flux <= l_inv_norm * float(g @ g) + 1e-10


class TestFaceValidation:
    def test_bad_face(self):
        with pytest.raises(ValidationError):
            Face(4, "low")
        with pytest.raises(ValidationError):
            Face(1, "top")
