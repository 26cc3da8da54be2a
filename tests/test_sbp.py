import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import bundled_doc, load_bundled
from pnsat import checks, sbp
from pnsat.config import scenario_from_dict
from pnsat.errors import NumericalError, ValidationError
from pnsat.sbp import StaggeredGrid1d, TensorGrid, build_sbp_pair, sat_penalties
from pnsat.solver import run


class TestGrid:
    def test_node_layout(self):
        g = StaggeredGrid1d(0.0, 1.0, 10)
        assert g.x_odd.size == 11
        assert g.x_even.size == 12
        assert g.x_even[0] == g.x_odd[0] == 0.0
        assert g.x_even[-1] == g.x_odd[-1] == 1.0
        np.testing.assert_allclose(np.diff(g.x_odd), 0.1)
        np.testing.assert_allclose(g.x_even[1:-1], g.x_odd[:-1] + 0.05)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValidationError):
            StaggeredGrid1d(0.0, 1.0, 3)
        with pytest.raises(ValidationError):
            StaggeredGrid1d(1.0, 1.0, 8)


class TestSbpPair:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 16, 64])
    def test_sbp_identity_exact(self, n):
        pair = build_sbp_pair(StaggeredGrid1d(0.0, 1.0, n))
        b = (pair.q_odd + pair.q_even.T).toarray()
        assert np.array_equal(b, pair.boundary_matrix().toarray())  # entrywise exact

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 16, 400])
    def test_closure_corners_reproduce_derivatives(self, n):
        # the staggered stencil on every row, then each stored corner over its rows;
        # at n = 4, 5 the low-end and high-end corners share rows, where both ends' closures add
        grid = StaggeredGrid1d(-0.3, 1.1, n)
        pair = build_sbp_pair(grid)
        rng = np.random.default_rng(n)
        for op, corners, parity in ((pair.d_odd, pair.corners_odd, "o"), (pair.d_even, pair.corners_even, "e")):
            low, high = corners
            assert low.rows.start == 0 and low.rows.stop <= high.rows.start
            assert high.rows.stop == op.shape[0]
            u = rng.standard_normal(op.shape[1])
            out = np.full(op.shape[0], np.nan)
            if parity == "o":
                out[:] = u[1:] - u[:-1]
            else:
                out[1:-1] = u[1:] - u[:-1]
            for corner in corners:
                out[corner.rows] = corner.weights @ u[corner.cols]
            ref = grid.h * (op @ u)
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 16, 64])
    def test_norms_positive(self, n):
        pair = build_sbp_pair(StaggeredGrid1d(-2.0, 3.0, n))
        assert pair.p_odd.min() > 0
        assert pair.p_even.min() > 0

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 16, 64])
    def test_exactness_constants_linears(self, n):
        grid = StaggeredGrid1d(-0.7, 1.3, n)
        pair = build_sbp_pair(grid)
        assert np.abs(pair.d_odd @ np.ones(n + 2)).max() < 1e-12
        assert np.abs(pair.d_odd @ grid.x_even - 1.0).max() < 1e-12
        assert np.abs(pair.d_even @ np.ones(n + 1)).max() < 1e-12
        assert np.abs(pair.d_even @ grid.x_odd - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 16])
    def test_odd_derivative_exact_on_quadratics(self, n):
        grid = StaggeredGrid1d(0.0, 2.0, n)
        pair = build_sbp_pair(grid)
        assert np.abs(pair.d_odd @ grid.x_even**2 - 2.0 * grid.x_odd).max() < 1e-12

    def test_boundary_pairing_term(self):
        # <f_o, B g_e> = f(x_R) g(x_R) - f(x_L) g(x_L)
        rng = np.random.default_rng(0)
        grid = StaggeredGrid1d(0.0, 1.0, 12)
        pair = build_sbp_pair(grid)
        b = pair.boundary_matrix()
        for _ in range(20):
            f = rng.standard_normal(13)
            g = rng.standard_normal(14)
            assert f @ (b @ g) == pytest.approx(f[-1] * g[-1] - f[0] * g[0], abs=1e-13)

    def test_discrete_integration_by_parts(self):
        # <D^o f_e, P^o g_o> + <f_e, (Q^e)^T... reproduces pure boundary terms
        rng = np.random.default_rng(1)
        grid = StaggeredGrid1d(0.0, 1.0, 16)
        pair = build_sbp_pair(grid)
        for _ in range(100):
            f_e = rng.standard_normal(18)
            g_o = rng.standard_normal(17)
            lhs = (pair.d_odd @ f_e) @ (pair.p_odd * g_o) + (pair.d_even @ g_o) @ (pair.p_even * f_e)
            rhs = f_e[-1] * g_o[-1] - f_e[0] * g_o[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_convergence_order(self):
        result = checks.check_sbp_convergence()  # D^o on sin(x + 2), n = 16..128, order >= 1.8
        assert result.passed, result.line()


def exact_operator(rows, p, n_rows, n_cols, shift):
    """Dense Fraction Q and norm of one operator: the closure ``rows``, the unit-norm stencil -1, +1 elsewhere.

    ``Fraction(v)`` of a double is its exact value, so no entry is rounded here.
    """
    mat = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    for i in set(range(n_rows)) - set(rows):
        mat[i][i + shift], mat[i][i + shift + 1] = Fraction(-1), Fraction(1)
    for i, row in rows.items():
        for j, v in row.items():
            mat[i][j] = Fraction(v)
    return mat, [Fraction(p.get(i, 1.0)) for i in range(n_rows)]


def assert_dyadic(values, max_denominator=32):
    """Each value is a dyadic rational with a denominator of at most ``max_denominator``."""
    for v in values:
        d = Fraction(v).denominator
        assert d <= max_denominator and d & (d - 1) == 0, v


def closure_table():
    """Every entry and norm of the left-end closure table."""
    return [v for table in (sbp._CORNER_Q_ODD, sbp._CORNER_Q_EVEN) for row in table for v in row] + [
        *sbp._CORNER_P_ODD, *sbp._CORNER_P_EVEN
    ]


class TestExactClosure:
    """The superposed closure table, checked in exact arithmetic (h = 1, x_L = 0)."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_overlay_is_an_exact_sbp_pair(self, n):
        qo_d, qe_d, po_d, pe_d = sbp._overlay(n)
        qo, po = exact_operator(qo_d, po_d, n + 1, n + 2, 0)
        qe, pe = exact_operator(qe_d, pe_d, n + 2, n + 1, -1)
        xo = [Fraction(i) for i in range(n + 1)]
        xe = [Fraction(0)] + [Fraction(2 * j - 1, 2) for j in range(1, n + 1)] + [Fraction(n)]
        # SBP identity, entrywise: B = -e_0 e_0^T + e_n e_{n+1}^T
        for i in range(n + 1):
            for j in range(n + 2):
                b = -1 if (i, j) == (0, 0) else 1 if (i, j) == (n, n + 1) else 0
                assert qo[i][j] + qe[j][i] == b, (i, j)
        # D^o exact on 1, x, x^2 in every row
        for i in range(n + 1):
            for k in range(3):
                assert sum(q * x**k for q, x in zip(qo[i], xe)) == (k * po[i] * xo[i] ** (k - 1) if k else 0)
        # D^e exact on 1, x, x^2 except its two boundary rows, which are exact on 1, x
        for j in range(n + 2):
            for k in range(2 if j in (0, n + 1) else 3):
                assert sum(q * x**k for q, x in zip(qe[j], xo)) == (k * pe[j] * xe[j] ** (k - 1) if k else 0)
        assert min(po) > 0 and min(pe) > 0
        # the overlay's sums are dyadic too: its entries equal the table's in exact arithmetic
        assert_dyadic([v for q in (qo_d, qe_d) for row in q.values() for v in row.values()])
        assert_dyadic([*po_d.values(), *pe_d.values()])

    def test_table_is_dyadic_with_denominators_up_to_32(self):
        table = closure_table()
        assert len(table) == 35  # 12 + 16 entries, zeros included, and 3 + 4 norms
        assert_dyadic(table)

    @pytest.mark.parametrize("entry", [1 / 3, 0.1, 1 / 64])
    def test_rejects_a_non_dyadic_entry(self, entry):
        # 1/3 and 0.1 are not dyadic (their doubles are rounded); 1/64 is, but exceeds the bound
        table = closure_table()
        table[5] = entry
        with pytest.raises(AssertionError):
            assert_dyadic(table)


class TestMirrorPair:
    """The half pair on x > 0 of a symmetric grid with an even cell count of at least 8."""

    @pytest.mark.parametrize("n", [8, 10, 16, 48])
    def test_identity_is_the_high_corner_only(self, n):
        pair = build_sbp_pair(StaggeredGrid1d(-1.5, 1.5, n, mirror=True))
        b = (pair.q_odd + pair.q_even.T).toarray()
        want = np.zeros(b.shape)
        want[-1, -1] = 1.0  # e_last e_last^T: no term at the mirror plane
        assert np.array_equal(b, want)
        assert np.array_equal(b, pair.boundary_matrix().toarray())

    @pytest.mark.parametrize("n", [8, 10, 16, 48])
    def test_norms_positive_and_half_the_full_norm(self, n):
        grid = StaggeredGrid1d(-2.0, 2.0, n, mirror=True)
        pair, full = build_sbp_pair(grid), build_sbp_pair(grid.full)
        assert pair.p_odd.min() > 0 and pair.p_even.min() > 0
        # an even function on the even grid, an odd one (0 at x = 0) on the odd grid
        even, odd = np.cos(grid.full.x_even), np.sin(grid.full.x_odd)
        assert full.p_even @ even**2 == pytest.approx(2.0 * (pair.p_even @ even[grid.kept] ** 2), rel=1e-14)
        assert full.p_odd @ odd**2 == pytest.approx(2.0 * (pair.p_odd @ odd[grid.kept] ** 2), rel=1e-14)

    @pytest.mark.parametrize("n", [8, 10, 16, 48])
    def test_exact_on_even_and_odd_polynomials(self, n):
        grid = StaggeredGrid1d(-0.9, 0.9, n, mirror=True)
        pair, full = build_sbp_pair(grid), build_sbp_pair(grid.full)
        x_o, x_e = grid.x_odd, grid.x_even
        # D^o reads the even grid: exact on the even 1 and x^2
        assert np.abs(pair.d_odd @ np.ones(x_e.size)).max() < 1e-12
        assert np.abs(pair.d_odd @ x_e**2 - 2.0 * x_o).max() < 1e-12
        # D^e reads the odd grid: exact on the odd x; on x^3 the second-order stencil is not
        # exact, and the half pair reproduces the full pair's rows on the kept nodes
        assert np.abs(pair.d_even @ x_o - 1.0).max() < 1e-12
        for f in (lambda x: x, lambda x: x**3):
            np.testing.assert_allclose(pair.d_even @ f(x_o), (full.d_even @ f(grid.full.x_odd))[grid.kept],
                                       rtol=0.0, atol=1e-13)
        for f in (np.ones_like, lambda x: x**2):
            np.testing.assert_allclose(pair.d_odd @ f(x_e), (full.d_odd @ f(grid.full.x_even))[grid.kept],
                                       rtol=0.0, atol=1e-13)

    def test_grid_keeps_the_full_nodes_and_h(self):
        grid = StaggeredGrid1d(-120.0, 120.0, 48, mirror=True)
        assert grid.h == grid.full.h
        assert grid.x_odd.size == 24 and grid.x_even.size == 25
        assert np.array_equal(grid.x_odd, grid.full.x_odd[25:])
        assert np.array_equal(grid.x_even, grid.full.x_even[25:])
        assert grid.x_odd[0] == grid.h and grid.x_even[0] == 0.5 * grid.h

    def test_corners(self):
        pair = build_sbp_pair(StaggeredGrid1d(-1.0, 1.0, 16, mirror=True))
        (high_o,) = pair.corners_odd
        low_e, high_e = pair.corners_even
        assert high_o.rows.stop == pair.d_odd.shape[0] and high_e.rows.stop == pair.d_even.shape[0]
        # the first even row reads u_o(h) / h
        assert (low_e.rows, low_e.cols) == (slice(0, 1), slice(0, 1))
        assert np.array_equal(low_e.weights, [[1.0]])

    def test_integration_by_parts_has_no_plane_term(self):
        rng = np.random.default_rng(7)
        pair = build_sbp_pair(StaggeredGrid1d(-1.0, 1.0, 20, mirror=True))
        for _ in range(50):
            f_e = rng.standard_normal(pair.d_odd.shape[1])
            g_o = rng.standard_normal(pair.d_odd.shape[0])
            lhs = (pair.d_odd @ f_e) @ (pair.p_odd * g_o) + (pair.d_even @ g_o) @ (pair.p_even * f_e)
            assert lhs == pytest.approx(f_e[-1] * g_o[-1], abs=1e-12)

    @pytest.mark.parametrize("lo, hi, n", [(-1.0, 1.2, 16), (-1.0, 1.0, 15), (-1.0, 1.0, 6)])
    def test_rejects_grids_without_a_mirror_node(self, lo, hi, n):
        with pytest.raises(ValidationError, match="mirrored grid"):
            StaggeredGrid1d(lo, hi, n, mirror=True)


class TestIdentityCheck:
    def test_identity_check_fails_on_one_ulp(self):
        # one closure entry of Q^o one unit in the last place off: the exact check sees it
        def nudged(grid):
            pair = build_sbp_pair(grid)
            rows = {i: dict(row) for i, row in pair.closure_odd.items()}
            rows[0][1] = math.nextafter(rows[0][1], math.inf)
            return dataclasses.replace(pair, closure_odd=rows)

        assert checks.check_sbp_identity().margin == 0.0
        with mock.patch.object(checks, "build_sbp_pair", nudged):
            result = checks.check_sbp_identity()
        assert not result.passed and -1e-15 < result.margin < 0, result.line()


def counting_csr():
    """Patch ``scipy.sparse.csr_matrix``, as the SBP module calls it, with a counting wrapper."""
    return mock.patch.object(sbp.sp, "csr_matrix", wraps=sp.csr_matrix)


class TestLazyPair:
    def test_tc3_tensor_grid_builds_no_sparse_matrix(self):
        sc = load_bundled("tc3_vacuum")
        with counting_csr() as csr:
            grids = [
                StaggeredGrid1d(lo, hi, n, mirror=(d == 0))
                for d, ((lo, hi), n) in enumerate(zip(sc.extents, sc.cells))
            ]
            tensor = TensorGrid.build(sc.axes, grids)
            assert all(pair.corners_odd and pair.corners_even for pair in tensor.pairs)
        assert csr.call_count == 0

    @pytest.mark.parametrize("name, cells", [("tc1", [40]), ("tc3_vacuum", [8, 6])])
    def test_a_run_builds_no_sparse_matrix(self, name, cells):
        doc = bundled_doc(name)
        doc["model"].update({"N": 3, "stopping": {"mode": "time"}})
        doc["domain"]["cells"] = cells
        doc["integration"] = {"cfl": 0.5, "t_end": 0.05}
        doc["outputs"] = {"snapshot_times": [0.05]}
        with counting_csr() as csr:
            result = run(scenario_from_dict(doc))
        assert result.metadata["steps"] > 0
        assert csr.call_count == 0

    @pytest.mark.parametrize("mirror", [False, True])
    def test_first_read_builds_all_four_once(self, mirror):
        pair = build_sbp_pair(StaggeredGrid1d(-1.0, 1.0, 16, mirror=mirror))
        with counting_csr() as csr:
            d_odd = pair.d_odd
            assert csr.call_count == 2  # Q^o and Q^e; D^o and D^e are their row-scaled copies
            mats = (pair.q_odd, pair.q_even, pair.d_odd, pair.d_even)
            assert all(sp.issparse(m) and m.format == "csr" for m in mats)
            assert mats[2] is d_odd and pair.q_odd is mats[0]
        assert csr.call_count == 2
        n_odd, n_even = pair.p_odd.size, pair.p_even.size
        assert pair.q_odd.shape == pair.d_odd.shape == (n_odd, n_even)
        assert pair.q_even.shape == pair.d_even.shape == (n_even, n_odd)
        # D = P^-1 Q row by row, and every row outside the corners is the stencil
        np.testing.assert_array_equal(pair.d_odd.toarray(), pair.q_odd.toarray() / pair.p_odd[:, None])
        interior = np.ones(n_odd, dtype=bool)
        for corner in pair.corners_odd:
            interior[corner.rows] = False
        stencil = pair.grid.h * pair.d_odd.toarray()[interior]
        assert np.array_equal(np.sort(stencil, axis=1)[:, [0, -1]], np.tile([-1.0, 1.0], (interior.sum(), 1)))

    def test_nodes_are_computed_once_and_read_only(self):
        for grid in (StaggeredGrid1d(0.0, 1.0, 10), StaggeredGrid1d(-1.0, 1.0, 10, mirror=True)):
            for name in ("x_odd", "x_even"):
                nodes = getattr(grid, name)
                assert getattr(grid, name) is nodes
                assert not nodes.flags.writeable
                with pytest.raises(ValueError):
                    nodes[0] = 5.0
                with pytest.raises(ValueError):
                    nodes += 1.0


class TestSatPenalties:
    def test_alpha_zero(self):
        # the high face's penalties: no odd-side term, tau^e = Ahat^T
        a_hat = np.array([[0.577, -0.258, 0.447]])
        tau_odd, tau_even = sat_penalties(np.array([[1.5]]), a_hat, 0.0)
        np.testing.assert_array_equal(tau_odd, [[0.0]])
        np.testing.assert_allclose(tau_even, a_hat.T)

    def test_alpha_one_scalar(self):
        tau_odd, tau_even = sat_penalties(np.array([[1.5]]), np.array([[0.5]]), 1.0)
        assert tau_odd[0, 0] == pytest.approx(-2.0 / 3.0, abs=1e-14)
        np.testing.assert_allclose(tau_even, 0.0, atol=1e-14)

    def test_rejects_alpha_outside_family(self):
        with pytest.raises(ValidationError, match="stability"):
            sat_penalties(np.array([[1.5]]), np.array([[0.5]]), 1.5)
        with pytest.raises(ValidationError):
            sat_penalties(np.array([[1.5]]), np.array([[0.5]]), -0.1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_admissibility_random_spd(self, alpha):
        rng = np.random.default_rng(2)
        for r in (1, 3, 10):
            m = rng.standard_normal((r, r))
            l_mat = m @ m.T + 0.1 * np.eye(r)
            a_hat = rng.standard_normal((r, r + 3))
            tau_odd = sat_penalties(l_mat, a_hat, alpha)[0]
            ev = np.linalg.eigvalsh(0.5 * (tau_odd + tau_odd.T))
            assert ev.max() <= 1e-12  # negative semidefinite
            cond = l_mat @ (-tau_odd.T) @ l_mat - l_mat
            assert np.linalg.eigvalsh(0.5 * (cond + cond.T)).max() <= 1e-12

    def test_tied_even_penalty_cancels_bilinear_terms(self):
        # on the high face (tau^e)^T - (Ahat + tau^o L Ahat) must vanish by construction
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        l_mat = m @ m.T + 0.2 * np.eye(4)
        a_hat = rng.standard_normal((4, 7))
        tau_odd, tau_even = sat_penalties(l_mat, a_hat, 0.7)
        tied = (a_hat + tau_odd @ l_mat @ a_hat).T
        np.testing.assert_allclose(tau_even, tied, atol=1e-13)
        # closed form (1 - alpha) Ahat^T: exactly zero at alpha = 1
        assert np.all(sat_penalties(l_mat, a_hat, 1.0)[1] == 0.0)
        np.testing.assert_array_equal(sat_penalties(l_mat, a_hat, 0.5)[1], 0.5 * a_hat.T)


class TestTensorGrid:
    def test_norm_matches_integral(self):
        tg = TensorGrid.build((1, 3), (StaggeredGrid1d(0, 1, 16), StaggeredGrid1d(0, 2, 16)))
        w = tg.weights(("e", "o"))
        assert w.shape == tg.family_shape(("e", "o"))
        assert w.sum() == pytest.approx(2.0, abs=1e-12)

    def test_boundary_weight_tables(self):
        tg = TensorGrid.build((1, 3), (StaggeredGrid1d(0, 1, 8), StaggeredGrid1d(0, 1, 8)))
        w = tg.boundary_weight(("o", "e"), 0)
        np.testing.assert_allclose(w, tg.axis_weights(1, "e"))
        assert tg.boundary_weight(("o", "e"), 1).shape == (9,)

    def test_family_complement(self):
        tg = TensorGrid.build((1, 3), (StaggeredGrid1d(0, 1, 8), StaggeredGrid1d(0, 1, 8)))
        assert tg.complement(("o", "e"), 0) == ("e", "e")
        assert tg.complement(("o", "e"), 1) == ("o", "o")
