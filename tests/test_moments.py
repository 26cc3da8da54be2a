import math

import numpy as np
import pytest

from conftest import build_full_setup, bundled_doc, golden_sector
from pnsat.config import scenario_from_dict
from pnsat.errors import ValidationError
from pnsat.moments import (
    MomentBasis,
    ScatteringSpectrum,
    assemble_transport,
    dump_moment_table,
    legendre_moments,
    load_moment_table,
    recursion_check,
    scattering_diagonal,
)
from pnsat.sphharm import build_quadrature, eval_basis, flat_position


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestMomentBasis:
    def test_dims(self):
        b = MomentBasis.build(13)
        assert b.dim == 196
        assert b.n_odd == 91
        assert b.n_even == 105

    def test_permutation_bijection(self):
        b = MomentBasis.build(6)
        for axis in (1, 2, 3):
            perm = b.permutation(axis)
            assert sorted(perm.tolist()) == list(range(b.dim))
            inv = np.empty_like(perm)
            inv[perm] = np.arange(b.dim)
            np.testing.assert_array_equal(perm[inv[perm]], perm)

    def test_family_partition(self):
        # the parity families of an x-z run on the full basis partition it by their parities
        doc = bundled_doc("tc3_vacuum")
        doc["model"]["N"] = 4
        setup = build_full_setup(scenario_from_dict(doc))
        b = setup.basis
        assert len(setup.comps) == 4
        all_idx = np.sort(np.concatenate(list(setup.comps.values())))
        np.testing.assert_array_equal(all_idx, np.arange(b.dim))
        for a, idx in setup.comps.items():
            for axis, p in zip((1, 3), a):
                assert np.all((b.parity[axis - 1, idx] < 0) == (p == "o"))


class TestTransportAssembly:
    def test_symmetry(self, system5):
        for a in system5.a_full:
            assert np.abs(a - a.T).max() < 1e-12

    def test_golden_coupling_row(self, basis2, system2):
        rows, cols = golden_sector(basis2)
        a_hat = system2.a_hat_block(1, rows, cols).ravel()
        np.testing.assert_allclose(
            a_hat,
            [1.0 / math.sqrt(3.0), -1.0 / math.sqrt(15.0), 1.0 / math.sqrt(5.0)],
            atol=1e-13,
        )

    def test_mean_flux_coupling_z(self):
        basis = MomentBasis.build(1)
        system = assemble_transport(basis)
        i, j = flat_position(1, 0), flat_position(0, 0)
        assert system.a_full[2][i, j] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)

    def test_mean_mean_entry_zero(self, system5):
        for a in system5.a_full:
            assert abs(a[0, 0]) < 1e-15

    def test_block_purity(self, basis5, system5):
        for axis in (1, 2, 3):
            odd = basis5.odd_positions(axis)
            even = basis5.even_positions(axis)
            a = system5.a_full[axis - 1]
            assert np.abs(a[np.ix_(odd, odd)]).max() < 1e-13
            assert np.abs(a[np.ix_(even, even)]).max() < 1e-13

    def test_tampered_assembly_detected(self, basis2):
        from pnsat.checks import check_block_purity, check_golden_coupling

        system = assemble_transport(basis2)
        bad_full = tuple(a.copy() for a in system.a_full)
        bad_full[0][0, 0] = 0.3  # same-parity entry: breaks the block structure
        tampered = type(system)(basis2, bad_full, system.a_hat)
        assert not check_block_purity(system=tampered).passed
        bad_full2 = tuple(a.copy() for a in system.a_full)
        i, j = flat_position(1, 1), flat_position(0, 0)
        bad_full2[0][i, j] += 1e-3
        tampered2 = type(system)(basis2, bad_full2, system.a_hat)
        assert not check_golden_coupling(system=tampered2).passed

    def test_structural_zeros_exact(self):
        # omega_i Y_l couples only degrees l +- 1 and opposite axis-i parity: every other entry is 0.0
        basis = MomentBasis.build(13)
        system = assemble_transport(basis)
        degrees = basis.degrees
        far = np.abs(np.subtract.outer(degrees, degrees)) != 1
        for axis in (1, 2, 3):
            a = system.a_full[axis - 1]
            assert np.all(a[far] == 0.0)
            for pos in (basis.odd_positions(axis), basis.even_positions(axis)):
                assert np.all(a[np.ix_(pos, pos)] == 0.0)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_spectrum_symmetric_with_kernel(self, n):
        system = assemble_transport(MomentBasis.build(n))
        for axis in (1, 2, 3):
            ev = np.sort(np.linalg.eigvalsh(system.a_full[axis - 1]))
            np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)
            assert int(np.sum(np.abs(ev) < 1e-10)) == n + 1

    def test_full_row_rank(self):
        system = assemble_transport(MomentBasis.build(13))
        for axis in (1, 2, 3):
            sv = np.linalg.svd(system.a_hat[axis - 1], compute_uv=False)
            assert sv[-1] > 1e-10

    def test_max_speed_below_one(self, system5):
        assert system5.max_speed() < 1.0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_max_speed_is_the_largest_singular_value(self, n):
        # the closed form (largest root of P_{N+1}) against an SVD of each axis's Ahat; the
        # SVD itself strays up to about 10 ulps from the root at these sizes
        system = assemble_transport(MomentBasis.build(n))
        speed = system.max_speed()
        for axis in (1, 2, 3):
            sv = np.linalg.svd(system.a_hat[axis - 1], compute_uv=False)[0]
            assert abs(speed - sv) <= 1e-14 * sv

    @pytest.mark.parametrize("n", [1, 3, 7, 13, 20])
    def test_max_speed_is_the_legendre_root_to_an_ulp(self, n):
        mpmath = pytest.importorskip("mpmath")
        speed = assemble_transport(MomentBasis.build(n)).max_speed()
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda x: mpmath.legendre(n + 1, x), speed)
            assert abs(mpmath.mpf(speed) - root) <= np.spacing(speed)


class TestRecursion:
    def test_residual_small_random(self, system5):
        dirs = random_directions(100, seed=5)
        for axis in (1, 2, 3):
            assert recursion_check(system5, axis, dirs) < 1e-12

    def test_residual_at_pole(self):
        system = assemble_transport(MomentBasis.build(3))
        assert recursion_check(system, 1, np.array([1.0, 0.0, 0.0])) < 1e-12

    def test_degenerate_order_zero(self):
        system = assemble_transport(MomentBasis.build(0))
        assert recursion_check(system, 3, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_z_axis_closed_form(self):
        # the closed-form A^(i) of every axis against full-sphere quadrature of <omega_i Y, Y^T>
        for n in (1, 2, 5, 13):
            system = assemble_transport(MomentBasis.build(n))
            quad = build_quadrature(n)
            y = eval_basis(n, quad.nodes)
            for axis in (1, 2, 3):
                want = y.T @ ((quad.weights * quad.nodes[:, axis - 1])[:, None] * y)
                np.testing.assert_allclose(system.a_full[axis - 1], want, rtol=0.0, atol=1e-13)


class TestScattering:
    def test_isotropic_conservation(self):
        basis = MomentBasis.build(4)
        q = scattering_diagonal(ScatteringSpectrum.isotropic(3.0, 4), basis)
        assert q[0] == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(q[1:], -3.0, atol=1e-14)

    def test_hg_moment(self):
        basis = MomentBasis.build(4)
        q = scattering_diagonal(ScatteringSpectrum.henyey_greenstein(1.0, 0.5, 4), basis)
        assert q[flat_position(2, 0)] == pytest.approx(-0.75, abs=1e-14)
        assert q[flat_position(2, -2)] == pytest.approx(-0.75, abs=1e-14)  # k-independent

    def test_hg_moments_match_quadrature_oracle(self):
        # brute-force Legendre projection of the HG kernel against g^l
        g = 0.37
        def hg(c):
            return (1.0 - g * g) / (4.0 * math.pi * (1.0 + g * g - 2.0 * g * c) ** 1.5)
        mom = legendre_moments(hg, 6)
        np.testing.assert_allclose(mom, g ** np.arange(7), atol=1e-12)

    def test_rejects_amplifying_spectrum(self):
        with pytest.raises(ValidationError):
            ScatteringSpectrum(1.0, np.array([2.0, 0.0]))

    def test_rejects_bad_moment_ordering(self):
        with pytest.raises(ValidationError):
            ScatteringSpectrum(5.0, np.array([1.0, 3.0]))

    def test_all_entries_nonpositive(self):
        basis = MomentBasis.build(6)
        spec = ScatteringSpectrum.henyey_greenstein(0.8, -0.4, 6, sigma_t=1.1)
        q = scattering_diagonal(spec, basis)
        assert np.all(q <= 1e-15)

    def test_table_roundtrip(self, tmp_path):
        spec = ScatteringSpectrum.henyey_greenstein(0.8, 0.3, 5, sigma_t=1.0)
        path = tmp_path / "kernel.txt"
        dump_moment_table(spec, path)
        back = load_moment_table(path)
        assert back.sigma_t == spec.sigma_t
        np.testing.assert_array_equal(back.moments, spec.moments)

    def test_equal_spectra_hash_equal(self):
        a, b = ScatteringSpectrum.none(2), ScatteringSpectrum.none(2)
        assert a == b and hash(a) == hash(b)
        assert ScatteringSpectrum.none(2) != ScatteringSpectrum.none(3)
        signed = ScatteringSpectrum(0.0, np.array([-0.0, 0.0]), 0.0)
        assert signed == ScatteringSpectrum.none(1) and hash(signed) == hash(ScatteringSpectrum.none(1))

    def test_table_requires_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0\n1 0.5\n")
        with pytest.raises(ValidationError):
            load_moment_table(path)
