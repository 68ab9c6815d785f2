import math

import numpy as np
import pytest

from pblab import displacement, indexing
from pblab.displacement import (
    bicoherent,
    canonical_displacement,
    coherent_coefficients,
    compose_check,
    covariance_check,
    displacement_radial,
    kernel,
    kernel_reproducing_check,
    norm_growth_certificate,
    norm_growth_check,
    radial_tail,
    resolution_check,
    wedge,
)
from pblab.fock import pseudo_pair
from pblab.gl2 import GL2Matrix, dual, random_gl2, rep_full
from pblab.quadrature import polar_scheme
from pblab.quantize import Weight, weight_diagonal_table, weight_operator_diag

from oracles import (
    bicoherent_norm_envelope,
    compose_check_full,
    covariance_check_full,
    displacement_closed_form,
    displacement_mpmath,
    laguerre,
    resolution_check_full,
    weight_operator_numeric,
)

SHEAR = GL2Matrix(1, 1, 0, 1)


class TestCanonicalElements:
    def test_low_order_closed_forms(self):
        z = 0.7 + 0.3j
        t = abs(z) ** 2
        D = canonical_displacement(z, 4)
        assert D[0, 0] == pytest.approx(math.exp(-t / 2))
        assert D[1, 0] == pytest.approx(z * math.exp(-t / 2))
        assert D[0, 1] == pytest.approx(-np.conj(z) * math.exp(-t / 2))

    def test_zero_displacement_is_identity(self):
        assert np.array_equal(canonical_displacement(0.0, 12), np.eye(12))

    def test_diagonal_bounded_by_one(self):
        for z in (0.3, 1.0 + 1.0j, 2.5j):
            D = canonical_displacement(z, 30)
            assert np.max(np.abs(np.diag(D))) <= 1.0 + 1e-15

    def test_unitarity_on_inner_block(self):
        z = 0.9 - 0.4j
        D = canonical_displacement(z, 120)
        dev = np.max(np.abs((D.conj().T @ D - np.eye(120))[:40, :40]))
        assert dev <= 1e-12

    def test_elements_match_explicit_laguerre_sum(self):
        # the two branches against the standalone finite-sum polynomial,
        # including the negative-superscript reflection
        for z in (0.3, 1.0, 2.0, 0.5 + 0.4j):
            t = abs(z) ** 2
            D = canonical_displacement(z, 13)
            for m in range(13):
                for n in range(13):
                    if m >= n:
                        ref = (
                            math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
                            * math.exp(-t / 2)
                            * z ** (m - n)
                            * laguerre(n, m - n, t)
                        )
                    else:
                        ref = (
                            math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)))
                            * math.exp(-t / 2)
                            * (-np.conj(z)) ** (n - m)
                            * laguerre(m, n - m, t)
                        )
                    assert D[m, n] == pytest.approx(ref, abs=1e-10)

    def test_branch_reflection_consistency(self):
        # both printed branches evaluate identically when the
        # negative-superscript polynomial is used directly
        z = 1.3 + 0.2j
        t = abs(z) ** 2
        for m in range(13):
            for n in range(13):
                if z == 0:
                    continue
                via_first = (
                    math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
                    * z ** (m - n)
                    * laguerre(n, m - n, t)
                )
                via_second = (
                    math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)))
                    * (-np.conj(z)) ** (n - m)
                    * laguerre(m, n - m, t)
                )
                assert via_first == pytest.approx(via_second, rel=1e-9, abs=1e-12)

    def test_dual_pairing_identity(self):
        # canonical pairing D(-z)^dag = D(z): the unitary displacement is its
        # own dual
        z = 0.8 + 0.1j
        lhs = canonical_displacement(-z, 25).conj().T
        assert np.max(np.abs(lhs - canonical_displacement(z, 25))) <= 1e-12


# Entries where the double-precision closed form fails: it reads NaN or inf,
# or 0 where |D| > 1e-3 (found by evaluating it on the full matrix).
FORMERLY_BAD = {
    (1081, 1 + 0.5j): [(1079, 631), (1080, 421), (1079, 525)],
    (1081, 3 - 2j): [(1078, 673), (668, 1076), (672, 1079), (1009, 791), (940, 718), (1066, 841)],
    (1891, 1 + 0.5j): [(1835, 1594), (1615, 1856), (1604, 1845)],
    (1891, 3 - 2j): [(1353, 1625), (1316, 1586), (1613, 1341), (1646, 1428), (1407, 1157), (892, 1121)],
}


class TestLaguerreRoute:
    @pytest.mark.parametrize("dim, z", list(FORMERLY_BAD))
    def test_large_dim_finite_and_matches_reference(self, dim, z):
        D = canonical_displacement(z, dim)
        assert np.all(np.isfinite(D))
        bad = FORMERLY_BAD[(dim, z)]
        old = displacement_closed_form(z, *np.transpose(bad))
        assert np.all(~np.isfinite(old) | (old == 0))
        rng = np.random.default_rng(dim)
        picks = [tuple(ij) for ij in rng.integers(0, dim, size=(12, 2))] + [(833, 1049)] + bad
        for m, n in picks:
            assert abs(D[m, n] - displacement_mpmath(z, m, n)) <= 1e-13, (m, n)

    @pytest.mark.parametrize("z", [0.7 + 0.2j, 1 + 0.5j, 3 - 2j, -2 + 1j])
    def test_matches_closed_form_where_it_holds(self, z):
        for L_max in (10, 20, 30):
            d = indexing.dim(L_max)
            m, n = np.indices((d, d))
            ref = displacement_closed_form(z, m, n)
            assert np.max(np.abs(canonical_displacement(z, d) - ref)) <= 1e-12

    @pytest.mark.parametrize("dim, z", [(1891, 40.0), (1891, 30 + 60j), (500, 45j)])
    def test_large_argument_matches_reference(self, dim, z):
        # e^{-|z|^2/2} underflows here, yet entries with n ~ |z|^2/4 are O(0.1)
        D = canonical_displacement(z, dim)
        assert np.all(np.isfinite(D))
        rng = np.random.default_rng(dim)
        picks = [tuple(ij) for ij in rng.integers(0, dim, size=(12, 2))] + [(dim - 1, dim - 1), (dim // 2, dim // 2 - 3)]
        for m, n in picks:
            assert abs(D[m, n] - displacement_mpmath(z, m, n)) <= 1e-13, (m, n)
        assert np.max(np.abs(D)) > 1e-3

    def test_radial_table_over_an_array_of_t(self):
        t = np.array([0.0, 0.3, 2.5, 40.0])
        table = displacement_radial(t, 20)
        assert table.shape == (4, 20, 20)
        for i, ti in enumerate(t):
            assert np.array_equal(table[i], displacement_radial(ti, 20))
        assert np.array_equal(table[0], np.eye(20))

    def test_radial_strip_over_an_array_of_t(self):
        t = np.array([0.0, 0.3, 2.5, 40.0])
        strip = displacement_radial(t, 20, 7)
        assert strip.shape == (4, 20, 7)
        assert np.array_equal(strip, displacement_radial(t, 20)[..., :7])

    # at |z| = 40 the recurrence rescales from column 120 on, so k = 200 and
    # k = dim cross the rescale and k = 1, 66 stop before it
    @pytest.mark.parametrize("dim", [496, 1081])
    @pytest.mark.parametrize("z", [0.7 + 0.2j, 3 - 2j, 40.0, 24 - 32j])
    def test_strip_is_the_full_matrix_bit_for_bit(self, dim, z):
        full = canonical_displacement(z, dim)
        for k in (1, 66, 200, dim):
            strip = canonical_displacement(z, dim, k)
            assert strip.shape == (dim, k)
            assert np.array_equal(strip.view(float), full[:, :k].view(float)), k
            rows = displacement._displacement_rows(z, dim, k)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows.view(float), full[:k].view(float)), k

    def test_strip_width_outside_the_matrix_rejected(self):
        for cols in (0, 21):
            with pytest.raises(ValueError):
                displacement_radial(1.0, 20, cols)

    def test_laws_at_L45(self):
        # the closed form returned NaN here
        z1, z2 = 3 - 2j, 0.5j
        for dev in (compose_check(z1, z2, 45, check_L=10), covariance_check(z1, z2, SHEAR, 45, check_L=10)):
            assert math.isfinite(dev) and dev <= 1e-10


class TestComposition:
    def test_group_law_small_arguments(self):
        assert compose_check(1.0, 1j, 30, check_L=10) <= 1e-6

    def test_inverse_law(self):
        z = 0.8 + 0.1j
        assert compose_check(z, -z, 30, check_L=10) <= 1e-6

    def test_real_arguments_phase_free(self):
        assert wedge(0.5, 0.7) == 0.0
        assert compose_check(0.5, 0.7, 30, check_L=10) <= 1e-6

    @pytest.mark.parametrize("L_max", [4, 12, 20, 30])
    def test_matches_full_product(self, L_max):
        # the library multiplies only the rows and columns of the checked corner
        for z1, z2 in [(1.0, 1j), (0.5, 0.7), (3 - 2j, 0.5j), (0.8 + 0.1j, -0.8 - 0.1j)]:
            for check_L in (0, L_max // 2, L_max - 1):
                dev = compose_check(z1, z2, L_max, check_L=check_L)
                assert abs(dev - compose_check_full(z1, z2, L_max, check_L)) <= 1e-15

    def test_check_sectors_outside_the_truncation_rejected(self):
        # sectors <= 10 at L_max 4 would cover the whole truncation
        for check in (
            lambda L: compose_check(1.0, 1j, 4, check_L=L),
            lambda L: covariance_check(1.0, 1j, SHEAR, 4, check_L=L),
        ):
            for bad in (10, 5, -1):
                with pytest.raises(ValueError):
                    check(bad)
            assert math.isfinite(check(4))

    def test_deviation_floor_reached_by_L20(self):
        devs = [compose_check(1.0, 1j, lm, check_L=10) for lm in (20, 30, 40)]
        # tail error is already below roundoff at L_max = 20: no growth allowed
        assert devs[0] <= 1e-12
        assert devs[1] <= devs[0] + 1e-12
        assert devs[2] <= devs[1] + 1e-12


class TestKernel:
    def test_unit_diagonal(self):
        for z in (0.0, 1 + 2j, -0.3j):
            assert kernel(z, z) == pytest.approx(1.0)

    def test_vacuum_slice(self):
        zp = 1j
        assert kernel(0, zp) == pytest.approx(math.exp(-0.5))

    def test_reproducing_property(self):
        assert kernel_reproducing_check(1.0, 1j) <= 1e-8
        assert kernel_reproducing_check(0.5 - 0.5j, 0.2 + 1j) <= 1e-8


class TestBiCoherent:
    def test_zero_parameter_is_vacuum(self):
        pair = bicoherent(0.0, SHEAR, 10, 1e-10)
        e0 = np.zeros(pair.phi_vec.shape[0])
        e0[0] = 1.0
        assert np.array_equal(pair.phi_vec, e0)
        assert np.array_equal(pair.psi_vec, e0)

    def test_overlap_is_one_within_tail(self):
        eps = 1e-10
        pair = bicoherent(1.0 + 0.5j, SHEAR, 20, eps)
        assert abs(pair.overlap() - 1.0) <= 10 * eps
        assert pair.tail_bound <= eps

    def test_lowering_eigenrelation(self):
        z = 1.0
        ops = pseudo_pair(SHEAR, 25)
        state = bicoherent(z, SHEAR, 25, 1e-12)
        sd = indexing.safe_dim(25)
        resid = (ops.a_op.mat @ state.phi_vec - z * state.phi_vec)[:sd]
        assert np.max(np.abs(resid)) <= 1e-7

    def test_dual_eigenrelation(self):
        z = 1.0
        ops = pseudo_pair(SHEAR, 25)
        state = bicoherent(z, SHEAR, 25, 1e-12)
        sd = indexing.safe_dim(25)
        resid = (ops.b_op.mat.conj().T @ state.psi_vec - z * state.psi_vec)[:sd]
        assert np.max(np.abs(resid)) <= 1e-7

    def test_unreachable_tail_reports_needed_cutoff(self):
        with pytest.raises(ValueError, match="raise L_max"):
            bicoherent(4.0, SHEAR, 4, 1e-12)

    def test_norm_envelope_bound(self):
        r = math.sqrt(3.0)  # tr of the shear Gram matrix
        for za in (0.5, 1.0, 2.0):
            state = bicoherent(za, SHEAR, 25, 1e-12)
            assert np.linalg.norm(state.phi_vec) ** 2 <= bicoherent_norm_envelope(za, r, 0.0)


class TestCovariance:
    def test_trivial_shift(self):
        assert covariance_check(0.7 + 0.2j, 0.0, SHEAR, 20, check_L=8) <= 1e-12

    def test_projective_covariance(self):
        assert covariance_check(1.0, 1j, SHEAR, 30, check_L=10) <= 1e-6

    def test_identity_deformation(self):
        assert covariance_check(0.5, 0.5j, GL2Matrix.identity(), 30, check_L=10) <= 1e-6

    @pytest.mark.parametrize("L_max", [4, 12, 20, 30])
    def test_matches_full_matrices(self, L_max):
        # the library applies the first rows of D(z) and T at check_L only
        g = GL2Matrix(1.2, 0.3 + 0.1j, 0.2, 0.9)
        for z, zp in [(1.0, 1j), (0.7 + 0.2j, 0.0), (3 - 2j, 0.5j), (0.8 + 0.1j, -0.8 - 0.1j)]:
            for check_L in (0, L_max // 2, L_max - 1):
                dev = covariance_check(z, zp, g, L_max, check_L=check_L)
                assert abs(dev - covariance_check_full(z, zp, g, L_max, check_L)) <= 1e-15


class TestResolution:
    def test_identity_deformation(self):
        assert resolution_check(GL2Matrix.identity(), 12) <= 1e-8

    def test_general_deformation(self):
        rng = np.random.default_rng(0)
        assert resolution_check(random_gl2(rng, 0.6, 1.8), 12) <= 1e-8

    def test_vacuum_entry(self):
        # single n = 0 diagonal entry is the normalization integral
        scheme = polar_scheme(16, 4)
        dev = resolution_check(GL2Matrix.identity(), 1, scheme=scheme)
        assert dev <= 1e-10

    @pytest.mark.parametrize("L_max", [0, 1, 5, 12])
    def test_equals_full_truncation(self, L_max):
        # sectors <= L_max/2 read only themselves: the check builds nothing above them
        rng = np.random.default_rng(9)
        for g in (GL2Matrix.identity(), SHEAR, random_gl2(rng, 0.6, 1.8)):
            for scheme in (polar_scheme(64, 64), polar_scheme(6, 6)):
                full = resolution_check_full(g, L_max, scheme)
                assert resolution_check(g, L_max, scheme=scheme) == pytest.approx(full, rel=1e-12, abs=1e-15)

    def test_radial_tail_diagnostic(self):
        # the 27-th moment keeps ~7% of its mass beyond |z| = 6, which is why
        # the plane integral must not be truncated at that radius
        assert radial_tail(27, 6.0) > 0.05
        assert radial_tail(27, 12.0) < 1e-12


class TestWeightOperator:
    def test_closed_form_special_points(self):
        assert weight_operator_diag(Weight(s=0.0), 3) == pytest.approx(-2.0)
        assert weight_operator_diag(Weight(s=0.0), 4) == pytest.approx(2.0)
        assert weight_operator_diag(Weight(s=-1.0), 0) == pytest.approx(1.0)
        for n in range(1, 5):
            assert weight_operator_diag(Weight(s=-1.0), n) == pytest.approx(0.0)
        assert weight_operator_diag(Weight(s=-3.0), 2) == pytest.approx(0.125)

    # at s = 0.9 the radial nodes reach |z|^2 ~ 4700, where e^{s|z|^2/2}
    # overflows and e^{-|z|^2/2} underflows; only their product is in range
    @pytest.mark.parametrize("s", [-3.0, -1.0, 0.0, 0.5, 0.9])
    def test_numeric_matches_closed_form(self, s):
        for n in range(11):
            closed = weight_operator_diag(Weight(s=s), n)
            numeric = weight_operator_numeric(Weight(s=s), n)
            assert abs(numeric - closed) <= 1e-6 * max(1.0, abs(closed))

    def test_table_rows(self):
        w = Weight(s=0.5)
        rows = weight_diagonal_table(w, 4)
        assert [row["n"] for row in rows] == list(range(5))
        for row in rows:
            closed = weight_operator_diag(w, row["n"])
            assert row["closed_form"] == closed
            assert row["numeric"] == weight_operator_numeric(w, row["n"])
            assert row["abs_err"] == abs(row["numeric"] - closed)
            assert row["rel_err"] == row["abs_err"] / max(1.0, abs(closed))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            weight_diagonal_table(Weight(s=0.0), -1)

    def test_divergent_s_rejected(self):
        # s < 1 is the weight's own rule, so no divergent weight reaches the diagonal
        with pytest.raises(ValueError):
            Weight(s=1.0)
        with pytest.raises(ValueError):
            Weight(s=1.5)

    def test_closed_form_rejects_a_drift(self):
        # 2/(1-s) ((s+1)/(s-1))^n is the diagonal of a weight without drift only
        with pytest.raises(ValueError, match="drift"):
            weight_operator_diag(Weight(0.3), 0)
        with pytest.raises(ValueError, match="drift"):
            weight_diagonal_table(Weight(beta=0.2 - 0.1j, s=-0.5), 3)


class TestNormGrowth:
    def test_canonical_family(self):
        assert norm_growth_check(np.ones(101), 1.0)

    def test_shear_family_with_trace_envelope(self):
        # flat index n sits in sector L ~ sqrt(2n), so norms grow like
        # (tr Gram)^{L/4} and the envelope r = sqrt(tr Gram) holds with
        # plenty of slack up to n = 104 (L_max = 13)
        Td = rep_full(SHEAR, 13).mat
        norms = np.linalg.norm(Td, axis=0)
        assert norm_growth_check(norms, math.sqrt(3.0))

    def test_certificate_reads_column_norms_from_blocks(self):
        g = random_gl2(np.random.default_rng(13))
        T = rep_full(g, 10)
        for op, gram in ((T, g.gram()), (rep_full(dual(g), 10), g.gram().inv())):
            norms, r, ok = norm_growth_certificate(op, gram)
            assert np.allclose(norms, np.linalg.norm(op.mat, axis=0), rtol=1e-15, atol=0)
            assert r == pytest.approx(math.sqrt((gram.g11 + gram.g22).real), rel=1e-15)
            assert ok == norm_growth_check(norms, r)

    def test_violation_detected(self):
        norms = np.ones(10)
        norms[7] = 3.0
        assert not norm_growth_check(norms, 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            norm_growth_check([1.0], 0.0)


def test_coherent_coefficients_normalized():
    v = coherent_coefficients(1.2 - 0.3j, 200)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_coherent_coefficients_over_an_array_of_points():
    z = np.array([[0.0, 1.2 - 0.3j], [-2j, 0.5]])
    V = coherent_coefficients(z, 30)
    assert V.shape == (30, 2, 2)
    for i, j in np.ndindex(z.shape):
        assert np.array_equal(V[:, i, j], coherent_coefficients(z[i, j], 30))
