import math

import numpy as np
import pytest

from oracles import (
    DeformedFamily,
    biorth_gram_moments,
    construction_equivalence_per_mode,
    dual_coeffs,
    exp_contraction_loop,
    expanded_monomial_loop,
    norm_identity_deviation_moments,
    poly_allclose,
)
from pblab import acceptance, deformed, indexing
from pblab.deformed import (
    biorth_gram,
    combine_sector,
    deformed_coeffs,
    deformed_sector,
    deformed_via_rep,
    dual_norm_sq,
    family_values,
    norm_bound_violation,
    norm_bounds,
    norm_identity_deviation,
    norm_sq,
    norm_sq_inner,
    riesz_growth,
)
from pblab.gl2 import GL2Matrix, dual, random_gl2, rep_block, rep_full
from pblab.hermite import PolyCoeffs, hermite_coeffs, hermite_sector
from pblab.quadrature import tensor_hermite_scheme

SHEAR = GL2Matrix(1, 1, 0, 1)


def _gram_matrices():
    """The shear, diag(2, 1) and three seeded draws."""
    rng = np.random.default_rng(6)
    return [SHEAR, GL2Matrix.diagonal(2, 1)] + [random_gl2(rng) for _ in range(3)]


class TestDeformedCoeffs:
    def test_identity_recovers_hermite(self):
        for n1, n2 in [(0, 0), (1, 0), (2, 1), (3, 3)]:
            assert poly_allclose(deformed_coeffs(GL2Matrix.identity(), n1, n2), hermite_coeffs(n1, n2))

    def test_diagonal_g_first_mode(self):
        out = deformed_coeffs(GL2Matrix.diagonal(2, 1), 1, 0)
        assert poly_allclose(out, PolyCoeffs([[0], [2]]))  # 2z

    def test_shear_second_mode(self):
        out = deformed_coeffs(SHEAR, 0, 1)
        assert poly_allclose(out, PolyCoeffs([[0, 1], [1, 0]]))  # z + zbar

    def test_two_routes_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_gl2(rng)
            for L in range(7):
                for n1 in range(L + 1):
                    direct = deformed_coeffs(g, n1, L - n1)
                    via_rep = deformed_via_rep(g, n1, L - n1)
                    assert poly_allclose(direct, via_rep, atol=1e-10)

    def test_family_build(self):
        fam = DeformedFamily.build(SHEAR, 3)
        assert len(fam.coeffs) == indexing.dim(3)
        key = indexing.ModeIndex(1, 1)
        assert poly_allclose(fam.coeffs[key], deformed_coeffs(SHEAR, 1, 1))
        assert poly_allclose(fam.dual_coeffs[key], dual_coeffs(SHEAR, 1, 1))

    def test_pre_image_is_homogeneous(self):
        # the deformed polynomial of total degree L has top part of degree
        # exactly L and only same-parity lower terms created by contraction
        p = deformed_coeffs(SHEAR, 2, 1)
        degs = {
            j + k
            for j in range(p.coeff.shape[0])
            for k in range(p.coeff.shape[1])
            if abs(p.coeff[j, k]) > 1e-14
        }
        assert max(degs) == 3
        assert all((3 - d) % 2 == 0 for d in degs)


def _bits(x):
    return np.asarray(x, dtype=complex).view(float)


class TestSectorStacks:
    # the stacked routes must reproduce the per-mode ones bit for bit, so
    # that criterion 2 reads the same deviation as its mode-by-mode loop
    DEFORMATIONS = _gram_matrices()

    @pytest.mark.parametrize("g", DEFORMATIONS, ids=range(5))
    def test_expanded_monomials_match_scalar_products(self, g):
        for L in (0, 3, 8, 12):
            stack = deformed._expanded_monomials(g, L, range(L + 1))
            for n1, grid in enumerate(stack):
                assert np.array_equal(_bits(grid), _bits(expanded_monomial_loop(g, n1, L - n1)))

    @pytest.mark.parametrize("g", DEFORMATIONS, ids=range(5))
    def test_contraction_of_deformed_monomials_matches_loop(self, g):
        for L in (1, 5, 9):
            contracted = deformed_sector(g, L, range(L + 1))
            for n1, got in enumerate(contracted):
                ref = exp_contraction_loop(expanded_monomial_loop(g, n1, L - n1))
                assert np.array_equal(_bits(got), _bits(ref))

    @pytest.mark.parametrize("g", DEFORMATIONS, ids=range(5))
    def test_stacked_routes_match_per_mode_routes(self, g):
        for L in range(9):
            direct = deformed_sector(g, L, range(L + 1))
            via_rep = combine_sector(rep_full(g, 8).blocks[L], hermite_sector(L))
            for n1 in range(L + 1):
                a, b = deformed_coeffs(g, n1, L - n1).coeff, deformed_via_rep(g, n1, L - n1).coeff
                assert np.array_equal(_bits(direct[n1][: a.shape[0], : a.shape[1]]), _bits(a))
                assert np.array_equal(_bits(via_rep[n1][: b.shape[0], : b.shape[1]]), _bits(b))

    @pytest.mark.parametrize("g", DEFORMATIONS, ids=range(5))
    def test_cached_hermite_sector_leaves_via_rep_unchanged(self, g):
        for L in (0, 4, 10, 12):
            stack = hermite_sector(L)
            assert hermite_sector(L) is stack and not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1
            fresh = hermite_sector.__wrapped__(L)  # built anew, bypassing the cache
            assert np.array_equal(_bits(stack), _bits(fresh))
            for n1 in range(L + 1):
                ref = PolyCoeffs(combine_sector(rep_block(g, L)[:, [n1]], fresh)[0]).coeff
                assert np.array_equal(_bits(deformed_via_rep(g, n1, L - n1).coeff), _bits(ref))

    def test_criterion_2_matches_the_per_mode_loop(self):
        stacked = acceptance.criterion_02_construction_equivalence().deviation
        assert stacked == construction_equivalence_per_mode() == 4.547473508864641e-12


class TestDualCoeffs:
    def test_identity(self):
        assert poly_allclose(dual_coeffs(GL2Matrix.identity(), 2, 2), hermite_coeffs(2, 2))

    def test_unitary_self_dual(self):
        u = GL2Matrix.from_array(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        for n1, n2 in [(1, 0), (2, 1)]:
            assert poly_allclose(dual_coeffs(u, n1, n2), deformed_coeffs(u, n1, n2), atol=1e-13)

    def test_diagonal(self):
        out = dual_coeffs(GL2Matrix.diagonal(2, 1), 1, 0)
        assert poly_allclose(out, PolyCoeffs([[0], [0.5]]))  # z/2

    def test_dual_of_dual_restores(self):
        rng = np.random.default_rng(1)
        g = random_gl2(rng)
        gdd = dual(dual(g))
        for n1, n2 in [(1, 1), (3, 2)]:
            assert poly_allclose(deformed_coeffs(gdd, n1, n2), deformed_coeffs(g, n1, n2), atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            GL2Matrix(1, 2, 2, 4)


class TestFamilyValues:
    NODES = tensor_hermite_scheme(5).nodes

    def test_recurrence_matches_coefficient_grids(self):
        # relative to the polynomial's largest node value, which reaches 680
        for g in _gram_matrices():
            vals = family_values(g, 4, self.NODES)
            for n in range(indexing.dim(4)):
                p = deformed_coeffs(g, *indexing.unflatten(n))
                ref = np.array([p(z) for z in self.NODES])
                assert np.max(np.abs(vals[n] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_identity_gives_hermite(self):
        vals = family_values(GL2Matrix.identity(), 4, self.NODES)
        for n in range(indexing.dim(4)):
            p = hermite_coeffs(*indexing.unflatten(n))
            assert np.max(np.abs(vals[n] - [p(z) for z in self.NODES])) <= 1e-13

    def test_scalar_point(self):
        z = 0.4 - 1.1j
        vals = family_values(SHEAR, 3, z)
        assert vals.shape == (indexing.dim(3),)
        assert vals[indexing.flatten(2, 1)] == pytest.approx(deformed_coeffs(SHEAR, 2, 1)(z), abs=1e-13)


class TestBiorthGram:
    def test_identity_exact(self):
        gram, dev = biorth_gram(GL2Matrix.identity(), 4)
        assert dev <= 1e-14
        assert np.allclose(gram, np.eye(indexing.dim(4)))

    def test_shear(self):
        _, dev = biorth_gram(SHEAR, 6)
        assert dev <= 1e-10

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            _, dev = biorth_gram(random_gl2(rng), 6)
            assert dev <= 1e-9

    def test_agrees_with_moment_oracle(self):
        # the moment sums stay accurate to L_max 6
        for g in _gram_matrices():
            for L_max in (2, 6):
                gram, _ = biorth_gram(g, L_max)
                assert np.max(np.abs(gram - biorth_gram_moments(g, L_max))) <= 1e-12

    def test_identity_at_L8(self):
        # against the identity: the moment oracle itself reads 2.5e-12 on the shear
        for g in _gram_matrices():
            _, dev = biorth_gram(g, 8)
            assert dev <= 1e-12

    def test_reaches_L20(self):
        g = random_gl2(np.random.default_rng(20), 0.8, 1.3)
        gram, dev = biorth_gram(g, 20)
        assert gram.shape == (indexing.dim(20),) * 2
        assert dev <= 1e-9


class TestNorms:
    def test_diagonal_leading_term_only(self):
        assert norm_sq(GL2Matrix.diagonal(2, 1), 2, 1) == pytest.approx(16.0)

    def test_identity_normalized(self):
        assert norm_sq(GL2Matrix.identity(), 4, 4) == pytest.approx(1.0)

    def test_shear_brute_qsum(self):
        assert norm_sq(SHEAR, 1, 1) == pytest.approx(3.0)
        assert dual_norm_sq(SHEAR, 1, 1) == pytest.approx(3.0)

    def test_rep_identity_vs_inner_route(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            g = random_gl2(rng)
            for L in (3, 8, 12):
                for n1 in range(0, L + 1, max(1, L // 3)):
                    a = norm_sq(g, n1, L - n1)
                    b = norm_sq_inner(g, n1, L - n1)
                    assert abs(a - b) <= 1e-10 * abs(a)


def _norm_identity_matrices():
    """The shear, diag(2, 1) and four seeded draws."""
    rng = np.random.default_rng(2)
    return [SHEAR, GL2Matrix.diagonal(2, 1)] + [random_gl2(rng) for _ in range(4)]


class TestNormIdentity:
    def test_exact_at_L16(self):
        # the moment oracle reads up to 7e-11 on these matrices
        for g in _norm_identity_matrices():
            assert norm_identity_deviation(g, range(17)) <= 1e-13
            assert norm_identity_deviation(g, (16,)) <= 1e-13

    def test_moment_oracle_also_holds(self):
        # criterion 4's degrees, where both routes certify the identity
        for g in _norm_identity_matrices():
            node = norm_identity_deviation(g, (2, 7, 12))
            moments = norm_identity_deviation_moments(g, (2, 7, 12))
            assert node <= 1e-13
            assert moments <= 1e-10

    def test_wrong_norm_is_detected(self, monkeypatch):
        real = deformed.norm_sq
        monkeypatch.setattr(deformed, "norm_sq", lambda g, n1, n2: real(g, n1, n2) * (1 + 1e-9 * (n1 == 3)))
        assert norm_identity_deviation(SHEAR, (2, 7)) == pytest.approx(1e-9, rel=1e-3)

    def test_nan_node_value_fails(self, monkeypatch):
        real = deformed.family_values

        def patched(g, L_max, z):
            values = real(g, L_max, z)
            values[-1, -1] = math.nan
            return values

        monkeypatch.setattr(deformed, "family_values", patched)
        assert math.isnan(norm_identity_deviation(SHEAR, (1, 4)))


class TestNormBounds:
    def test_shear_sandwich_values(self):
        nb = norm_bounds(SHEAR, 1, 1)
        assert nb.lower == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
        assert nb.upper == pytest.approx(4.0, rel=1e-12)
        assert nb.lower <= norm_sq(SHEAR, 1, 1) <= nb.upper

    def test_diagonal_case(self):
        nb = norm_bounds(GL2Matrix.diagonal(2, 1), 1, 1)
        assert nb.lower == pytest.approx(4 / math.sqrt(math.pi), rel=1e-12)
        assert nb.upper == pytest.approx(8.0, rel=1e-12)
        assert nb.lower <= norm_sq(GL2Matrix.diagonal(2, 1), 1, 1) <= nb.upper

    def test_dual_sandwich(self):
        nb = norm_bounds(SHEAR, 1, 1)
        val = dual_norm_sq(SHEAR, 1, 1)
        lower_dual, upper_dual = math.exp(nb.log_lower_dual), math.exp(nb.log_upper_dual)
        assert lower_dual == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
        assert upper_dual == pytest.approx(4.0, rel=1e-12)
        assert lower_dual <= val <= upper_dual

    def test_bound_violation_is_worst_log_gap_of_both_families(self):
        # the linear-domain closed forms as an independent route
        rng = np.random.default_rng(5)
        for g in (SHEAR, GL2Matrix.diagonal(2, 1), random_gl2(rng)):
            for n1, n2 in ((1, 1), (3, 5), (6, 2)):
                nb = norm_bounds(g, n1, n2)
                val, dval = math.log(norm_sq(g, n1, n2)), math.log(dual_norm_sq(g, n1, n2))
                gaps = (nb.log_lower - val, val - nb.log_upper, nb.log_lower_dual - dval, dval - nb.log_upper_dual)
                assert norm_bound_violation(g, n1, n2) == pytest.approx(max(gaps), abs=1e-12)

    def test_sector_call_equals_per_index_calls(self):
        rng = np.random.default_rng(5)
        for g in (SHEAR, GL2Matrix.diagonal(2, 1), random_gl2(rng), random_gl2(rng)):
            for L in (2, 10, 24, 40):
                n1 = np.arange(1, L)
                nb, violation = norm_bounds(g, n1, L - n1), norm_bound_violation(g, n1, L - n1)
                assert violation.shape == nb.log_lower.shape == n1.shape
                for i, m in enumerate(n1.tolist()):
                    one = norm_bounds(g, m, L - m)
                    for field in ("log_lower", "log_upper", "log_lower_dual", "log_upper_dual"):
                        assert getattr(nb, field)[i] == getattr(one, field)
                    assert violation[i] == pytest.approx(norm_bound_violation(g, m, L - m), abs=1e-12)

    def test_sandwich_log_domain_large_L(self):
        from pblab.gl2 import rep_diag_log

        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_gl2(rng)
            gram = g.gram()
            gram_inv = gram.inv()
            for L in (10, 24, 40):
                for n1 in range(4, L - 3, max(1, L // 4)):
                    nb = norm_bounds(g, n1, L - n1)
                    val = rep_diag_log(gram, n1, L - n1)
                    dval = rep_diag_log(gram_inv, n1, L - n1)
                    assert nb.log_lower - 1e-10 <= val <= nb.log_upper + 1e-10
                    assert nb.log_lower_dual - 1e-10 <= dval <= nb.log_upper_dual + 1e-10

    def test_min_zero_rejected(self):
        with pytest.raises(ValueError):
            norm_bounds(SHEAR, 0, 5)
        with pytest.raises(ValueError):
            norm_bound_violation(SHEAR, np.arange(0, 6), np.arange(5, -1, -1))


class TestRieszGrowth:
    def test_diagonal_product_is_one(self):
        rows = riesz_growth(GL2Matrix.diagonal(3, 0.5), [2, 10, 40])
        for row in rows:
            assert row["log_product"] == pytest.approx(0.0, abs=1e-10)

    def test_unitary_product_is_one(self):
        u = GL2Matrix.from_array(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        rows = riesz_growth(u, [4, 12])
        for row in rows:
            assert row["log_product"] == pytest.approx(0.0, abs=1e-10)

    def test_shear_strictly_increasing(self):
        rows = riesz_growth(SHEAR, [4, 8, 16])
        products = [r["log_product"] for r in rows]
        assert products[0] < products[1] < products[2]
        assert all(r["growth_ratio"] > 1 for r in rows[1:])

    def test_lower_bound_respected(self):
        rows = riesz_growth(SHEAR, [6, 20, 60])
        for row in rows:
            assert row["log_product"] >= row["log_lower_bound"] - 1e-10

    def test_growth_factor_at_L60_vs_L10(self):
        rows = riesz_growth(SHEAR, [10, 60])
        assert rows[1]["log_product"] - rows[0]["log_product"] >= 40 * math.log(2)
