import math

import numpy as np
import pytest
from scipy.special import eval_jacobi

from pblab.acceptance import SHEAR
from pblab.gl2 import (
    MAX_DEGREE,
    GL2Matrix,
    SectorOperator,
    dual,
    positive_invariants,
    random_gl2,
    rep_block,
    rep_diag,
    rep_diag_log,
    rep_full,
    star_deviation,
)

from oracles import (
    hyp2f1_terminating,
    jacobi_hyp,
    rep_block_loop,
    rep_block_mpmath,
    rep_blocks_complex128,
    rep_diag_log_mpmath,
    rep_diag_mpmath,
    rep_diag_qsum,
)


class TestGL2Matrix:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            GL2Matrix(1, 1, 1, 1)
        with pytest.raises(ValueError):
            GL2Matrix(0, 0, 0, 0)

    def test_det_and_inverse(self):
        g = GL2Matrix(2, 1, 1, 1)
        assert g.det == 1
        assert np.allclose((g @ g.inv()).as_array(), np.eye(2))

    def test_dagger(self):
        g = GL2Matrix(1j, 2, 3, 4 - 1j)
        assert np.allclose(g.dagger().as_array(), g.as_array().conj().T)

    def test_gram_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert random_gl2(rng).gram().is_positive_hermitian()

    def test_gram_built_once_with_the_same_bits(self):
        g = GL2Matrix(1.2, 0.3 + 0.1j, 0.2, 0.9)
        assert g.gram() is g.gram()
        assert np.array_equal(g.gram().as_array(), g.dagger().as_array() @ g.as_array())


class TestDual:
    def test_identity(self):
        assert np.allclose(dual(GL2Matrix.identity()).as_array(), np.eye(2))

    def test_diagonal(self):
        d = dual(GL2Matrix.diagonal(2, 1))
        assert np.allclose(d.as_array(), np.diag([0.5, 1.0]))

    def test_unitary_fixed(self):
        u = GL2Matrix.from_array(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        assert np.allclose(dual(u).as_array(), u.as_array(), atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_gl2(rng)
            assert np.allclose(dual(dual(g)).as_array(), g.as_array(), atol=1e-13)


_REF_RNG = np.random.default_rng(2024)
REFERENCE_DRAWS = [GL2Matrix(1, 1, 0, 1)] + [random_gl2(_REF_RNG) for _ in range(3)]
_NEAR_RNG, _WIDE_RNG = np.random.default_rng(40), np.random.default_rng(7)
_ROTATION = 1.01 * math.cos(math.pi / 4)
REACH_MATRICES = (
    [GL2Matrix(1, 1, 0, 1), GL2Matrix(2, 0, 0, 1)]
    + [random_gl2(_NEAR_RNG, 0.8, 1.3) for _ in range(3)]
    + [random_gl2(_WIDE_RNG) for _ in range(2)]
    + [GL2Matrix(_ROTATION, -_ROTATION, _ROTATION, _ROTATION)]
)


class TestRepBlock:
    def test_L0_is_scalar_one(self):
        assert np.allclose(rep_block(GL2Matrix(0.5, 2j, 1, 3), 0), [[1.0]])

    def test_L1_layout(self):
        g = GL2Matrix(1.5, -0.5j, 2.0, 0.75)
        expect = np.array([[g.g22, g.g21], [g.g12, g.g11]])
        assert np.allclose(rep_block(g, 1), expect)

    def test_identity_any_L(self):
        for L in [0, 1, 5, 9]:
            assert np.allclose(rep_block(GL2Matrix.identity(), L), np.eye(L + 1))

    def test_column_matches_operator_construction(self):
        # raising-operator route: phi^g_{2,0} = g11^2 phi_{2,0}
        #   + sqrt(2) g11 g21 phi_{1,1} + g21^2 phi_{0,2}
        g = GL2Matrix(1.3 + 0.2j, -0.4, 0.7j, 0.9)
        col = rep_block(g, 2)[:, 2]
        expect = np.array([g.g21**2, math.sqrt(2) * g.g11 * g.g21, g.g11**2])
        assert np.allclose(col, expect, atol=1e-14)

    def test_matches_loop_route_on_small_blocks(self):
        rng = np.random.default_rng(9)
        matrices = [GL2Matrix(1, 1, 0, 1), GL2Matrix(2, 0, 0, 3), GL2Matrix(0, 1, 1, 0)]
        matrices += [random_gl2(rng) for _ in range(5)]
        for g in matrices:
            for L in range(13):
                ref = rep_block_loop(g, L)
                dev = np.max(np.abs(rep_block(g, L) - ref)) / np.max(np.abs(ref))
                assert dev <= 1e-12, (g, L)

    @pytest.mark.parametrize("L", [40, 60])
    @pytest.mark.parametrize("g", REFERENCE_DRAWS, ids=["shear", "random0", "random1", "random2"])
    def test_no_worse_than_loop_against_50_digit_reference(self, g, L):
        # near-unitary draws cancel by up to ~1e-9 relative in the q-sum at
        # L = 60, so the bound is relative to the loop route's own error
        ref = rep_block_mpmath(g, L)
        scale = np.max(np.abs(ref))
        err_loop = np.max(np.abs(rep_block_loop(g, L) - ref)) / scale
        err = np.max(np.abs(rep_block(g, L) - ref)) / scale
        assert err <= 2 * max(err_loop, np.finfo(float).eps)

    @pytest.mark.parametrize(
        "g", REACH_MATRICES, ids=["shear", "diag21", "near0", "near1", "near2", "random0", "random1", "rotation"]
    )
    def test_L100_against_60_digit_reference(self, g):
        # summed directly, even with a 64-bit mantissa, the q-sum cancels to
        # about 1e-5 of the block maximum on the near-unitary matrices here;
        # the degree recursion's worst measured error is 1.7e-12
        ref = rep_block_mpmath(g, 100, dps=60)
        assert np.max(np.abs(rep_block(g, 100) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_star_law_at_L60_for_near_unitary_draws(self):
        # the q-sum summed directly in double precision cancels past the
        # 1e-10 bound of the benchmark's star-law check on about a third of
        # these draws
        rng = np.random.default_rng(31)
        for _ in range(16):
            assert star_deviation(random_gl2(rng, 0.8, 1.3), 60) <= 1e-10

    def test_star_law_at_L100_for_near_unitary_draws(self):
        # summed directly, even with a 64-bit mantissa, the q-sum fails 5 of
        # these draws (worst 1.0e-6); the recursion's worst is 4.8e-13
        rng = np.random.default_rng(0)
        for _ in range(16):
            assert star_deviation(random_gl2(rng, 0.8, 1.3), 100) <= 1e-10

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = random_gl2(rng), random_gl2(rng)
            for L in (1, 4, 12):
                ta, tb, tab = rep_block(a, L), rep_block(b, L), rep_block(a @ b, L)
                scale = max(1.0, float(np.max(np.abs(tab))))
                assert np.max(np.abs(ta @ tb - tab)) <= 1e-10 * scale


class TestRepDiag:
    def test_diagonal_h_only_leading_term(self):
        assert rep_diag(GL2Matrix.diagonal(4, 1), 2, 1) == pytest.approx(16.0)

    def test_brute_qsum_example(self):
        h = GL2Matrix(2, 1, 1, 1)
        assert rep_diag(h, 1, 1) == pytest.approx(3.0)
        assert rep_diag_qsum(h, 1, 1) == pytest.approx(3.0)

    def test_identity(self):
        for n1, n2 in [(0, 0), (3, 5), (7, 2)]:
            assert rep_diag(GL2Matrix.identity(), n1, n2) == pytest.approx(1.0)

    def test_jacobi_form_matches_block_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = random_gl2(rng).gram()
            for L in (2, 8, 14, 20):
                block = rep_block(h, L)
                for n1 in range(L + 1):
                    ref = block[n1, n1]
                    val = rep_diag(h, n1, L - n1)
                    assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_general_complex_h_cross_check(self):
        rng = np.random.default_rng(2)
        pairs = [(0, 3), (2, 2), (4, 1), (5, 5)]
        for _ in range(10):
            h = random_gl2(rng)
            for a, pair in zip(rep_diag(h, *np.array(pairs).T), pairs):
                b = rep_diag_qsum(h, *pair)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_against_40_digit_sum_on_criterion_4_matrices(self):
        # g^dag g and its inverse of criterion 4's matrices, one call per sector
        rng = np.random.default_rng(2)
        matrices = [SHEAR, GL2Matrix.diagonal(2, 1)] + [random_gl2(rng) for _ in range(20)]
        for g in matrices:
            for h in (g.gram(), g.gram().inv()):
                for L in (2, 7, 12, 30):
                    n1 = np.arange(L + 1)
                    for m, val in zip(n1.tolist(), rep_diag(h, n1, L - n1)):
                        ref = rep_diag_mpmath(h, m, L - m)
                        assert abs(val - ref) <= 4e-15 * abs(ref), (g, m, L)

    def test_jacobi_form_on_positive_h(self):
        # det^n1 h22^(n2-n1) P_n1^(0, n2-n1)(1 + 2 h12 h21 / det), n1 <= n2
        rng = np.random.default_rng(9)
        for _ in range(5):
            h = random_gl2(rng).gram()
            det, h22 = h.det.real, h.g22.real
            x = 1 + 2 * abs(h.g12) ** 2 / det
            for L in (1, 6, 15, 30):
                n1 = np.arange(L // 2 + 1)
                got = rep_diag(h, n1, L - n1)
                for m, val in zip(n1.tolist(), got):
                    beta = L - 2 * m
                    ref = det**m * h22**beta * eval_jacobi(m, 0, beta, x)
                    assert val == pytest.approx(ref, rel=1e-13)
                    assert val == pytest.approx(det**m * h22**beta * jacobi_hyp(m, 0, beta, x), rel=1e-13)

    def test_array_call_matches_scalar_calls(self):
        # the calls may sum in another order; the modulus sum, the diagonal of
        # the entrywise |h|, scales that rounding where the terms cancel
        rng = np.random.default_rng(10)
        for h in (random_gl2(rng), random_gl2(rng).gram(), GL2Matrix(1, 1, 0, 1)):
            modulus = GL2Matrix.from_array(np.abs(h.as_array()))
            n1 = np.arange(0, 41, 5)
            got = rep_diag(h, n1[:, None], np.array([0, 3, 40]))
            assert got.shape == (len(n1), 3) and got.dtype == complex
            for i, a in enumerate(n1.tolist()):
                for j, b in enumerate((0, 3, 40)):
                    one = rep_diag(h, a, b)
                    assert np.ndim(one) == 0 and isinstance(one, complex)
                    assert abs(got[i, j] - one) <= 1e-14 * abs(rep_diag(modulus, a, b))

    def test_negative_indices_rejected(self):
        h = GL2Matrix(2, 1, 1, 1)
        for n1, n2 in [(-1, 0), (0, -2), ([1, -1], 2)]:
            with pytest.raises(ValueError):
                rep_diag(h, n1, n2)

    def test_powers_stay_in_range_where_the_value_does(self):
        # h11^62 alone overflows; the value is 1, and a RuntimeWarning fails the test
        h = GL2Matrix.diagonal(1e5, 1e-5)
        assert rep_diag(h, 62, 62) == 1
        assert rep_diag(h, [62, 63], [63, 62]) == pytest.approx([1e-5, 1e5], rel=1e-15)

    def test_zero_diagonal_h_and_n1_above_n2(self):
        swap = GL2Matrix(0, 1, 1, 0)
        L = 9
        n1 = np.arange(L + 1)
        assert np.array_equal(rep_diag(swap, n1, L - n1), np.diagonal(rep_block(swap, L)))
        assert rep_diag(swap, 3, 3) == 1 and rep_diag(swap, 4, 2) == 0
        h = random_gl2(np.random.default_rng(11))
        for L in (5, 12):
            n1 = np.arange(L + 1)
            block = np.diagonal(rep_block(h, L))
            got = rep_diag(h, n1, L - n1)
            assert np.all(np.abs(got - block) <= 1e-12 * np.abs(block))
            for m in range(L // 2 + 1, L + 1):  # n1 > n2
                ref = rep_diag_qsum(h, m, L - m)
                assert abs(got[m] - ref) <= 1e-12 * abs(ref)

    def test_symmetric_hypergeometric_variant_agrees(self):
        # h11^n1 h22^n2 2F1(-n1, -n2; 1; r) with r = |h12|^2/(h11 h22) is the
        # expanded symmetric form of the diagonal
        h = GL2Matrix(2, 1, 1, 1)
        for n1, n2 in [(1, 1), (2, 3), (4, 4)]:
            r = abs(h.g12) ** 2 / (h.g11.real * h.g22.real)
            val = h.g11.real**n1 * h.g22.real**n2 * hyp2f1_terminating(n1, -n2, 1, r)
            assert rep_diag(h, n1, n2).real == pytest.approx(val, rel=1e-12)

    def test_positive_diagonals_dominate_leading_term(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_gl2(rng).gram()
            for L in (3, 7):
                diag = np.diagonal(rep_block(h, L))
                assert np.max(np.abs(diag.imag)) <= 1e-12 * np.max(diag.real)
                for n1 in range(L + 1):
                    lead = h.g11.real**n1 * h.g22.real ** (L - n1)
                    assert diag[n1].real >= lead * (1 - 1e-12)

    def test_upper_bounds_log_domain(self):
        # diag <= C(L, n1) h11^n1 h22^n2 <= (tr h)^L for positive Hermitian h
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = random_gl2(rng).gram()
            lh11, lh22 = math.log(h.g11.real), math.log(h.g22.real)
            ltr = math.log((h.g11 + h.g22).real)
            for L in (10, 25, 40):
                for n1 in range(0, L + 1, 5):
                    n2 = L - n1
                    val = rep_diag_log(h, n1, n2)
                    mid = math.log(math.comb(L, n1)) + n1 * lh11 + n2 * lh22
                    assert val <= mid + 1e-10
                    assert mid <= L * ltr + 1e-10

    def test_log_domain_matches_direct(self):
        h = GL2Matrix(2, 1, 1, 1)
        for n1, n2 in [(3, 3), (7, 4), (12, 20)]:
            assert rep_diag_log(h, n1, n2) == pytest.approx(
                math.log(rep_diag_qsum(h, n1, n2).real), rel=1e-12
            )

    def test_positivity_gate(self):
        for g in (GL2Matrix(1, 1, 0, 1), GL2Matrix.diagonal(-1, 1)):  # not Hermitian, not positive
            with pytest.raises(ValueError):
                rep_diag_log(g, 1, 1)
            with pytest.raises(ValueError):
                positive_invariants(g)
        with pytest.raises(ValueError):
            rep_diag_log(GL2Matrix(2, 1, 1, 1), [1, -1], 2)


class TestRepDiagLogArrays:
    # the sizes criterion 6 reads: n1 up to 200, n1 + n2 up to 405
    PAIRS = [(0, 0), (0, 7), (9, 0), (1, 1), (12, 20), (100, 200), (200, 200), (200, 201), (200, 205)]

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 0.8])
    def test_against_40_digit_sum(self, r):
        h = GL2Matrix(1.3, math.sqrt(r * 1.3 * 0.7), math.sqrt(r * 1.3 * 0.7), 0.7)
        n1, n2 = np.array(self.PAIRS).T
        got = rep_diag_log(h, n1, n2)
        assert got.shape == n1.shape
        for val, pair in zip(got, self.PAIRS):
            assert val == pytest.approx(rep_diag_log_mpmath(h, *pair), rel=1e-14, abs=1e-14)

    def test_diagonal_h_is_the_leading_product(self):
        n1, n2 = np.meshgrid(np.arange(0, 300, 7), np.arange(0, 300, 11))
        got = rep_diag_log(GL2Matrix.diagonal(2.5, 0.4), n1, n2)
        assert np.array_equal(got, n1 * math.log(2.5) + n2 * math.log(0.4))

    def test_broadcast_matches_scalar_calls(self):
        h = random_gl2(np.random.default_rng(8)).gram()
        n1 = np.arange(0, 41, 5)
        row = rep_diag_log(h, n1[:, None], np.array([0, 3, 40]))
        assert row.shape == (len(n1), 3)
        for i, a in enumerate(n1):
            for j, b in enumerate((0, 3, 40)):
                assert row[i, j] == pytest.approx(rep_diag_log(h, int(a), b), rel=1e-14)

    def test_invariants(self):
        h11, h22, r = positive_invariants(GL2Matrix(2, 1 + 1j, 1 - 1j, 3))
        assert (h11, h22) == (2, 3)
        assert r == pytest.approx(1 / 3, rel=1e-15)


class TestRepFull:
    def test_identity_dense(self):
        op = rep_full(GL2Matrix.identity(), 3)
        assert np.allclose(op.mat, np.eye(10))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        g = random_gl2(rng)
        full = rep_full(g, 8)
        prod = full.mat @ rep_full(g.inv(), 8).mat
        assert np.max(np.abs(prod - np.eye(full.dim))) <= 1e-10

    def test_star_property_dense(self):
        rng = np.random.default_rng(6)
        g = random_gl2(rng)
        lhs = rep_full(g, 6).mat.conj().T
        rhs = rep_full(g.dagger(), 6).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_blockwise_inv_and_apply(self):
        rng = np.random.default_rng(8)
        g = random_gl2(rng)
        full = rep_full(g, 5)
        vec = rng.normal(size=full.dim) + 1j * rng.normal(size=full.dim)
        assert np.allclose(rep_full(g.inv(), 5).apply(full.apply(vec)), vec, atol=1e-10)
        assert np.allclose(full.apply(vec), full.mat @ vec, atol=1e-12)

    def test_apply_on_matrices_matches_dense_products(self):
        rng = np.random.default_rng(10)
        full = rep_full(random_gl2(rng), 6)
        x = rng.normal(size=(full.dim, full.dim)) + 1j * rng.normal(size=(full.dim, full.dim))
        dense = full.mat
        for got, ref in ((full.apply(x), dense @ x), (full.apply_right(x), x @ dense)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_blocks_equal_rep_block_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_gl2(rng)
            full = rep_full(g, 12)
            for L in range(13):
                assert np.array_equal(full.blocks[L], rep_block(g, L)), L

    def test_block_shapes_validated(self):
        # a key outside 0..L_max, a block of the wrong shape, a NaN entry
        with pytest.raises(ValueError, match="does not fit"):
            SectorOperator(1, {(2, 2): np.eye(3)})
        with pytest.raises(ValueError, match="does not fit"):
            SectorOperator(1, {(0, -1): np.zeros((1, 0))})
        with pytest.raises(ValueError, match="does not fit"):
            SectorOperator(1, {(0, 1): np.eye(2)})
        with pytest.raises(ValueError, match="non-finite"):
            SectorOperator(1, {(1, 1): np.full((2, 2), np.nan, dtype=complex)})


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


# real in value: the shear, a rotation, diag(2, 1), a non-cancelling matrix,
# and the same matrix read from an array, which stores complex entries
REAL_MATRICES = {
    "shear": GL2Matrix(1, 1, 0, 1),
    "rotation": GL2Matrix(0.6, 0.8, -0.8, 0.6),
    "diag": GL2Matrix(2, 0, 0, 1),
    "draw": GL2Matrix(1.1, 0.2, 0.1, 0.9),
    "from_array": GL2Matrix.from_array(np.array([[1.1, 0.2], [0.1, 0.9]])),
}
COMPLEX_MATRICES = {
    "imaginary_entry": GL2Matrix(1.2, 0.3 + 0.1j, 0.2, 0.9),
    "random": random_gl2(np.random.default_rng(40), 0.8, 1.3),
}


class TestRealRoute:
    @pytest.mark.parametrize("L", [12, 60, 100])
    @pytest.mark.parametrize("name", REAL_MATRICES)
    def test_real_g_gives_the_real_part_of_the_complex_run(self, name, L):
        g = REAL_MATRICES[name]
        ref = rep_blocks_complex128(g, L)
        assert not any(np.any(b.imag) for b in ref)
        assert _same_bits(rep_block(g, L), ref[L].real)
        full = rep_full(g, L)
        assert all(_same_bits(got, want.real) for got, want in zip(full.blocks, ref))

    @pytest.mark.parametrize("L", [12, 60, 100])
    @pytest.mark.parametrize("name", COMPLEX_MATRICES)
    def test_complex_g_stays_complex128(self, name, L):
        g = COMPLEX_MATRICES[name]
        ref = rep_blocks_complex128(g, L)
        assert _same_bits(rep_block(g, L), ref[L])
        assert all(_same_bits(got, want) for got, want in zip(rep_full(g, L).blocks, ref))


class TestDegreeLimit:
    def test_degrees_past_double_range_rejected(self):
        # C(1030, 515) is about 2.9e308, past the largest finite double
        g = GL2Matrix(0.6, 0.8, -0.8, 0.6)
        assert MAX_DEGREE == 1029
        with pytest.raises(ValueError, match="1029"):
            rep_block(g, MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="1029"):
            rep_full(g, MAX_DEGREE + 1)


def _random_sector_operator(rng, L_max, keys):
    return SectorOperator(
        L_max,
        {(i, j): rng.normal(size=(i + 1, j + 1)) + 1j * rng.normal(size=(i + 1, j + 1)) for i, j in keys},
    )


class TestSectorOperator:
    # blocks at sector offsets -1, 0 and +1, one far block, and a missing
    # diagonal block (sector 2)
    KEYS_X = [(0, 0), (1, 1), (3, 3), (0, 1), (2, 1), (3, 2), (0, 3)]
    KEYS_Y = [(0, 0), (1, 1), (2, 2), (1, 0), (2, 3), (3, 0)]

    def test_algebra_matches_dense_products(self):
        rng = np.random.default_rng(30)
        x = _random_sector_operator(rng, 3, self.KEYS_X)
        y = _random_sector_operator(rng, 3, self.KEYS_Y)
        for got, ref in (
            ((x @ y).mat, x.mat @ y.mat),
            ((y @ x).mat, y.mat @ x.mat),
            ((x - y).mat, x.mat - y.mat),
            (x.dagger().mat, x.mat.conj().T),
        ):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        v = rng.normal(size=(x.dim, 3))
        assert np.max(np.abs(x.apply(v) - x.mat @ v)) <= 1e-13
        assert np.max(np.abs(x.apply_right(v.T) - v.T @ x.mat)) <= 1e-13
        assert np.array_equal(x.blocks[2], np.zeros((3, 3)))

    def test_safe_deviation_reads_the_safe_block(self):
        rng = np.random.default_rng(31)
        x = _random_sector_operator(rng, 3, self.KEYS_X)
        s = x.safe_dim
        for c in (0.0, 1.0, 2.5 - 1j):
            ref = np.max(np.abs(x.mat[:s, :s] - c * np.eye(s)))
            assert x.safe_deviation(c) == pytest.approx(ref, rel=1e-15)
        # a missing diagonal block on the safe block counts as zero
        assert SectorOperator(2, {(0, 0): np.eye(1)}).safe_deviation(1.0) == 1.0
        assert SectorOperator(2, {}).safe_deviation(0.0) == 0.0

    def test_dtypes_follow_blocks_and_arguments(self):
        real, cplx = rep_full(REAL_MATRICES["draw"], 3), rep_full(COMPLEX_MATRICES["random"], 3)
        x = np.random.default_rng(32).normal(size=(real.dim, 2))
        assert (real.mat.dtype, cplx.mat.dtype) == (np.float64, np.complex128)
        for op in (real, cplx):
            for arg in (x, x + 1j):
                want = np.result_type(op.mat, arg)
                assert op.apply(arg).dtype == want and op.apply_right(arg.T).dtype == want
                assert np.max(np.abs(op.apply(arg) - op.mat @ arg)) <= 1e-13
                assert np.max(np.abs(op.apply_right(arg.T) - arg.T @ op.mat)) <= 1e-13

    def test_overflowing_product_rejected(self):
        x = SectorOperator(1, {(1, 1): np.full((2, 2), 1e200)})
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            x @ x
