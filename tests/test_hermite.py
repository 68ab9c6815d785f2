import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pblab import indexing
from pblab.deformed import biorth_gram
from pblab.gl2 import GL2Matrix
from pblab.hermite import (
    PolyCoeffs,
    exp_contraction,
    hermite_coeffs,
    hermite_sector,
    hermite_terms_exact,
    hermite_via_contraction,
    inner,
    inner_exact,
    monomial_basis,
    sector_stack,
)

from oracles import exp_contraction_exact, exp_contraction_loop, hermite_gram_moments, poly_allclose


def modes_up_to_degree(max_L):
    return [(n1, L - n1) for L in range(max_L + 1) for n1 in range(L + 1)]


class TestHermiteCoeffs:
    def test_ground_state_is_constant_one(self):
        h = hermite_coeffs(0, 0)
        assert h.coeff.shape == (1, 1)
        assert h.coeff[0, 0] == 1.0

    def test_h11_is_zzbar_minus_one(self):
        h = hermite_coeffs(1, 1)
        expected = PolyCoeffs([[-1, 0], [0, 1]])
        assert poly_allclose(h, expected)

    def test_h21(self):
        # (z^2 zbar - 2 z) / sqrt(2)
        h = hermite_coeffs(2, 1)
        s = 1 / math.sqrt(2)
        expected = PolyCoeffs([[0, 0], [-2 * s, 0], [0, s]])
        assert poly_allclose(h, expected)

    def test_evaluation(self):
        assert hermite_coeffs(1, 1)(1 + 1j) == pytest.approx(1.0)  # |z|^2 - 1
        assert hermite_coeffs(0, 0)(3.7 - 2j) == 1.0
        assert hermite_coeffs(1, 0)(2.0) == pytest.approx(2.0)  # h_{1,0} = z

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            hermite_coeffs(-1, 2)


class TestExpContraction:
    def test_constant_fixed(self):
        one = PolyCoeffs([[1.0]])
        assert poly_allclose(PolyCoeffs(exp_contraction(one.coeff)), one)

    def test_single_contraction_term(self):
        out = PolyCoeffs(exp_contraction(PolyCoeffs.monomial(1, 1).coeff))
        assert poly_allclose(out, PolyCoeffs([[-1, 0], [0, 1]]))

    def test_stack_matches_entry_loop_bit_for_bit(self):
        # every monomial with n1, n2 <= 12, zero-padded to 13 x 13 and
        # contracted as one stack, against the loop on its own grid
        modes = list(itertools.product(range(13), repeat=2))
        stack = exp_contraction(sector_stack([monomial_basis(*m) for m in modes], 12))
        for (n1, n2), got in zip(modes, stack):
            ref = exp_contraction_loop(monomial_basis(n1, n2).coeff)
            assert np.array_equal(got[: n1 + 1, : n2 + 1].view(float), ref.view(float)), (n1, n2)
            got[: n1 + 1, : n2 + 1] = 0
            assert not got.any()

    def test_sector_stack_pads_with_zeros(self):
        stack = hermite_sector(3)
        assert stack.shape == (4, 4, 4)
        for m, grid in enumerate(stack):
            assert PolyCoeffs(grid).coeff.shape == (m + 1, 4 - m)
            assert np.array_equal(PolyCoeffs(grid).coeff, hermite_coeffs(m, 3 - m).coeff)

    def test_monomial_route_matches_explicit_sum(self):
        for n1, n2 in modes_up_to_degree(10):
            assert poly_allclose(hermite_via_contraction(n1, n2), hermite_coeffs(n1, n2), atol=1e-12)

    def test_exact_rational_route(self):
        # unnormalized: contraction of z^{n1} zbar^{n2} has the integer grid
        for n1, n2 in [(2, 2), (3, 1), (4, 4), (5, 2)]:
            got = exp_contraction_exact({(n1, n2): Fraction(1)})
            expected = {k: Fraction(v) for k, v in hermite_terms_exact(n1, n2).items()}
            assert got == expected


class TestInner:
    def test_normalized_measure(self):
        assert inner(hermite_coeffs(0, 0), hermite_coeffs(0, 0)) == 1.0

    def test_h11_norm(self):
        assert inner(hermite_coeffs(1, 1), hermite_coeffs(1, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_cross_moments_vanish(self):
        assert inner(hermite_coeffs(1, 0), hermite_coeffs(0, 1)) == 0.0

    def test_orthonormality_degree_10_float(self):
        modes = modes_up_to_degree(10)
        polys = {m: hermite_coeffs(*m) for m in modes}
        worst = 0.0
        for ma, mb in itertools.combinations_with_replacement(modes, 2):
            v = inner(polys[ma], polys[mb])
            worst = max(worst, abs(v - (1.0 if ma == mb else 0.0)))
        assert worst <= 1e-12

    def test_orthonormality_exact_backend(self):
        modes = modes_up_to_degree(10)
        terms = {m: hermite_terms_exact(*m) for m in modes}
        for ma, mb in itertools.combinations_with_replacement(modes, 2):
            got = inner_exact(terms[ma], terms[mb])
            ref = math.factorial(ma[0]) * math.factorial(ma[1]) if ma == mb else 0
            assert got == ref  # defect exactly zero

    def test_inner_conjugate_symmetry(self):
        p = hermite_coeffs(2, 1) + hermite_coeffs(1, 1).scaled(0.3j)
        q = hermite_coeffs(3, 0) + hermite_coeffs(2, 1).scaled(1.0 - 0.2j)
        assert inner(p, q) == pytest.approx(np.conj(inner(q, p)), abs=1e-13)


class TestDegreeStructure:
    @pytest.mark.parametrize("m, n", [(0, 0), (3, 2), (5, 1), (2, 6)])
    def test_polyanalytic_order(self, m, n):
        # conj(z)-degree of h_{m,n} is exactly n
        assert hermite_coeffs(m, n).deg_zbar == n


class TestPolyAlgebra:
    def test_add_sub_scaled(self):
        p = hermite_coeffs(1, 0)
        q = hermite_coeffs(0, 1)
        r = p + q.scaled(2.0) - p
        assert poly_allclose(r, q.scaled(2.0))

    def test_trim_removes_trailing_zeros(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[1, 2] = 1.0
        p = PolyCoeffs(grid)
        assert (p.deg_z, p.deg_zbar) == (1, 2)


def test_monomial_basis_normalization():
    p = monomial_basis(3, 2)
    assert p.coeff[3, 2] == pytest.approx(1 / math.sqrt(12), rel=1e-14)


class TestOrthonormalityByNodes:
    """The float orthonormality check reads biorth_gram at g = I, whose
    Gram is <h_n, h_n'> because dual(I) = I."""

    def test_agrees_with_moment_oracle(self):
        moments = hermite_gram_moments(8)
        for degree in range(9):
            k = indexing.dim(degree)
            gram, _ = biorth_gram(GL2Matrix.identity(), degree)
            assert np.max(np.abs(gram - moments[:k, :k])) <= 1e-13, degree

    @pytest.mark.parametrize("degree, tol", [(16, 1e-12), (20, 1e-11)])
    def test_high_degree(self, degree, tol):
        # the moment route reads 1.1e-10 at degree 16 and 3.6e-9 at 20
        _, dev = biorth_gram(GL2Matrix.identity(), degree)
        assert dev <= tol
