import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from pblab.special import (
    LogValue,
    binomial_real,
    jacobi_sum,
    log_binomial,
    log_factorial,
    log_sum_exp,
)

from oracles import hyp2f1_terminating, jacobi_hyp, laguerre


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_small_values_exact(self):
        assert math.isclose(log_factorial(5), math.log(120), rel_tol=1e-14)

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**6])
    def test_against_exact_big_integer(self, n):
        # math.log on a Python big int is correctly rounded
        exact = math.log(math.factorial(n))
        assert math.isclose(log_factorial(n), exact, rel_tol=1e-12)

    def test_ratio_consistency(self):
        for n in [2, 3, 17, 400, 1000]:
            ratio = math.exp(log_factorial(n) - log_factorial(n - 1))
            assert math.isclose(ratio, n, rel_tol=1e-12)
        # above ~10^3 the stored magnitude's ulp dominates the difference,
        # so the attainable bound scales with ulp(ln n!)
        for n in [5000, 9999, 10**4]:
            ratio = math.exp(log_factorial(n) - log_factorial(n - 1))
            bound = 4 * math.ulp(log_factorial(n))
            assert math.isclose(ratio, n, rel_tol=max(bound, 1e-12))


class TestJacobi:
    def test_degree_zero_is_one(self):
        for a, b, x in [(0, 0, 0.3), (2.5, -0.5, 10.0), (1, 7, -2.0)]:
            assert jacobi_sum(0, a, b, x) == 1
            assert jacobi_hyp(0, a, b, x) == 1

    def test_p1_legendre_is_x(self):
        for x in [-1.0, -0.25, 0.0, 0.5, 1.0, 3.0]:
            assert math.isclose(jacobi_sum(1, 0, 0, x), x, abs_tol=1e-15)

    def test_p1_alpha0_beta2(self):
        # brute expansion of the binomial sum: (x+1)/2 + 3(x-1)/2 = 2x - 1
        assert jacobi_sum(1, 0, 2, 3.0) == 5.0
        assert jacobi_hyp(1, 0, 2, 3.0) == 5.0
        assert sp.eval_jacobi(1, 0, 2, 3.0) == 5.0

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 50])
    def test_two_printed_forms_agree_exactly_on_rationals(self, n):
        # exact rational arithmetic removes all cancellation error, so the
        # two closed forms can be compared at every test point including
        # the oscillatory region |x| < 1
        points = [Fraction(-3, 4), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(5)]
        for alpha, beta in [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(2)), (Fraction(3), Fraction(1))]:
            for x in points:
                assert jacobi_sum(n, alpha, beta, x) == jacobi_hyp(n, alpha, beta, x)

    @pytest.mark.parametrize("n", [1, 3, 8, 20, 50])
    def test_forms_agree_in_float_on_rep_domain(self, n):
        # arguments > 1 are the ones the representation diagonal produces;
        # there every summand is positive and float agreement is tight
        for x in [1.0, 1.2, 2.0, 3.0, 9.0]:
            for a, b in [(0, 0), (0, 3), (0, 17)]:
                v1 = jacobi_sum(n, a, b, x)
                v2 = jacobi_hyp(n, a, b, x)
                v3 = sp.eval_jacobi(n, a, b, x)
                assert math.isclose(v1, v2, rel_tol=1e-10)
                assert math.isclose(v1, v3, rel_tol=1e-10)

    def test_complex_argument_supported(self):
        z = 1.3 + 0.4j
        v1 = jacobi_sum(4, 0, 2, z)
        v2 = jacobi_hyp(4, 0, 2, z)
        assert abs(v1 - v2) < 1e-12 * abs(v1)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 3, 0.7) == 1
        assert laguerre(0, -0, 5.0) == 1

    def test_l1_is_one_minus_x(self):
        for x in [0.0, 0.5, 2.0]:
            assert math.isclose(laguerre(1, 0, x), 1 - x, abs_tol=1e-15)

    def test_l2_sup1_at_zero(self):
        assert math.isclose(laguerre(2, 1, 0.0), 3.0, rel_tol=1e-14)

    @pytest.mark.parametrize("n, mu", [(3, 0), (5, 2), (8, 1), (12, 4)])
    def test_against_scipy(self, n, mu):
        # near a root the relative error is ill-conditioned for both routes,
        # so compare on the scale of the largest coefficient
        scale = max(abs(laguerre(n, mu, 0.0)), 1.0)
        for x in [0.0, 0.4, 1.0, 3.7]:
            assert math.isclose(
                laguerre(n, mu, x), sp.eval_genlaguerre(n, mu, x), abs_tol=1e-10 * scale
            )

    def test_negative_superscript_reflection(self):
        # n! L_n^(m-n)(t) = m! (-t)^(n-m) L_m^(n-m)(t) for n >= m
        for n, m, t in [(5, 3, 0.7), (4, 1, 2.2), (7, 2, 0.09), (6, 6, 1.0)]:
            lhs = math.factorial(n) * laguerre(n, m - n, t)
            rhs = math.factorial(m) * (-t) ** (n - m) * laguerre(m, n - m, t)
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            laguerre(2, -3, 1.0)
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)


class TestHyp2F1Terminating:
    def test_order_zero_is_one(self):
        assert hyp2f1_terminating(0, 2.5, 1.0, 0.77) == 1

    def test_two_term_expansion(self):
        for x in [-1.0, 0.25, 0.5, 2.0]:
            assert math.isclose(hyp2f1_terminating(1, 2, 1, x), 1 - 2 * x, abs_tol=1e-15)

    def test_binomial_product_identity(self):
        # 2F1(-n1, -n2; 1; x) = sum_m C(n1, m) C(n2, m) x^m
        for n1, n2, x in [(1, 1, 0.5), (3, 2, 0.7), (5, 5, 1.0), (4, 6, 0.2)]:
            brute = sum(
                math.comb(n1, m) * math.comb(n2, m) * x**m for m in range(min(n1, n2) + 1)
            )
            assert math.isclose(hyp2f1_terminating(n1, -n2, 1, x), brute, rel_tol=1e-12)
        assert math.isclose(hyp2f1_terminating(1, -1, 1, 0.5), 1.5, rel_tol=1e-15)

    def test_vanishing_pochhammer_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(3, 1.0, -1, 0.5)  # (c)_k hits zero at k = 2
        # c = -n + something outside the summed range is fine
        assert hyp2f1_terminating(2, 1.0, 5.0, 0.3) > 0


class TestLogDomain:
    def test_log_binomial_matches_comb(self):
        for n, k in [(10, 3), (40, 20), (400, 200)]:
            assert math.isclose(log_binomial(n, k), math.log(math.comb(n, k)), rel_tol=1e-12)
        assert log_binomial(5, 9) == float("-inf")

    def test_log_sum_exp(self):
        vals = [1e-3, 2.5, 7.0]
        assert math.isclose(log_sum_exp(np.log(vals)), math.log(sum(vals)), rel_tol=1e-14)
        assert log_sum_exp([]) == float("-inf")

    def test_logvalue_roundtrip_and_product(self):
        a = LogValue.from_float(-3.0)
        b = LogValue.from_float(0.5)
        assert a.sign == -1 and math.isclose(a.value, -3.0)
        assert math.isclose((a * b).value, -1.5, rel_tol=1e-14)
        zero = LogValue.from_float(0.0)
        assert zero.sign == 0 and (zero * a).value == 0.0
        assert math.isclose(a.scaled(math.log(2)).value, -6.0, rel_tol=1e-14)

    def test_logvalue_validation(self):
        with pytest.raises(ValueError):
            LogValue(1.0, 2)
        with pytest.raises(ValueError):
            LogValue(1.0, 0)

    def test_binomial_real_fraction_exact(self):
        assert binomial_real(Fraction(7, 2), 2) == Fraction(35, 8)
        assert binomial_real(5, 2) == 10
