import math

import numpy as np
import pytest

from pblab.asymptotics import (
    LaplaceData,
    asympt_fixed_d,
    asympt_laplace,
    laplace_root,
    ratio_row,
)
from pblab.gl2 import GL2Matrix, rep_diag_log

from oracles import binomial_diag_log, stirling_r1_log

H_HALF = GL2Matrix(2, 1, 1, 1)  # r = 1/2


def h_of_r(r: float) -> GL2Matrix:
    return GL2Matrix(1.0, math.sqrt(r), math.sqrt(r), 1.0)


class TestFixedDifference:
    def test_ratio_band_at_n200(self):
        for d in (0, 5):
            row = ratio_row(H_HALF, 200, d=d)
            lo, hi = (0.95, 1.05) if d == 0 else (0.9, 1.1)
            assert lo <= row["ratio"] <= hi

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("d", [0, 1, 5])
    def test_log_error_per_degree(self, r, d):
        h = h_of_r(r)
        est = asympt_fixed_d(h, 200, d)
        exact = rep_diag_log(h, 200, 200 + d)
        assert abs(exact - est) / (400 + d) <= 0.01

    def test_scale_homogeneity(self):
        c = 3.0
        h = H_HALF
        hc = GL2Matrix(c * 2, c * 1, c * 1, c * 1)
        a = asympt_fixed_d(h, 50, 2)
        b = asympt_fixed_d(hc, 50, 2)
        assert b == pytest.approx(a + 102 * math.log(c), rel=1e-13)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            asympt_fixed_d(GL2Matrix.diagonal(2, 1), 10, 0)  # r = 0
        with pytest.raises(ValueError):
            asympt_fixed_d(H_HALF, 0, 0)
        with pytest.raises(ValueError):
            asympt_fixed_d(H_HALF, 10, -1)
        with pytest.raises(ValueError):
            asympt_fixed_d(GL2Matrix(1, 1, 0, 1), 10, 0)  # not Hermitian


class TestLaplaceRoot:
    def test_limit_r_to_one(self):
        data = laplace_root(0.999, 2.0)
        assert abs(data.xi_plus - 2 / 3) <= 1e-2

    def test_nu_one_closed_form(self):
        r = 0.25
        data = laplace_root(r, 1.0)
        assert abs(data.xi_plus - math.sqrt(r) / (1 + math.sqrt(r))) <= 1e-12

    def test_explicit_quadratic_case(self):
        # xi^2 + 3 xi - 2 = 0 at r = 0.5, nu = 2
        data = laplace_root(0.5, 2.0)
        assert data.xi_plus == pytest.approx((-3 + math.sqrt(17)) / 2, rel=1e-14)

    def test_stationarity_on_grid(self):
        for r in np.arange(0.05, 0.951, 0.09):
            for nu in np.arange(1.0, 8.01, 0.7):
                data = laplace_root(float(r), float(nu))
                assert 0 < data.xi_plus < 1
                assert data.App_at_xi < 0

    def test_domain_guards(self):
        for bad_r, bad_nu in [(0.0, 2.0), (1.0, 2.0), (0.5, 0.5), (-0.1, 1.0)]:
            with pytest.raises(ValueError):
                laplace_root(bad_r, bad_nu)
        with pytest.raises(ValueError):
            LaplaceData(0.5, 2.0, 1.5, -1.0)
        with pytest.raises(ValueError):
            LaplaceData(0.5, 2.0, 0.5, 1.0)


class TestLaplaceEstimate:
    def test_ratio_band_nu2_n100(self):
        row = ratio_row(H_HALF, 100, nu=2.0)
        assert 0.9 <= row["ratio"] <= 1.1

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_log_error_per_degree(self, r):
        h = h_of_r(r)
        est = asympt_laplace(h, 100, 2.0)
        exact = rep_diag_log(h, 100, 200)
        assert abs(exact - est) / 300 <= 0.01

    def test_monotone_improvement(self):
        r100 = abs(1 - ratio_row(H_HALF, 100, nu=1.0)["ratio"])
        r300 = abs(1 - ratio_row(H_HALF, 300, nu=1.0)["ratio"])
        assert r300 < r100

    def test_nu_one_matches_fixed_d(self):
        # the two estimates must coincide on their common diagonal
        a = asympt_laplace(H_HALF, 150, 1.0)
        b = asympt_fixed_d(H_HALF, 150, 0)
        assert a == pytest.approx(b, abs=1e-10)


class TestDegenerateAndStirling:
    def test_stirling_chain_within_one_percent(self):
        assert abs(
            stirling_r1_log(2.0, 1.0, 300, 300) - binomial_diag_log(2.0, 1.0, 300, 300)
        ) <= math.log(1.01)

    def test_guards(self):
        with pytest.raises(ValueError):
            stirling_r1_log(1.0, 1.0, 0, 5)
        with pytest.raises(ValueError):
            rep_diag_log(GL2Matrix(-1.0, 0.5, 0.5, 1.0), 2, 2)


class TestRatioRow:
    def test_fields(self):
        row = ratio_row(H_HALF, 50, d=3)
        assert set(row) == {
            "n1", "n2", "r", "nu_or_d", "log_exact", "log_estimate", "ratio", "log_error_per_degree"
        }
        assert row["n2"] == 53
        assert row["r"] == pytest.approx(0.5)

    def test_exactly_one_direction(self):
        with pytest.raises(ValueError):
            ratio_row(H_HALF, 50)
        with pytest.raises(ValueError):
            ratio_row(H_HALF, 50, d=1, nu=2.0)
