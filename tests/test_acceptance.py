"""Acceptance battery: one test per shipped criterion, each printing its
pass/fail line with the measured deviation and the pinned tolerance.

Criterion 11 compares the regularized quantization oracle with the
unregularized A_z and A_zbar on sectors <= 4 at a pinned 2% tolerance.  The
oracle's deviation there is the exact mollifier bias
(1+lam/2)^{-2}(1-lam/(1+lam/2))^{n-1} per flat index, 0.0139 at the
criterion's regularizer lam = 1e-3 and 0.1306 at lam = 0.01.  The criterion
reports that closed-form bias next to the measured deviation and fails when
the bias alone exceeds the tolerance; the tests below pin both, and that a
NaN deviation fails instead of reading as a pass.
"""

import math

import numpy as np
import pytest

from pblab import acceptance, quantize
from pblab.acceptance import CRITERIA, criterion_11_quantization, run_criterion
from pblab.fock import pseudo_pair


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_acceptance_criterion(number):
    result = run_criterion(number)
    print(result.line())
    if result.details:
        print(f"        details: {result.details}")
    assert result.passed, result.line()


def _exact_oracle(kind, lam, w, g, L_max):
    pair = pseudo_pair(g, L_max)
    return (pair.a_op if kind == "z" else pair.b_op).mat


def _predict_at(monkeypatch, lam):
    """Make criterion 11 predict its bias at regularizer `lam`."""
    monkeypatch.setattr(
        acceptance,
        "mollified_lowering_diagonal",
        lambda _lam, dim: quantize.mollified_lowering_diagonal(lam, dim),
    )


class TestQuantizationCriterion:
    def test_measured_deviation_is_the_predicted_bias(self):
        details = criterion_11_quantization().details
        assert details["regularizer"] == 1e-3
        for key in ("oracle_dev_z", "oracle_dev_zbar"):
            assert abs(details[key] - details["predicted_bias"]) <= 1e-10
        assert 0.0138 <= details["predicted_bias"] <= 0.0140

    def test_unmeetable_regularizer_fails_on_its_predicted_bias(self, monkeypatch):
        # the former pair (2%, lam = 0.01): oracle and prediction both at 0.01
        _predict_at(monkeypatch, 0.01)
        oracle = quantize.quantize_regularized_oracle
        monkeypatch.setattr(
            quantize,
            "quantize_regularized_oracle",
            lambda kind, _lam, w, g, L_max: oracle(kind, 0.01, w, g, L_max),
        )
        result = criterion_11_quantization()
        assert not result.passed
        assert abs(result.deviation - result.details["predicted_bias"]) <= 1e-10
        assert result.details["predicted_bias"] > result.tolerance

    def test_predicted_bias_above_tolerance_fails_even_with_zero_deviation(self, monkeypatch):
        _predict_at(monkeypatch, 0.01)
        monkeypatch.setattr(quantize, "quantize_regularized_oracle", _exact_oracle)
        result = criterion_11_quantization()
        assert result.deviation == 0.0
        assert not result.passed

    def test_nan_oracle_deviation_fails(self, monkeypatch):
        def nan_zbar(kind, lam, w, g, L_max):
            op = _exact_oracle(kind, lam, w, g, L_max)
            return np.full_like(op, np.nan) if kind == "zbar" else op

        monkeypatch.setattr(quantize, "quantize_regularized_oracle", nan_zbar)
        result = criterion_11_quantization()
        assert math.isnan(result.deviation)
        assert not result.passed

    def test_nan_defect_in_a_later_weight_fails(self, monkeypatch):
        defects = iter([1e-12, math.nan, 1e-12, 1e-12, 1e-12])
        monkeypatch.setattr(acceptance, "pseudo_canonical_defect", lambda w, g, L: next(defects))
        result = criterion_11_quantization()
        assert math.isnan(result.details["pseudo_canonical_worst"])
        assert not result.passed


def test_worst_keeps_nan_in_any_position():
    assert acceptance._worst(0.0, 1e-9, 2e-9) == 2e-9
    assert math.isnan(acceptance._worst(0.0, math.nan))
    assert math.isnan(acceptance._worst(1e-9, math.nan, 2e-9))
    assert math.isnan(acceptance._worst(math.nan, 1.0))
