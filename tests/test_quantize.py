import math

import numpy as np
import pytest

from pblab import indexing
from pblab.fock import pseudo_pair
from pblab.gl2 import GL2Matrix
from pblab.quadrature import polar_scheme
from pblab.quantize import (
    Weight,
    mollified_lowering_diagonal,
    pseudo_canonical_defect,
    quantize_linear,
    quantize_regularized_oracle,
)

SHEAR = GL2Matrix(1, 1, 0, 1)
IDENT = GL2Matrix.identity()


class TestWeightSpec:
    def test_builders(self):
        # the Wirtinger derivatives at the origin are alpha and -beta
        assert Weight()(0.3 + 1j) == 1.0
        ws = Weight(s=-1.0)
        assert ws(1.0) == pytest.approx(math.exp(-0.5))
        assert ws.alpha == 0.0 and ws.beta == 0.0
        wd = Weight(0.3, 0.2 - 0.1j)
        assert wd.alpha == 0.3 and wd.beta == 0.2 - 0.1j
        with pytest.raises(ValueError):
            Weight(s=1.0)

    def test_weight_without_drift_is_the_isotropic_factor_bit_for_bit(self):
        # on the oracle's polar nodes, at criterion 11's regularizer and at
        # the CLI default, the drift factor is exactly 1, so criterion 11 and
        # the unit and gauss-s oracle reports read e^{s |z|^2 / 2} itself
        for lam in (1e-3, 1e-2):
            z = polar_scheme(64, 64, radial_scale=1 / lam + 0.5).nodes.reshape(64, 64)
            for s in (-3.0, -1.0, 0.0, 0.5):
                assert np.array_equal(Weight(s=s)(z), np.exp(s * np.abs(z) ** 2 / 2))
            assert np.all(Weight()(z) == 1)
        with pytest.raises(ValueError):
            Weight(s=1)


class TestQuantizeLinear:
    def test_unit_weight_reproduces_pair(self):
        pair = pseudo_pair(SHEAR, 8)
        a_z, a_zbar = quantize_linear(Weight(), SHEAR, 8)
        assert np.array_equal(a_z.mat, pair.a_op.mat)
        assert np.array_equal(a_zbar.mat, pair.b_op.mat)

    def test_isotropic_weight_keeps_a(self):
        # vanishing first derivatives at the origin for every s
        for s in (-2.0, 0.0, 0.5):
            a_z, _ = quantize_linear(Weight(s=s), SHEAR, 6)
            pair = pseudo_pair(SHEAR, 6)
            assert np.array_equal(a_z.mat, pair.a_op.mat)

    def test_drift_weight_adds_constants(self):
        alpha, beta = 0.3, 0.2 - 0.1j
        pair = pseudo_pair(SHEAR, 6)
        a_z, a_zbar = quantize_linear(Weight(alpha, beta), SHEAR, 6)
        eye = np.eye(pair.a_op.dim)
        assert np.max(np.abs(a_z.mat - (pair.a_op.mat + beta * eye))) == 0.0
        assert np.max(np.abs(a_zbar.mat - (pair.b_op.mat + alpha * eye))) == 0.0

    @pytest.mark.parametrize(
        "weight",
        [Weight(), Weight(s=0.5), Weight(0.3, 0.2 - 0.1j)],
    )
    def test_pseudo_canonical_for_every_weight(self, weight):
        assert pseudo_canonical_defect(weight, SHEAR, 12) <= 1e-8


class TestRegularizedOracle:
    def test_oracle_matches_analytic_mollified_diagonal(self):
        # independent validation of the quadrature: the regularized
        # quantization of z has the exact sub-diagonal
        # sqrt(n) (1+lam/2)^{-2} (1 - lam/(1+lam/2))^{n-1}
        lam = 0.01
        orc = quantize_regularized_oracle("z", lam, Weight(), IDENT, 8)
        sub = np.array([orc[n - 1, n] for n in range(1, len(orc))])
        assert np.max(np.abs(sub - mollified_lowering_diagonal(lam, len(orc)))) <= 1e-10
        off = orc.copy()
        for n in range(1, len(orc)):
            off[n - 1, n] = 0.0
        assert np.max(np.abs(off)) <= 1e-12

    def test_zbar_oracle_is_adjoint_of_z_oracle(self):
        lam = 0.01
        oz = quantize_regularized_oracle("z", lam, Weight(), IDENT, 6)
        ozb = quantize_regularized_oracle("zbar", lam, Weight(), IDENT, 6)
        assert np.max(np.abs(ozb - oz.conj().T)) <= 1e-12

    def test_unity_quantization_matches_analytic_diagonal(self):
        # diagonal (1+lam/2)^{-1} (1 - lam/(1+lam/2))^n, approaching 1 as
        # lam -> 0; off-diagonals vanish by the angular integral
        lam = 0.01
        orc = quantize_regularized_oracle("one", lam, Weight(), IDENT, 8)
        n = np.arange(len(orc))
        pred = (1 + lam / 2) ** (-1.0) * (1 - lam / (1 + lam / 2)) ** n
        assert np.max(np.abs(np.diag(orc) - pred)) <= 1e-10
        assert np.max(np.abs(orc - np.diag(np.diag(orc)))) <= 1e-12

    def test_unity_quantization_approaches_identity(self):
        orc = quantize_regularized_oracle("one", 1e-3, Weight(), IDENT, 8)
        k = indexing.dim(4)
        assert np.max(np.abs((orc - np.eye(len(orc)))[:k, :k])) <= 0.02

    def test_convergence_in_lambda(self):
        # entrywise bias shrinks linearly in the regularizer
        pair = pseudo_pair(IDENT, 6)
        k = indexing.dim(4)
        devs = []
        for lam in (0.02, 0.01, 0.005):
            orc = quantize_regularized_oracle("z", lam, Weight(), IDENT, 6)
            devs.append(np.max(np.abs((orc - pair.a_op.mat)[:k, :k])))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.55 * devs[1] + 1e-9

    def test_small_lambda_meets_two_percent_on_low_sectors(self):
        # at lam = 0.01 the mollifier bias e^{-lam n} exceeds 2% on
        # sectors <= 4; at lam = 1e-3, the regularizer of acceptance
        # criterion 11, the same comparison passes for a deformed pair too
        lam = 1e-3
        pair = pseudo_pair(SHEAR, 8)
        orc = quantize_regularized_oracle("z", lam, Weight(), SHEAR, 8)
        k = indexing.dim(4)
        dev = np.max(np.abs((orc - pair.a_op.mat)[:k, :k]))
        assert dev <= 0.02 * np.max(np.abs(pair.a_op.mat[:k, :k]))

    def test_deformed_oracle_follows_conjugation(self):
        lam = 0.01
        oc = quantize_regularized_oracle("z", lam, Weight(), IDENT, 6)
        og = quantize_regularized_oracle("z", lam, Weight(), SHEAR, 6)
        from pblab.gl2 import rep_full

        T = rep_full(SHEAR, 6)
        expect = T.mat @ oc @ np.linalg.inv(T.mat)
        assert np.max(np.abs(og - expect)) <= 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize_regularized_oracle("w", 0.01, Weight(), IDENT, 4)
        with pytest.raises(ValueError):
            quantize_regularized_oracle("z", -1.0, Weight(), IDENT, 4)
