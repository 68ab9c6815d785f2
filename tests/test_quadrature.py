import math

import numpy as np
import pytest

from pblab.quadrature import (
    PlaneScheme,
    exact_gaussian_moment,
    integrate,
    polar_scheme,
    tensor_hermite_scheme,
)

from oracles import gaussian_moment


def gaussian(z):
    """Density of dnu against d^2z/pi."""
    return np.exp(-np.abs(z) ** 2)


class TestGaussianMoment:
    def test_normalization(self):
        assert gaussian_moment(0, 0) == 1.0

    def test_angular_vanishing(self):
        assert gaussian_moment(1, 2) == 0.0
        assert gaussian_moment(0, 5) == 0.0

    def test_diagonal_is_factorial(self):
        # radial integral of t^a e^{-t} dt = a!
        assert gaussian_moment(2, 2) == 2.0
        assert gaussian_moment(5, 5) == 120.0
        assert exact_gaussian_moment(20, 20) == math.factorial(20)
        assert gaussian_moment(170, 170) == float(math.factorial(170))
        assert gaussian_moment(171, 171) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1, 0)


class TestSchemes:
    def test_tensor_hermite_moment_exactness(self):
        n = 8
        sch = tensor_hermite_scheme(n)
        for a in range(8):
            for b in range(8):
                if a + b > 2 * n - 2:
                    continue
                val = integrate(lambda z: np.conj(z) ** a * z**b, sch)
                ref = gaussian_moment(a, b)
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [9, 21])
    def test_tensor_hermite_exact_to_order(self, n):
        sch = tensor_hermite_scheme(n)
        zb, z = np.conj(sch.nodes), sch.nodes
        for a in range(2 * n):
            for b in range(2 * n - a):
                val = integrate(lambda _: zb**a * z**b, sch)
                # scale: the integral of the modulus |z|^(a+b), which is a! when a == b
                scale = math.gamma((a + b) / 2 + 1)
                assert abs(val - gaussian_moment(a, b)) <= 1e-13 * max(1.0, scale), (a, b)

    def test_tensor_hermite_zzbar(self):
        sch = tensor_hermite_scheme(8)
        assert abs(integrate(lambda z: z * np.conj(z), sch) - 1.0) < 1e-14

    def test_polar_half_gaussian_against_plane(self):
        # int e^{-|z|^2/2} d^2z/pi = 2
        sch = polar_scheme(64, 64)
        val = integrate(lambda z: np.exp(-np.abs(z) ** 2 / 2), sch)
        assert abs(val - 2.0) < 1e-10

    def test_polar_radial_scale_matches_integrand(self):
        sch = polar_scheme(32, 16, radial_scale=0.5)
        val = integrate(lambda z: np.exp(-np.abs(z) ** 2 / 2), sch)
        assert abs(val - 2.0) < 1e-13

    def test_zero_function(self):
        for sch in (tensor_hermite_scheme(4), polar_scheme(8, 8)):
            assert integrate(lambda z: 0.0 * z, sch) == 0.0

    def test_unit_function_against_dnu(self):
        assert abs(integrate(lambda z: 1.0 + 0 * z, tensor_hermite_scheme(12)) - 1.0) < 1e-12
        assert abs(integrate(gaussian, polar_scheme(24, 8)) - 1.0) < 1e-12

    def test_polar_moments_against_dnu(self):
        sch = polar_scheme(32, 32)
        for a, b in [(0, 0), (1, 1), (3, 3), (2, 4), (5, 0)]:
            val = integrate(lambda z: np.conj(z) ** a * z**b * gaussian(z), sch)
            assert abs(val - gaussian_moment(a, b)) <= 1e-12 * max(1.0, gaussian_moment(a, a))

    def test_weight_operator_diagonal_seed_case(self):
        # s = -1, n = 0 slice of the isotropic weight family: value 1
        sch = polar_scheme(48, 8)
        val = integrate(gaussian, sch)
        assert abs(val - 1.0) < 1e-12

    def test_scheme_constructors_and_validation(self):
        # radius-major node order, which the quantization oracle reshapes by
        radii = np.abs(polar_scheme(8, 4, radial_scale=2.0).nodes).reshape(8, 4)
        assert np.all(radii == radii[:, :1]) and np.all(np.diff(radii[:, 0]) > 0)
        assert tensor_hermite_scheme(3).nodes.shape == (9,)
        with pytest.raises(ValueError):
            polar_scheme(0, 4)
        with pytest.raises(ValueError):
            tensor_hermite_scheme(0)
        with pytest.raises(ValueError):
            polar_scheme(4, 4, radial_scale=-1.0)

    def test_weights_positive_invariant(self):
        for sch in (tensor_hermite_scheme(16), polar_scheme(64, 64)):
            assert np.all(sch.weights > 0)
        with pytest.raises(ValueError):
            PlaneScheme(np.array([0j]), np.array([-1.0]))

