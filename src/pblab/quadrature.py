"""Quadrature on the complex plane for the Gaussian measure and d^2z/pi.

Two measures appear throughout the package:

    dnu    = e^{-|z|^2} d^2z / pi      (normalized Gaussian measure)
    plane  = d^2z / pi                 (flat measure; integrand must decay)

A scheme is nodes plus positive weights for the measure its constructor
names, and ``integrate`` is their weighted sum.  Polynomial integrals
against dnu are exact: through moments (``exact_gaussian_moment``), or
through ``tensor_hermite_scheme`` when the degree is within its order.
``polar_scheme`` carries non-polynomial integrands against d^2z/pi, such as
weight functions and displacement kernels.  Schemes are immutable and node
evaluation order is fixed, so results are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import roots_laguerre

# float(n!) for n <= 170, correctly rounded; 171! overflows a double to inf
FACTORIALS = np.array([float(math.factorial(n)) for n in range(171)] + [math.inf])


def exact_gaussian_moment(a: int, b: int) -> int:
    """Moment integral of conj(z)^a z^b against dnu, as an exact integer: a! if a == b else 0."""
    if a < 0 or b < 0:
        raise ValueError(f"moment exponents must be non-negative, got ({a}, {b})")
    return math.factorial(a) if a == b else 0


@dataclass(frozen=True)
class PlaneScheme:
    """Nodes and positive weights for the measure the constructor names."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("scheme weights must be positive")


def tensor_hermite_scheme(n: int) -> PlaneScheme:
    """Tensor Gauss-Hermite scheme with n nodes per axis, native to dnu.

    Exact for integrands polynomial in (Re z, Im z) of total degree
    <= 2n - 1 against dnu.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    x, w = hermgauss(n)
    zx, zy = np.meshgrid(x, x, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    nodes = (zx + 1j * zy).ravel()
    weights = (wx * wy).ravel() / math.pi
    return PlaneScheme(nodes, weights)


def polar_scheme(nr: int, ntheta: int, radial_scale: float = 1.0) -> PlaneScheme:
    """Polar scheme native to d^2z/pi: Gauss-Laguerre in t = |z|^2, uniform angles.

    The radial rule is exact for integrands of the form
    e^{-radial_scale * t} * (polynomial in t of degree <= 2 nr - 1); the
    angular rule kills harmonics e^{i k theta} exactly for 0 < |k| < ntheta.
    ``radial_scale`` should match the integrand's dominant Gaussian decay.
    Nodes run radius-major: node i * ntheta + j sits at radius i, angle j.
    """
    if nr < 1 or ntheta < 1:
        raise ValueError(f"node counts must be >= 1, got ({nr}, {ntheta})")
    if radial_scale <= 0:
        raise ValueError(f"radial_scale must be positive, got {radial_scale}")
    u, w = roots_laguerre(nr)
    t = u / radial_scale
    # d^2z/pi = dt dtheta / (2 pi); fold e^{+u} into the weight so the rule
    # integrates f(t) dt for f ~ e^{-scale t} * poly
    radial_w = w * np.exp(u) / radial_scale
    theta = 2 * math.pi * np.arange(ntheta) / ntheta
    r = np.sqrt(t)
    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(radial_w / ntheta, ntheta)
    return PlaneScheme(nodes, weights)


def integrate(f, scheme: PlaneScheme) -> complex:
    """Weighted node sum of the vectorized f against the scheme's measure."""
    return complex(np.sum(scheme.weights * f(scheme.nodes)))
