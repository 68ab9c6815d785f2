"""Normalized complex Hermite polynomials as exact coefficient grids.

A polynomial in the pair (z, conj z) is stored as a dense grid c[j, k] of
coefficients of z^j conj(z)^k.  The normalized complex Hermite polynomial
with mode label (n1, n2) is

    h_{n1,n2}(z) = (n1! n2!)^{-1/2} sum_{k=0}^{min(n1,n2)}
                   (-1)^k k! C(n1,k) C(n2,k) z^{n1-k} conj(z)^{n2-k},

equivalently the image of the normalized monomial z^{n1} conj(z)^{n2} under
the contraction operator exp(-d/dz d/dconj z).  Inner products against the
Gaussian measure dnu are evaluated exactly through moment contraction; the
float orthonormality check integrates node values instead
(``deformed.biorth_gram`` at g = I).

An integer backend is provided for golden tests: the unnormalized grid of
sqrt(n1! n2!) h_{n1,n2} has integer coefficients and integer Gaussian inner
products, making the orthonormality defect exactly zero in exact arithmetic.
"""

import functools
import math

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .quadrature import FACTORIALS, exact_gaussian_moment


class PolyCoeffs:
    """Dense coefficient grid of a polynomial in z and conj(z)."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        arr = np.array(coeff, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("coefficient grid must be two-dimensional")
        self.coeff = _trim(arr)

    @classmethod
    def monomial(cls, j: int, k: int, c=1.0) -> "PolyCoeffs":
        """c * z^j * conj(z)^k."""
        if j < 0 or k < 0:
            raise ValueError(f"monomial degrees must be non-negative, got ({j}, {k})")
        grid = np.zeros((j + 1, k + 1), dtype=complex)
        grid[j, k] = c
        return cls(grid)

    @property
    def deg_z(self) -> int:
        return self.coeff.shape[0] - 1

    @property
    def deg_zbar(self) -> int:
        return self.coeff.shape[1] - 1

    def __add__(self, other: "PolyCoeffs") -> "PolyCoeffs":
        rows = max(self.coeff.shape[0], other.coeff.shape[0])
        cols = max(self.coeff.shape[1], other.coeff.shape[1])
        grid = np.zeros((rows, cols), dtype=complex)
        grid[: self.coeff.shape[0], : self.coeff.shape[1]] += self.coeff
        grid[: other.coeff.shape[0], : other.coeff.shape[1]] += other.coeff
        return PolyCoeffs(grid)

    def __sub__(self, other: "PolyCoeffs") -> "PolyCoeffs":
        return self + other.scaled(-1.0)

    def scaled(self, c) -> "PolyCoeffs":
        return PolyCoeffs(self.coeff * c)

    def __call__(self, z) -> complex:
        """Value of sum c[j,k] z^j conj(z)^k at the point z."""
        return complex(polyval2d(z, np.conj(z), self.coeff))

    def __repr__(self):
        return f"PolyCoeffs(deg_z={self.deg_z}, deg_zbar={self.deg_zbar})"


def _trim(arr: np.ndarray) -> np.ndarray:
    rows, cols = arr.shape
    while rows > 1 and not arr[rows - 1, :cols].any():
        rows -= 1
    while cols > 1 and not arr[:rows, cols - 1].any():
        cols -= 1
    return np.ascontiguousarray(arr[:rows, :cols])


def monomial_basis(n1: int, n2: int) -> PolyCoeffs:
    """Normalized monomial z^{n1} conj(z)^{n2} / sqrt(n1! n2!)."""
    norm = math.exp(-0.5 * (math.lgamma(n1 + 1) + math.lgamma(n2 + 1)))
    return PolyCoeffs.monomial(n1, n2, norm)


def hermite_coeffs(n1: int, n2: int) -> PolyCoeffs:
    """Coefficient grid of the normalized complex Hermite polynomial h_{n1,n2}."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"mode indices must be non-negative, got ({n1}, {n2})")
    grid = np.zeros((n1 + 1, n2 + 1), dtype=complex)
    for k in range(min(n1, n2) + 1):
        grid[n1 - k, n2 - k] = (-1) ** k * math.factorial(k) * math.comb(n1, k) * math.comb(n2, k)
    norm = math.exp(-0.5 * (math.lgamma(n1 + 1) + math.lgamma(n2 + 1)))
    return PolyCoeffs(grid * norm)


def sector_stack(polys, L: int) -> np.ndarray:
    """Grids of polynomials of degree <= L in z and in conj(z), zero-padded
    to (L+1)x(L+1) and stacked: shape (len(polys), L+1, L+1)."""
    out = np.zeros((len(polys), L + 1, L + 1), dtype=complex)
    for grid, p in zip(out, polys):
        rows, cols = p.coeff.shape
        grid[:rows, :cols] = p.coeff
    return out


@functools.lru_cache(maxsize=13)
def hermite_sector(L: int) -> np.ndarray:
    """The grids of h_{m, L-m} for m = 0..L, stacked by ``sector_stack``;
    built once per L (the last 13 kept, so every L <= 12) and read-only."""
    out = sector_stack([hermite_coeffs(m, L - m) for m in range(L + 1)], L)
    out.flags.writeable = False
    return out


def exp_contraction(c: np.ndarray) -> np.ndarray:
    """Apply exp(-d/dz d/dconj z) exactly to a coefficient grid, or to every
    grid of a stack of shape (..., rows, cols); the result has c's shape.

    The operator is the terminating sum over t of (-1)^t/t! (d/dz d/dzbar)^t,
    which maps c[j+t, k+t] into c[j, k] with weight
    w_t[j, k] = (-1)^t/t! * (j+t)!/j! * (k+t)!/k!.  The weights are built as
    w_t = w_{t-1} * (-(j+t)(k+t)/t) and the terms are added onto zero in
    order of t, so stacking a grid or padding it with zeros changes none of
    its entries.
    """
    c = np.asarray(c, dtype=complex)
    rows, cols = c.shape[-2:]
    j, k = np.arange(rows)[:, None], np.arange(cols)
    out = np.zeros_like(c)
    weight = np.ones((rows, cols))
    for t in range(min(rows, cols)):
        if t > 0:
            weight = weight[:-1, :-1] * (-(j[: rows - t] + t) * (k[: cols - t] + t) / t)
        out[..., : rows - t, : cols - t] += weight * c[..., t:, t:]
    return out


def hermite_via_contraction(n1: int, n2: int) -> PolyCoeffs:
    """h_{n1,n2} built by contracting the normalized monomial (cross-check route)."""
    return PolyCoeffs(exp_contraction(monomial_basis(n1, n2).coeff))


def inner(p: PolyCoeffs, q: PolyCoeffs) -> complex:
    """Exact Gaussian inner product <p, q> = int conj(p) q dnu via moments.

    Writing conj(p) = sum conj(P[j,k]) z^k conj(z)^j, the monomial pairing
    integrates to (k + j')! when k + j' = j + k' and to zero otherwise, so
    only coefficient diagonals of equal charge j - k couple.
    """
    P, Q = p.coeff, q.coeff
    d_min = max(-(P.shape[1] - 1), -(Q.shape[1] - 1))
    d_max = min(P.shape[0] - 1, Q.shape[0] - 1)
    total = 0.0 + 0.0j
    for d in range(d_min, d_max + 1):
        vp = np.diagonal(P, offset=-d)  # entries P[j, j-d]
        vq = np.diagonal(Q, offset=-d)
        jp = np.arange(len(vp)) + max(d, 0)  # z-degrees along the diagonal
        jq = np.arange(len(vq)) + max(d, 0)
        # moment exponent (j - d) + j' for p-index j, q-index j'
        expo = jp[:, None] + jq[None, :] - d
        moments = FACTORIALS[np.minimum(expo, 171)]
        total += vp.conj() @ moments @ vq
    return complex(total)


# -- exact integer backend ---------------------------------------------------

def hermite_terms_exact(n1: int, n2: int) -> dict[tuple[int, int], int]:
    """Integer coefficient grid of the unnormalized sqrt(n1! n2!) h_{n1,n2}."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"mode indices must be non-negative, got ({n1}, {n2})")
    return {
        (n1 - k, n2 - k): (-1) ** k * math.factorial(k) * math.comb(n1, k) * math.comb(n2, k)
        for k in range(min(n1, n2) + 1)
    }


def inner_exact(p: dict[tuple[int, int], int], q: dict[tuple[int, int], int]):
    """Exact Gaussian inner product of sparse real-coefficient term maps."""
    total = 0
    for (j, k), cp in p.items():
        for (jq, kq), cq in q.items():
            total += cp * cq * exact_gaussian_moment(j + kq, k + jq)
    return total
