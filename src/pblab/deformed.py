"""Deformed complex Hermite polynomials, their duals, norms, and growth.

Deforming with an invertible 2x2 matrix g sends the normalized monomial to
e_{n1,n2}(tg . (z, conj z)) and the polynomial family to

    h^g_{n1,n2} = exp(-d_z d_zbar) [ (g11 z + g21 zbar)^{n1}
                                     (g12 z + g22 zbar)^{n2} / sqrt(n1! n2!) ],

which equals the column expansion sum_{m'} T^L[m', n1](g) h_{m', L-m'} over
the undeformed family (L = n1 + n2).  Both construction routes are kept and
cross-checked.  The dual family uses the dual matrix (dagger g)^(-1); the two
families are biorthonormal against the Gaussian measure.

Squared norms obey the exact identity  |h^g_{n1,n2}|^2 = T-diagonal of
(dagger g) g  and sit inside explicit lower/upper bounds whose product grows
like (a d / |det g|^2)^L, the numerical signature that a non-diagonal
deformation never yields a Riesz basis.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import indexing
from .gl2 import GL2Matrix, dual, rep_block, rep_diag, rep_diag_log
from .hermite import PolyCoeffs, exp_contraction, hermite_sector, inner
from .quadrature import tensor_hermite_scheme


def _expanded_monomials(g: GL2Matrix, L: int, n1s) -> np.ndarray:
    """Grids of (g11 z + g21 zbar)^n1 (g12 z + g22 zbar)^(L-n1) / sqrt(n1! (L-n1)!)
    for n1 in n1s, stacked (len(n1s), L+1, L+1).

    The binomial coefficients are scalars, one per power; their products are
    taken as real and imaginary parts, so no fused multiply-add rounds them
    differently from a scalar complex product.  Only anti-diagonal entries
    [s, L-s] are nonzero, the products with j + l = s added in order of j.
    """
    first = np.zeros((len(n1s), L + 1), dtype=complex)
    second = np.zeros((len(n1s), L + 1), dtype=complex)
    for row, n1 in enumerate(n1s):
        n2 = L - n1
        first[row, : n1 + 1] = [math.comb(n1, j) * g.g11**j * g.g21 ** (n1 - j) for j in range(n1 + 1)]
        second[row, : n2 + 1] = [math.comb(n2, l) * g.g12**l * g.g22 ** (n2 - l) for l in range(n2 + 1)]
    a, b = first[:, :, None], second[:, None, :]
    products = np.empty((len(n1s), L + 1, L + 1), dtype=complex)
    products.real = a.real * b.real - a.imag * b.imag
    products.imag = a.real * b.imag + a.imag * b.real
    # sums[:, s] = sum_j products[:, j, s - j]; zero padding adds exact zeros
    sums = np.zeros((len(n1s), 2 * L + 1), dtype=complex)
    for j in range(L + 1):
        sums[:, j : j + L + 1] += products[:, j]
    norm = np.array([math.exp(-0.5 * (math.lgamma(n1 + 1) + math.lgamma(L - n1 + 1))) for n1 in n1s])
    out = np.zeros((len(n1s), L + 1, L + 1), dtype=complex)
    s = np.arange(L + 1)
    out[:, s, L - s] = sums[:, : L + 1] * norm[:, None]
    return out


def deformed_sector(g: GL2Matrix, L: int, n1s) -> np.ndarray:
    """Grids of h^g_{n1, L-n1} for n1 in n1s, stacked (len(n1s), L+1, L+1):
    one contraction of the stacked expanded monomials."""
    return exp_contraction(_expanded_monomials(g, L, n1s))


def combine_sector(cols: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """The grids sum_{m'} cols[m', i] grids[m'], one per column i, stacked.

    The terms are added onto zero in order of m'; a BLAS product would
    reorder the sum.
    """
    out = np.zeros((cols.shape[1],) + grids.shape[1:], dtype=complex)
    for row, grid in zip(cols, grids):
        out += row[:, None, None] * grid
    return out


def deformed_coeffs(g: GL2Matrix, n1: int, n2: int) -> PolyCoeffs:
    """h^g_{n1,n2} by expanding the deformed monomial and contracting."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"mode indices must be non-negative, got ({n1}, {n2})")
    return PolyCoeffs(deformed_sector(g, n1 + n2, [n1])[0])


def deformed_via_rep(g: GL2Matrix, n1: int, n2: int) -> PolyCoeffs:
    """h^g_{n1,n2} as the T^L-column combination of undeformed polynomials."""
    L = n1 + n2
    return PolyCoeffs(combine_sector(rep_block(g, L)[:, [n1]], hermite_sector(L))[0])


def family_values(g: GL2Matrix, L_max: int, z) -> np.ndarray:
    """Values h^g_n(z) at the points z, one row per flat index n < dim(L_max).

    exp(-d d_bar) w1 = (w1 - g11 d_bar - g21 d) exp(-d d_bar), with
    w1 = g11 z + g21 zbar, gives the recurrence in n1

        sqrt(n1+1) h_{n1+1,n2} = w1 h_{n1,n2} - 2 g11 g21 sqrt(n1) h_{n1-1,n2}
                                 - (g11 g22 + g12 g21) sqrt(n2) h_{n1,n2-1};

    the column h_{0,n2} obeys it in n2 with w2 = g12 z + g22 zbar and 2 g12 g22.
    """
    z = np.asarray(z, dtype=complex)
    w1 = g.g11 * z + g.g21 * z.conj()
    w2 = g.g12 * z + g.g22 * z.conj()
    mixed = g.g11 * g.g22 + g.g12 * g.g21
    root = np.sqrt(np.arange(L_max + 1)).reshape((-1,) + (1,) * z.ndim)
    # h[n1 + 1, n2 + 1] = h^g_{n1,n2}; row and column 0 stand in for index -1
    h = np.zeros((L_max + 2, L_max + 2) + z.shape, dtype=complex)
    h[1, 1] = 1.0
    for n2 in range(L_max):
        h[1, n2 + 2] = (w2 * h[1, n2 + 1] - 2 * g.g12 * g.g22 * root[n2] * h[1, n2]) / root[n2 + 1]
    for n1 in range(L_max):
        m = L_max - n1  # n2 < m keeps n1 + 1 + n2 <= L_max
        h[n1 + 2, 1 : m + 1] = (w1 * h[n1 + 1, 1 : m + 1] - 2 * g.g11 * g.g21 * root[n1] * h[n1, 1 : m + 1]
                                - mixed * root[:m] * h[n1 + 1, :m]) / root[n1 + 1]
    n1, n2 = np.array([indexing.unflatten(n) for n in range(indexing.dim(L_max))]).T
    return h[n1 + 1, n2 + 1]


def biorth_gram(g: GL2Matrix, L_max: int):
    """Gram matrix G[n, n'] = <dual_n, deformed_n'> over flat indices, plus
    its maximum deviation from the identity.

    conj(dual_n) deformed_n' has degree <= L_max in each of z and zbar, so
    tensor Gauss-Hermite with L_max + 1 nodes per axis integrates it
    exactly; the Gram is one product of node-value matrices.
    """
    scheme = tensor_hermite_scheme(L_max + 1)
    deformed_vals = family_values(g, L_max, scheme.nodes)
    dual_vals = family_values(dual(g), L_max, scheme.nodes)
    gram = (dual_vals.conj() * scheme.weights) @ deformed_vals.T
    deviation = float(np.max(np.abs(gram - np.eye(len(gram)))))
    return gram, deviation


def norm_sq(g: GL2Matrix, n1, n2):
    """Exact squared norm of h^g_{n1,n2} at the index arrays n1, n2: the
    T-diagonal of (dagger g) g."""
    return rep_diag(g.gram(), n1, n2).real


def dual_norm_sq(g: GL2Matrix, n1, n2):
    """Squared norm of the dual polynomial at the index arrays n1, n2: the
    T-diagonal of ((dagger g) g)^(-1)."""
    return rep_diag(g.gram().inv(), n1, n2).real


def norm_sq_inner(g: GL2Matrix, n1: int, n2: int) -> float:
    """Squared norm by exact moments of the coefficient grid (grid route)."""
    p = deformed_coeffs(g, n1, n2)
    return inner(p, p).real


def norm_identity_deviation(g: GL2Matrix, L_values) -> float:
    """Max relative gap between the exact squared norm and its integral on
    the node values of ``biorth_gram``'s scheme (exact, as |h^g_n|^2 has
    degree <= L_max in each of z and zbar) over n1 + n2 in L_values."""
    L_max = max(L_values)
    scheme = tensor_hermite_scheme(L_max + 1)
    values = family_values(g, L_max, scheme.nodes)
    flat = [n for L in L_values for n in indexing.sector_range(L)]
    integrated = np.abs(values[flat]) ** 2 @ scheme.weights
    exact = norm_sq(g, *np.array([indexing.unflatten(n) for n in flat]).T)
    return float(np.max(np.abs(exact - integrated) / np.abs(exact)))


@dataclass(frozen=True)
class NormBounds:
    """Log-domain values of the norm-squared bound sandwich, one per index."""

    log_lower: np.ndarray
    log_upper: np.ndarray
    log_lower_dual: np.ndarray
    log_upper_dual: np.ndarray

    @property
    def lower(self) -> np.ndarray:
        return np.exp(self.log_lower)

    @property
    def upper(self) -> np.ndarray:
        return np.exp(self.log_upper)


def norm_bounds(g: GL2Matrix, n1, n2) -> NormBounds:
    """Bound sandwich at the index arrays n1, n2 (broadcast together), with
    a = (g^dag g)_11, d = (g^dag g)_22:

        a^{n1} d^{n2} / sqrt(pi min(n1,n2)) <= |h^g|^2 <= C(L,n1) a^{n1} d^{n2},

    and the dual version scaled by |det g|^{-2L} with a and d exchanged.
    The lower bound is asymptotic in min(n1, n2); min(n1, n2) = 0 is
    rejected since the 1/sqrt factor degenerates there (the exact value is
    then just the leading product).
    """
    n1, n2 = np.broadcast_arrays(n1, n2)
    low = np.minimum(n1, n2)
    if np.any(low < 1):
        raise ValueError("bound sandwich needs min(n1, n2) >= 1")
    gram = g.gram()
    log_a, log_d = math.log(gram.g11.real), math.log(gram.g22.real)
    log_det = math.log(gram.det.real)  # |det g|^2 = det(g^dag g)
    half_log_min = 0.5 * np.log(math.pi * low)
    base = n1 * log_a + n2 * log_d
    base_dual = n1 * log_d + n2 * log_a - (n1 + n2) * log_det
    lb = gammaln(n1 + n2 + 1) - gammaln(n1 + 1) - gammaln(n2 + 1)
    return NormBounds(base - half_log_min, base + lb, base_dual - half_log_min, base_dual + lb)


# roundoff allowance of the log-domain sums when a sandwich is tested
NORM_BOUND_LOG_SLACK = 1e-10


def norm_bound_violation(g: GL2Matrix, n1, n2) -> np.ndarray:
    """Worst log-domain violation (lower - value or value - upper) of the
    bound sandwich over the deformed and the dual family, at each of the
    index arrays n1, n2; both hold where it is <= NORM_BOUND_LOG_SLACK, and
    a NaN term gives NaN."""
    nb = norm_bounds(g, n1, n2)
    gram = g.gram()
    val, dval = rep_diag_log(gram, n1, n2), rep_diag_log(gram.inv(), n1, n2)
    terms = [nb.log_lower - val, val - nb.log_upper, nb.log_lower_dual - dval, dval - nb.log_upper_dual]
    return np.max(terms, axis=0)


def riesz_growth(g: GL2Matrix, L_list) -> list[dict]:
    """Norm-product growth table along the sector diagonal n1 = floor(L/2).

    Each row carries the log squared norms, their log product, the lower
    bound (1/(pi min)) (a d/|det g|^2)^L, and the product growth ratio
    relative to the previous row.  For diagonal or unitary g the product is
    identically 1; otherwise it grows like (a d / |det g|^2)^L > 1.
    """
    gram = g.gram()
    a, d = gram.g11.real, gram.g22.real
    log_det = math.log(gram.det.real)
    Ls = np.asarray(L_list, dtype=int)
    norms = rep_diag_log(gram, Ls // 2, Ls - Ls // 2).tolist()
    dual_norms = rep_diag_log(gram.inv(), Ls // 2, Ls - Ls // 2).tolist()
    rows = []
    prev = None
    for L, log_ns, log_dns in zip(L_list, norms, dual_norms):
        n1 = L // 2
        n2 = L - n1
        log_product = log_ns + log_dns
        log_lower = L * (math.log(a) + math.log(d) - log_det) - math.log(
            math.pi * max(1, min(n1, n2))
        )
        ratio = math.exp(log_product - prev) if prev is not None else float("nan")
        rows.append(
            {
                "L": L,
                "n1": n1,
                "n2": n2,
                "log_norm_sq": log_ns,
                "log_dual_norm_sq": log_dns,
                "log_product": log_product,
                "log_lower_bound": log_lower,
                "growth_ratio": ratio,
            }
        )
        prev = log_product
    return rows
