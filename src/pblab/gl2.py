"""Finite-dimensional representations of invertible 2x2 complex matrices on
homogeneous polynomials of degree L, assembled block-diagonally over sectors.

The canonical definition of the block matrix element is the binomial q-sum

    T^L[m', m](g) = sum_q C(m, q) C(L-m, m'-q)
                    g11^q g21^(m-q) g12^(m'-q) g22^(L-m+q-m'),

with q running over max(0, m'+m-L) <= q <= min(m', m).  The diagonal element
also has a Jacobi-polynomial closed form,

    T^L[n1,n2; n1,n2](h) = (det h)^{n1} h22^{n2-n1}
                           P_{n1}^{(0, n2-n1)}(1 + 2 h12 h21 / det h),

kept as an independent cross-check, plus a log-domain evaluation for positive
Hermitian h that stays finite far beyond double-precision range (every term
of the q-sum is then non-negative, so log-sum-exp is stable).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import indexing
from .special import jacobi_sum, log_binomial, log_sum_exp


@dataclass(frozen=True)
class GL2Matrix:
    """Invertible 2x2 complex matrix with cached determinant."""

    g11: complex
    g12: complex
    g21: complex
    g22: complex

    def __post_init__(self):
        scale = max(abs(self.g11), abs(self.g12), abs(self.g21), abs(self.g22))
        if scale == 0 or abs(self.det) <= 1e-12 * scale**2:
            raise ValueError("matrix is singular within tolerance")

    @cached_property
    def det(self) -> complex:
        return self.g11 * self.g22 - self.g12 * self.g21

    @classmethod
    def from_array(cls, mat) -> "GL2Matrix":
        m = np.asarray(mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def identity(cls) -> "GL2Matrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, a, d) -> "GL2Matrix":
        return cls(a, 0.0, 0.0, d)

    def as_array(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g21, self.g22]], dtype=complex)

    def inv(self) -> "GL2Matrix":
        d = self.det
        return GL2Matrix(self.g22 / d, -self.g12 / d, -self.g21 / d, self.g11 / d)

    def dagger(self) -> "GL2Matrix":
        return GL2Matrix(
            np.conj(self.g11), np.conj(self.g21), np.conj(self.g12), np.conj(self.g22)
        )

    def gram(self) -> "GL2Matrix":
        """The positive Hermitian product (dagger g) g."""
        return GL2Matrix.from_array(self.dagger().as_array() @ self.as_array())

    def cond(self) -> float:
        return float(np.linalg.cond(self.as_array()))

    def is_positive_hermitian(self, tol: float = 1e-12) -> bool:
        m = self.as_array()
        scale = max(1.0, float(np.max(np.abs(m))))
        hermitian = np.allclose(m, m.conj().T, atol=tol * scale)
        return bool(hermitian and m[0, 0].real > 0 and self.det.real > 0)

    def __matmul__(self, other: "GL2Matrix") -> "GL2Matrix":
        return GL2Matrix.from_array(self.as_array() @ other.as_array())


def dual(g: GL2Matrix) -> GL2Matrix:
    """The dual matrix (dagger g)^(-1); an involution, identity on unitaries."""
    return g.dagger().inv()


def random_gl2(rng: np.random.Generator, sigma_min: float = 1 / 3, sigma_max: float = 3.0) -> GL2Matrix:
    """Well-conditioned random matrix with singular values in [sigma_min, sigma_max].

    Built as U diag(s) V* with Haar-ish unitaries from QR of Gaussian draws.
    """
    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    s = rng.uniform(sigma_min, sigma_max, size=2)
    return GL2Matrix.from_array(unitary() @ np.diag(s) @ unitary())


@lru_cache(maxsize=128)
def _sector_tables(L: int):
    """Read-only tables of sector L: the binomials C(m, q) (zero for q > m)
    in extended precision, the exponent m - q clipped at 0, and the
    normalization ratio sqrt(m'! (L-m')! / (m! (L-m)!)) indexed [m', m],
    rounded once from exact integer quotients."""
    binom = np.array(
        [[math.comb(m, q) for q in range(L + 1)] for m in range(L + 1)], dtype=np.longdouble
    )
    q = np.arange(L + 1)
    rest = np.clip(q[:, None] - q[None, :], 0, None)
    fact = [math.factorial(m) * math.factorial(L - m) for m in range(L + 1)]
    ratio = np.sqrt([[fp / f for f in fact] for fp in fact])
    for table in (binom, rest, ratio):
        table.setflags(write=False)
    return binom, rest, ratio


def rep_block(g: GL2Matrix, L: int) -> np.ndarray:
    """The (L+1)x(L+1) representation block on the orthonormal sector basis,
    indexed [m', m], by the binomial q-sum.

    Column m of the q-sum holds the coefficients of the polynomial
    (g11 x + g21)^m (g12 x + g22)^(L-m), so it is the convolution of two
    binomial power rows.  The rows and the convolution are formed in
    ``np.clongdouble``: near-unitary g makes the q-sum cancel by up to
    about 1e-8 of the block maximum at L = 60, and the 64-bit mantissa of
    x86-64 extended precision absorbs that before the one rounding to
    complex128.  (Where
    ``np.clongdouble`` is complex128 the sum is plain double precision.)

    The q-sum alone is the matrix on plain monomials x1^m x2^(L-m); on unit
    vectors each entry additionally carries the normalization ratio
    sqrt(m'! (L-m')! / (m! (L-m)!)).  Only the normalized matrix satisfies
    the conjugate-transpose star law and the biorthogonality identities, so
    that is what this artifact calls T^L(g).  Diagonal entries are unaffected.
    """
    if L < 0:
        raise ValueError(f"sector degree must be non-negative, got {L}")
    binom, rest, ratio = _sector_tables(L)
    # powers q = 0..L of g11, g21, g12, g22; row m of first (second) holds
    # the coefficients C(m, q) a^q b^(m-q) of (g11 x + g21)^m ((g12 x + g22)^m)
    powers = np.empty((4, L + 1), dtype=np.clongdouble)
    powers[:, 0] = 1
    powers[:, 1:] = np.array([[g.g11], [g.g21], [g.g12], [g.g22]], dtype=np.clongdouble)
    np.cumprod(powers, axis=1, out=powers)
    first, second = binom * powers[::2, None, :] * powers[1::2, rest]
    out = np.empty((L + 1, L + 1), dtype=np.clongdouble)
    for m in range(L + 1):
        out[:, m] = np.convolve(first[m, : m + 1], second[L - m, : L - m + 1])
    return out.astype(complex) * ratio


def homomorphism_deviation(a: GL2Matrix, b: GL2Matrix, L: int) -> float:
    """Max |T^L(a) T^L(b) - T^L(ab)|, relative to max(1, max |T^L(ab)|)."""
    tab = rep_block(a @ b, L)
    scale = max(1.0, float(np.max(np.abs(tab))))
    return float(np.max(np.abs(rep_block(a, L) @ rep_block(b, L) - tab))) / scale


def inverse_deviation(g: GL2Matrix, L: int) -> float:
    """Max |T^L(g^{-1}) T^L(g) - I| (absolute)."""
    return float(np.max(np.abs(rep_block(g.inv(), L) @ rep_block(g, L) - np.eye(L + 1))))


def star_deviation(g: GL2Matrix, L: int) -> float:
    """Max |T^L(dagger g) - T^L(g)^dag|, relative to max(1, max |T^L(g)|)."""
    tg = rep_block(g, L)
    scale = max(1.0, float(np.max(np.abs(tg))))
    return float(np.max(np.abs(rep_block(g.dagger(), L) - tg.conj().T))) / scale


def rep_diag(h: GL2Matrix, n1: int, n2: int, require_positive: bool = False) -> complex:
    """Diagonal element at (n1, n2) via the Jacobi-polynomial closed form.

    For n1 > n2 the 1 <-> 2 exchange symmetry of the diagonal is used so the
    Jacobi superscript stays non-negative.  Agrees with rep_block's diagonal
    entry for every invertible h; with ``require_positive`` the input must be
    positive Hermitian (the norm-identity use case).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"indices must be non-negative, got ({n1}, {n2})")
    if require_positive and not h.is_positive_hermitian():
        raise ValueError("positive Hermitian input required")
    if n1 > n2:
        h = GL2Matrix(h.g22, h.g21, h.g12, h.g11)
        n1, n2 = n2, n1
    x = 1 + 2 * h.g12 * h.g21 / h.det
    val = h.det**n1 * h.g22 ** (n2 - n1) * jacobi_sum(n1, 0, n2 - n1, x)
    return complex(val)


def _positive_parts(h: GL2Matrix):
    if not h.is_positive_hermitian():
        raise ValueError("positive Hermitian input required for log-domain evaluation")
    h11 = h.g11.real
    h22 = h.g22.real
    r = abs(h.g12) ** 2 / (h11 * h22)
    return h11, h22, r


def diag_log_from_parts(h11: float, h22: float, r: float, n1: int, n2: int) -> float:
    """ln of the diagonal element given the invariants (h11, h22, r) directly.

    Uses the symmetric expansion
        h11^{n1} h22^{n2} sum_m C(n1, m) C(n2, m) r^m,  r = |h12|^2/(h11 h22),
    whose terms are all non-negative, via log-sum-exp.  Accepts any r >= 0
    including the degenerate r = 1, where the sum collapses to C(n1+n2, n1).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"indices must be non-negative, got ({n1}, {n2})")
    if h11 <= 0 or h22 <= 0 or r < 0:
        raise ValueError("need h11, h22 > 0 and r >= 0")
    base = n1 * math.log(h11) + n2 * math.log(h22)
    if r == 0:
        return base
    log_r = math.log(r)
    terms = [
        log_binomial(n1, m) + log_binomial(n2, m) + m * log_r
        for m in range(min(n1, n2) + 1)
    ]
    return base + log_sum_exp(terms)


def rep_diag_log(h: GL2Matrix, n1: int, n2: int) -> float:
    """ln of the diagonal element for positive Hermitian h, any size of (n1, n2)."""
    h11, h22, r = _positive_parts(h)
    return diag_log_from_parts(h11, h22, r, n1, n2)


def _sector_slice(L: int) -> slice:
    r = indexing.sector_range(L)
    return slice(r.start, r.stop)


@dataclass(frozen=True)
class BlockDiagOperator:
    """Direct sum of representation blocks over sectors L = 0..L_max.

    Block boundaries coincide with the flat-index sector ranges, so the dense
    form acts on truncated Fock coefficient vectors.  Inverses and duals come
    from the group law: T(g)^{-1} = T(g^{-1}), (T(g)^dag)^{-1} = T(dual(g)).
    """

    L_max: int
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != self.L_max + 1:
            raise ValueError("need one block per sector")
        for L, b in enumerate(self.blocks):
            if b.shape != (L + 1, L + 1):
                raise ValueError(f"sector {L} block has shape {b.shape}")

    @property
    def dim(self) -> int:
        return indexing.dim(self.L_max)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for L, block in enumerate(self.blocks):
            sl = _sector_slice(L)
            out[sl, sl] = block
        return out

    def dagger(self) -> "BlockDiagOperator":
        return BlockDiagOperator(self.L_max, tuple(b.conj().T for b in self.blocks))

    def __matmul__(self, other: "BlockDiagOperator") -> "BlockDiagOperator":
        if other.L_max != self.L_max:
            raise ValueError("sector truncations differ")
        return BlockDiagOperator(
            self.L_max, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T x, block by block, for a flat vector or a matrix whose rows are
        flat indices."""
        out = np.empty(x.shape, dtype=complex)
        for L, block in enumerate(self.blocks):
            sl = _sector_slice(L)
            out[sl] = block @ x[sl]
        return out

    def apply_right(self, x: np.ndarray) -> np.ndarray:
        """x T, block by block, for a matrix whose columns are flat indices.

        With ``apply`` and T_inv = rep_full(g.inv(), L_max) this gives
        T X T^{-1} as ``T.apply(T_inv.apply_right(X))`` at
        O(d sum_L (L+1)^2) instead of the O(d^3) of dense products.
        """
        out = np.empty(x.shape, dtype=complex)
        for L, block in enumerate(self.blocks):
            sl = _sector_slice(L)
            out[:, sl] = x[:, sl] @ block
        return out

    def to_json(self) -> dict:
        return {
            "L_max": self.L_max,
            "blocks": [
                [[[float(c.real), float(c.imag)] for c in row] for row in b] for b in self.blocks
            ],
        }


def rep_full(g: GL2Matrix, L_max: int) -> BlockDiagOperator:
    """Block-diagonal representation operator on the truncation L <= L_max."""
    if L_max < 0:
        raise ValueError(f"L_max must be non-negative, got {L_max}")
    return BlockDiagOperator(L_max, tuple(rep_block(g, L) for L in range(L_max + 1)))
