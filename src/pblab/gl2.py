"""Finite-dimensional representations of invertible 2x2 complex matrices on
homogeneous polynomials of degree L, assembled block-diagonally over sectors.

The canonical definition of the block matrix element is the binomial q-sum

    T^L[m', m](g) = sum_q C(m, q) C(L-m, m'-q)
                    g11^q g21^(m-q) g12^(m'-q) g22^(L-m+q-m'),

with q running over max(0, m'+m-L) <= q <= min(m', m).  The sum is the
definition, not the route: on near-unitary g its terms cancel, to about 1e-5
of the block maximum at L = 100 even with a 64-bit mantissa.  Column m of the
q-sum holds the coefficients of (g11 x + g21)^m (g12 x + g22)^(L-m), so
``rep_block`` and ``rep_full`` build it by a degree recursion that multiplies
by one linear factor per degree, the Sym^L analogue of the large-degree
Wigner-d recursions (Risbo 1996; Gumerov and Duraiswami 2014); its error
there stays under 2e-12.  The recursion runs in float64 when every entry of
g has zero imaginary part, since then every block is real, and in complex128
otherwise; the float64 blocks equal the real parts of the complex128 ones,
because a complex product or sum of numbers with zero imaginary parts rounds
its real part exactly as the real operation does.  The diagonal element has
the closed form

    T^L[n1,n2; n1,n2](h) = sum_k C(n1, k) C(n2, k) h11^{n1-k} h22^{n2-k} (h12 h21)^k,

the Jacobi form (det h)^{n1} h22^{n2-n1} P_{n1}^{(0, n2-n1)}(1 + 2 h12 h21 / det h)
expanded, which ``rep_diag`` evaluates over whole index arrays, and which
``rep_diag_log`` sums in the log domain for positive Hermitian h, where
every term is non-negative, so log-sum-exp is stable and stays finite far
beyond double-precision range.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import binom, gammaln, logsumexp, xlogy

from . import indexing


@dataclass(frozen=True)
class GL2Matrix:
    """Invertible 2x2 complex matrix with cached determinant and gram."""

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

    def gram(self) -> "GL2Matrix":
        """The positive Hermitian product (dagger g) g, built once per instance."""
        return self._gram

    @cached_property
    def _gram(self) -> "GL2Matrix":
        return GL2Matrix.from_array(self.dagger().as_array() @ self.as_array())

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

    def cond(self) -> float:
        return float(np.linalg.cond(self.as_array()))

    def is_positive_hermitian(self) -> bool:
        m = self.as_array()
        scale = max(1.0, float(np.max(np.abs(m))))
        hermitian = np.allclose(m, m.conj().T, atol=1e-12 * scale)
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


def _entries(g: GL2Matrix) -> np.ndarray:
    """(g11, g12, g21, g22) in float64 when all four have zero imaginary
    part, else in complex128."""
    entries = np.array([g.g11, g.g12, g.g21, g.g22], dtype=complex)
    return entries if entries.imag.any() else entries.real


def _degree_steps(g: GL2Matrix, L_max: int):
    """Yield one (L_max+1)x(L_max+1) buffer after each degree k = 0..L_max;
    after step k it holds every plain-monomial column of sector k.

    Buffer column j builds the polynomial (g11 x + g21)^j (g12 x + g22)^(L_max-j)
    one linear factor per step, each entry the sum of two terms.  For its
    first 2 min(j, L_max-j) steps it alternates (g11 x + g21) on odd steps
    and (g12 x + g22) on even ones, so after step k columns
    0..ceil(k/2)-1 hold sector k's columns m = j, and columns
    L_max-k+ceil(k/2)..L_max hold its columns m = j-(L_max-k).  Taking all
    factors of one kind first instead lets the error grow like
    eps sqrt(C(L, m)).  The same buffer is updated in place and yielded; it
    is float64 when every entry of g is real in value, complex128 otherwise.
    """
    entries = _entries(g)
    g11, g12, g21, g22 = entries
    k = np.arange(1, L_max + 1)
    # step k applies (g11 x + g21) to the columns j >= split[k-1]
    split = np.where(k % 2, (k + 1) // 2, L_max + 1 - k // 2)
    first = np.arange(L_max + 1) >= split[:, None]
    lead, const = np.where(first, g11, g12), np.where(first, g21, g22)
    buf = np.zeros((L_max + 1, L_max + 1), dtype=entries.dtype)
    buf[0] = 1
    yield buf
    for k, (a, b) in enumerate(zip(lead, const), 1):
        shifted = a * buf[:k]
        buf[: k + 1] *= b
        buf[1 : k + 1] += shifted
        yield buf


# the largest degree whose binomials C(L, m) fit a double (C(1030, 515) ~ 2.9e308)
MAX_DEGREE = 1029


def _check_degree(L: int) -> None:
    if not 0 <= L <= MAX_DEGREE:
        raise ValueError(f"degree {L} outside 0..{MAX_DEGREE}, where binomials C(L, m) fit a double")


def _normalized(monomial: np.ndarray, L: int, out=None) -> np.ndarray:
    """Sector L's plain-monomial block times sqrt(C(L, m) / C(L, m'))."""
    binom = np.array([math.comb(L, m) for m in range(L + 1)], dtype=float)
    return np.multiply(monomial, np.sqrt(binom / binom[:, None]), out=out)


def rep_block(g: GL2Matrix, L: int) -> np.ndarray:
    """The (L+1)x(L+1) representation block on the orthonormal sector basis,
    indexed [m', m]: the binomial q-sum, built by the degree recursion.

    The q-sum alone is the matrix on plain monomials x1^m x2^(L-m); on unit
    vectors each entry additionally carries the normalization ratio
    sqrt(m'! (L-m')! / (m! (L-m)!)) = sqrt(C(L, m) / C(L, m')), applied once
    after the last degree.  Only the normalized matrix satisfies the
    conjugate-transpose star law and the biorthogonality identities, so that
    is what this artifact calls T^L(g).  Diagonal entries are unaffected.
    """
    _check_degree(L)
    *_, monomial = _degree_steps(g, L)
    return _normalized(monomial, L)


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


def _index_grid(n1, n2):
    """The index arrays n1, n2 broadcast together, their minimum, and the
    summation index k = 0..max min(n1, n2) of the diagonal's sum."""
    n1, n2 = np.broadcast_arrays(n1, n2)
    low = np.minimum(n1, n2)
    if (low < 0).any():
        raise ValueError("indices must be non-negative")
    return n1, n2, low, np.arange(low.max(initial=0) + 1)


def rep_diag(h: GL2Matrix, n1, n2):
    """Diagonal element at the index arrays n1, n2 (broadcast together), any
    size of them, as complex; a scalar for scalar indices.

    The closed form is the finite sum

        sum_k C(n1, k) C(n2, k) h11^(n1-k) h22^(n2-k) (h12 h21)^k,

    the q-sum's diagonal entry, and the expanded Jacobi form: with alpha = 0
    and an integer beta every binomial of P_{n1}^{(0, n2-n1)} is an integer.
    It runs in float64 when every entry of h is real in value, and in
    complex128 otherwise.
    """
    n1, n2, low, k = _index_grid(n1, n2)
    h11, h12, h21, h22 = _entries(h)
    # summed as h11^(n1-low) h22^(n2-low) sum_k C C (h11 h22)^(low-k) (h12 h21)^k,
    # low = min(n1, n2), so that no power leaves double range where the value
    # does not (h11^n1 alone would for diag(1e5, 1e-5) at n1 = n2 = 62);
    # past low a term is zero, and its powers repeat the last term's
    top = low[..., None]
    j = np.minimum(k, top)
    coeff = np.where(k <= top, binom(n1[..., None], j) * binom(n2[..., None], j), 0.0)
    sums = np.sum(coeff * (h11 * h22) ** (top - j) * (h12 * h21) ** j, axis=-1)
    return (h11 ** (n1 - low) * h22 ** (n2 - low) * sums).astype(complex)[()]


def positive_invariants(h: GL2Matrix) -> tuple[float, float, float]:
    """(h11, h22, r = |h12|^2 / (h11 h22)) of a positive Hermitian h: all
    that its diagonal elements depend on."""
    if not h.is_positive_hermitian():
        raise ValueError("positive Hermitian input required for log-domain evaluation")
    h11, h22 = h.g11.real, h.g22.real
    return h11, h22, abs(h.g12) ** 2 / (h11 * h22)


def _log_comb(n, k):
    """ln C(n, k) elementwise; -inf where k > n."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def rep_diag_log(h: GL2Matrix, n1, n2):
    """ln of the diagonal element for positive Hermitian h at the index
    arrays n1, n2 (broadcast together), any size of them.

    Uses the symmetric expansion
        h11^{n1} h22^{n2} sum_m C(n1, m) C(n2, m) r^m,  r = |h12|^2/(h11 h22),
    whose terms are all non-negative, summed in the log domain; at r = 0
    (diagonal h) only the m = 0 term is left.
    """
    h11, h22, r = positive_invariants(h)
    n1, n2, _, m = _index_grid(n1, n2)
    # a binomial is -inf past its own min(n1, n2)
    terms = _log_comb(n1[..., None], m) + _log_comb(n2[..., None], m) + xlogy(m, r)
    return xlogy(n1, h11) + xlogy(n2, h22) + logsumexp(terms, axis=-1)


def _sector_slice(L: int) -> slice:
    return slice(L * (L + 1) // 2, (L + 1) * (L + 2) // 2)


@dataclass(frozen=True)
class SectorOperator:
    """Operator on the truncation L <= L_max stored as its nonzero sector
    blocks: ``parts[(i, j)]`` is the (i+1)x(j+1) block from sector j to
    sector i, and a missing key is a zero block.

    T(g) is block-diagonal, and the ladder operators and what the checks form
    from them couple only neighbouring sectors, so products cost
    O(sum_L (L+1)^3) instead of the O(d^3) of dense d x d products.
    """

    L_max: int
    parts: dict

    def __post_init__(self):
        for (i, j), block in self.parts.items():
            if not (0 <= i <= self.L_max and 0 <= j <= self.L_max and block.shape == (i + 1, j + 1)):
                raise ValueError(f"sector block {(i, j)} of shape {block.shape} does not fit 0..{self.L_max}")
            if not np.isfinite(block).all():
                raise ValueError(f"sector block {(i, j)} has non-finite entries")

    @classmethod
    def diagonal(cls, L_max: int, values) -> "SectorOperator":
        """The diagonal operator with flat diagonal ``values`` (or a scalar)."""
        values = np.broadcast_to(values, indexing.dim(L_max))
        return cls(L_max, {(L, L): np.diag(values[_sector_slice(L)]) for L in range(L_max + 1)})

    @cached_property
    def blocks(self) -> tuple:
        """The diagonal blocks, sector by sector."""
        return tuple(self.parts.get((L, L), np.zeros((L + 1, L + 1))) for L in range(self.L_max + 1))

    def _dtype(self, *args) -> np.dtype:
        """The result dtype of the blocks and ``args``, at least float64."""
        return np.result_type(float, *args, *{b.dtype for b in self.parts.values()})

    @property
    def dim(self) -> int:
        return indexing.dim(self.L_max)

    @property
    def safe_dim(self) -> int:
        return indexing.safe_dim(self.L_max)

    @property
    def mat(self) -> np.ndarray:
        """The dense d x d matrix, built on each access, in the common dtype
        of the blocks: float64 for real blocks, such as T(g) of a real g."""
        out = np.zeros((self.dim, self.dim), dtype=self._dtype())
        for (i, j), block in self.parts.items():
            out[_sector_slice(i), _sector_slice(j)] = block
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """X x for a flat vector or a matrix whose rows are flat indices."""
        out = np.zeros(x.shape, dtype=self._dtype(x))
        for (i, j), block in self.parts.items():
            out[_sector_slice(i)] += block @ x[_sector_slice(j)]
        return out

    def apply_right(self, x: np.ndarray) -> np.ndarray:
        """x X for a matrix whose columns are flat indices; T Y T^{-1} for a
        dense Y is ``T.apply(T_inv.apply_right(Y))``, at O(d sum_L (L+1)^2)."""
        out = np.zeros(x.shape, dtype=self._dtype(x))
        for (i, j), block in self.parts.items():
            out[:, _sector_slice(j)] += x[:, _sector_slice(i)] @ block
        return out

    def __matmul__(self, other: "SectorOperator") -> "SectorOperator":
        rows = {}
        for (j, k), block in other.parts.items():
            rows.setdefault(j, []).append((k, block))
        parts = {}
        for (i, j), left in self.parts.items():
            for k, right in rows.get(j, ()):
                term = left @ right
                parts[i, k] = parts[i, k] + term if (i, k) in parts else term
        return SectorOperator(self.L_max, parts)

    def __sub__(self, other: "SectorOperator") -> "SectorOperator":
        parts = dict(self.parts)
        for key, block in other.parts.items():
            parts[key] = parts[key] - block if key in parts else -block
        return SectorOperator(self.L_max, parts)

    def dagger(self) -> "SectorOperator":
        return SectorOperator(self.L_max, {(j, i): b.conj().T for (i, j), b in self.parts.items()})

    def safe_deviation(self, c: complex = 0.0) -> float:
        """Max |X - c I| over sectors L <= L_max - 1, the safe block, a
        missing diagonal block counting as zero."""
        top = self.L_max - 1
        residuals = [
            np.max(np.abs(b - c * np.eye(i + 1) if i == j else b))
            for (i, j), b in self.parts.items()
            if i <= top and j <= top
        ]
        if any((L, L) not in self.parts for L in range(top + 1)):
            residuals.append(abs(c))
        return float(np.max([0.0, *residuals]))


def rep_full(g: GL2Matrix, L_max: int) -> SectorOperator:
    """Block-diagonal representation operator on the truncation L <= L_max,
    every sector read off one run of the degree recursion."""
    _check_degree(L_max)
    # the blocks share one allocation: scattered over the heap between d x d
    # arrays, they left holes that raised peak memory by 9 MB in about half
    # the runs at L_max 45
    store = np.empty((L_max + 1) * (L_max + 2) * (2 * L_max + 3) // 6, dtype=_entries(g).dtype)
    parts, start = {}, 0
    for L, buf in enumerate(_degree_steps(g, L_max)):
        low = (L + 1) // 2
        monomial = np.concatenate((buf[: L + 1, :low], buf[: L + 1, L_max - L + low :]), axis=1)
        block = store[start : start + (L + 1) ** 2].reshape(L + 1, L + 1)
        parts[L, L] = _normalized(monomial, L, out=block)
        start += (L + 1) ** 2
    return SectorOperator(L_max, parts)
