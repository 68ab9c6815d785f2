"""Truncated matrix realizations of the ladder algebra: two-mode bosons,
their deformations, the flat-index ladder pair, shift isometries, the
deformed pseudo-bosonic pair, and metric operators.

Everything lives on the flat-index truncation keeping sectors L <= L_max
(dimension (L_max+1)(L_max+2)/2).  Raising operators leak out of the top
sector, so operator identities are exact only on the safe block of sectors
L <= L_max - 1; all commutator checks project there.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import indexing
from .gl2 import BlockDiagOperator, GL2Matrix, rep_full

_COND_LIMIT = 1e6


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex matrix on the sector truncation, tagged with L_max."""

    L_max: int
    mat: np.ndarray

    def __post_init__(self):
        d = indexing.dim(self.L_max)
        if self.mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix for L_max={self.L_max}, got {self.mat.shape}")
        if not np.all(np.isfinite(self.mat.real)) or not np.all(np.isfinite(self.mat.imag)):
            raise ValueError("matrix entries must be finite")

    @property
    def dim(self) -> int:
        return indexing.dim(self.L_max)

    @property
    def safe_dim(self) -> int:
        return indexing.safe_dim(self.L_max)

def safe_part(mat: np.ndarray, L_max: int) -> np.ndarray:
    s = indexing.safe_dim(L_max)
    return mat[:s, :s]


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def ladder(L_max: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Flat-index lowering/raising pair: lower e_n = sqrt(n) e_{n-1}."""
    if L_max < 1:
        raise ValueError(f"need L_max >= 1, got {L_max}")
    d = indexing.dim(L_max)
    lower = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        lower[n - 1, n] = math.sqrt(n)
    return TruncatedOperator(L_max, lower), TruncatedOperator(L_max, lower.conj().T)


def two_mode(L_max: int):
    """Two-mode boson matrices (a1, a1dag, a2, a2dag) on the flat basis."""
    if L_max < 1:
        raise ValueError(f"need L_max >= 1, got {L_max}")
    d = indexing.dim(L_max)
    a1 = np.zeros((d, d), dtype=complex)
    a2 = np.zeros((d, d), dtype=complex)
    for n in range(d):
        n1, n2 = indexing.unflatten(n)
        if n1 >= 1:
            a1[indexing.flatten(n1 - 1, n2), n] = math.sqrt(n1)
        if n2 >= 1:
            a2[indexing.flatten(n1, n2 - 1), n] = math.sqrt(n2)
    wrap = lambda m: TruncatedOperator(L_max, m)
    return wrap(a1), wrap(a1.conj().T), wrap(a2), wrap(a2.conj().T)


def deformed_two_mode(g: GL2Matrix, L_max: int):
    """Deformed annihilators/creators (A1, A2, A1dag, A2dag):

        A1 = conj(g11) a1 + conj(g21) a2,   A2 = conj(g12) a1 + conj(g22) a2,

    with adjoints by conjugate transpose.  On the safe block
    [A_i, A_j^dag] = ((dagger g) g)_{ij} I while [A1, A2] = 0 exactly.
    """
    a1, a1d, a2, a2d = two_mode(L_max)
    A1 = np.conj(g.g11) * a1.mat + np.conj(g.g21) * a2.mat
    A2 = np.conj(g.g12) * a1.mat + np.conj(g.g22) * a2.mat
    wrap = lambda m: TruncatedOperator(L_max, m)
    return wrap(A1), wrap(A2), wrap(A1.conj().T), wrap(A2.conj().T)


@dataclass(frozen=True)
class PseudoPair:
    """Deformed pseudo-bosonic pair on the truncation.

    ``a_op`` is the deformed lowering operator T(g) B T(g)^{-1}; ``b_op`` is
    the adjoint of the dual deformation, T(g) Bdag T(g)^{-1}, so that
    [a_op, b_op] = I on the safe block and the shared vacuum is e_0.
    """

    g: GL2Matrix
    L_max: int
    a_op: TruncatedOperator
    b_op: TruncatedOperator
    T: BlockDiagOperator
    T_inv: BlockDiagOperator

    def vec_phi(self, n: int) -> np.ndarray:
        """Deformed basis vector T(g) e_n in flat coordinates: column m of
        the sector-L block of T(g), where n has sector label (L, m)."""
        L, m = indexing.sector(*indexing.unflatten(n))
        return self._in_sector(L, self.T.blocks[L][:, m])

    def vec_psi(self, n: int) -> np.ndarray:
        """Dual basis vector T((dagger g)^(-1)) e_n = (T(g)^{-1})^dag e_n: the
        conjugate of row m of the sector-L block of T(g)^{-1}."""
        L, m = indexing.sector(*indexing.unflatten(n))
        return self._in_sector(L, self.T_inv.blocks[L][m].conj())

    def _in_sector(self, L: int, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.a_op.dim, dtype=complex)
        out[indexing.sector_range(L)] = values
        return out

    def number_operator(self) -> TruncatedOperator:
        """T(g) Bdag B T(g)^{-1}; eigenvectors vec_phi(n) with eigenvalue n."""
        # T Bdag B scales column n of T by n
        t_num = self.T.dense() * np.arange(self.a_op.dim)
        return TruncatedOperator(self.L_max, self.T_inv.apply_right(t_num))


def _times_ladder(T: BlockDiagOperator, step: int) -> np.ndarray:
    """Dense T B (step 1) or T Bdag (step -1) for the flat ladder pair B, Bdag.

    Column n of T B is sqrt(n) T e_{n-1} and column n of T Bdag is
    sqrt(n+1) T e_{n+1}: each block of T moves ``step`` columns to the
    right, scaled by the square root of the larger of its old and new
    column index.
    """
    d = T.dim
    out = np.zeros((d, d), dtype=complex)
    for L, block in enumerate(T.blocks):
        rows = indexing.sector_range(L)
        lo, hi = max(rows.start + step, 0), min(rows.stop + step, d)
        cols = np.arange(lo, hi)
        moved = block[:, lo - step - rows.start : hi - step - rows.start]
        out[rows.start : rows.stop, lo:hi] = moved * np.sqrt(np.maximum(cols, cols - step))
    return out


def pseudo_pair(g: GL2Matrix, L_max: int) -> PseudoPair:
    """Build the deformed pair with T(g)^{-1} = T(g^{-1}); ill-conditioned g
    is rejected since the products T B T^{-1} cancel down to about
    eps |T| |T^{-1}|, which grows like cond(g)^L.

    T B and T Bdag are column shifts of T, so only the right products with
    the block-diagonal T(g)^{-1} cost arithmetic, O(d sum_L (L+1)^2)."""
    if g.cond() > _COND_LIMIT:
        raise ValueError(f"condition number {g.cond():.2e} exceeds {_COND_LIMIT:.0e}")
    if L_max < 1:
        raise ValueError(f"need L_max >= 1, got {L_max}")
    T = rep_full(g, L_max)
    T_inv = rep_full(g.inv(), L_max)
    a_op = TruncatedOperator(L_max, T_inv.apply_right(_times_ladder(T, 1)))
    b_op = TruncatedOperator(L_max, T_inv.apply_right(_times_ladder(T, -1)))
    return PseudoPair(g, L_max, a_op, b_op, T, T_inv)


def cuntz_isometry(n: int, L_max: int) -> TruncatedOperator:
    """Shift isometry e_m -> e_flatten(m, n), defined on columns with
    m + n <= L_max (images inside the truncation); a partial permutation."""
    if not 0 <= n <= L_max:
        raise ValueError(f"need 0 <= n <= L_max, got n = {n}")
    d = indexing.dim(L_max)
    mat = np.zeros((d, d), dtype=complex)
    mat[cuntz_images(n, L_max), np.arange(cuntz_domain_dim(n, L_max))] = 1.0
    return TruncatedOperator(L_max, mat)


def cuntz_domain_dim(n: int, L_max: int) -> int:
    """Number of basis columns on which the n-th isometry is defined."""
    return L_max - n + 1


def cuntz_images(n: int, L_max: int) -> np.ndarray:
    """Flat images flatten(m, n) of the n-th isometry's domain columns m."""
    return np.array([indexing.flatten(m, n) for m in range(cuntz_domain_dim(n, L_max))])


def metric_operators(g: GL2Matrix, L_max: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Gram-type metric pair: S_phi = T(g) T(g)^dag = T(g gdag) and its
    inverse S_psi = T((g gdag)^{-1}), both from the group law; positive-definite
    Hermitian with S_phi S_psi = I block by block."""
    h = g @ g.dagger()
    return (
        TruncatedOperator(L_max, rep_full(h, L_max).dense()),
        TruncatedOperator(L_max, rep_full(h.inv(), L_max).dense()),
    )


def _max_abs(residuals) -> float:
    """Largest entry modulus over an iterable of residual arrays, reduced one
    array at a time; NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def _ccr_residuals(lowers, raisers, gram: np.ndarray, L_max: int):
    eye_safe = np.eye(indexing.safe_dim(L_max))
    return (
        safe_part(commutator(x.mat, y.mat), L_max) - gram[i, j] * eye_safe
        for i, x in enumerate(lowers)
        for j, y in enumerate(raisers)
    )


def ccr_deviation(L_max: int) -> float:
    """Max deviation of [a_i, a_j^dag] = delta_ij I on the safe block."""
    a1, a1d, a2, a2d = two_mode(L_max)
    return _max_abs(_ccr_residuals((a1, a2), (a1d, a2d), np.eye(2), L_max))


def deformed_ccr_deviation(g: GL2Matrix, L_max: int) -> float:
    """Max deviation of [A_i, A_j^dag] = ((dagger g) g)_ij I on the safe block
    and of [A1, A2] = 0 on the whole truncation."""
    A1, A2, A1d, A2d = deformed_two_mode(g, L_max)
    ccr = _ccr_residuals((A1, A2), (A1d, A2d), g.gram().as_array(), L_max)
    return _max_abs(itertools.chain([commutator(A1.mat, A2.mat)], ccr))


def pseudo_commutator_deviation(pair: PseudoPair) -> float:
    """Max deviation of [a, b] = I on the safe block."""
    c = safe_part(commutator(pair.a_op.mat, pair.b_op.mat), pair.L_max)
    return float(np.max(np.abs(c - np.eye(pair.a_op.safe_dim))))


def ladder_deviation(pair: PseudoPair) -> float:
    """Max residual of a phi_0 = 0 and a phi_n = sqrt(n) phi_{n-1} on the
    deformed family, 1 <= n < min(12, safe_dim)."""
    a, phi = pair.a_op.mat, pair.vec_phi
    steps = range(1, min(12, pair.a_op.safe_dim))
    return _max_abs([a @ phi(0), *(a @ phi(n) - math.sqrt(n) * phi(n - 1) for n in steps)])


def cuntz_deviation(L_max: int) -> float:
    """Max deviation of S_m^dag S_n = delta_mn (identity on the n-th
    isometry's domain) for m <= n, and of sum_n S_n S_n^dag = I, from the
    image arrays: (S_m^dag S_n)[i, j] is 1 where image i of S_m is image j
    of S_n (0 off the domains), and sum_n S_n S_n^dag counts the images."""
    images = [cuntz_images(n, L_max) for n in range(L_max + 1)]
    total = np.bincount(np.concatenate(images), minlength=indexing.dim(L_max)) - 1
    relations = (
        (im_m[:, None] == im_n[None, :]) - (m == n) * np.eye(len(im_m), len(im_n))
        for n, im_n in enumerate(images)
        for m, im_m in enumerate(images[: n + 1])
    )
    return _max_abs(itertools.chain([total], relations))


def metric_deviation(g: GL2Matrix, L_max: int) -> float:
    """Max deviation of S_phi S_psi = I and of the Hermiticity of S_phi,
    block by block: both metrics are T(h) and T(h^{-1}) with h = g gdag."""
    h = g @ g.dagger()
    pairs = zip(rep_full(h, L_max).blocks, rep_full(h.inv(), L_max).blocks)
    residuals = ((p @ q - np.eye(len(p)), p - p.conj().T) for p, q in pairs)
    return _max_abs(itertools.chain.from_iterable(residuals))

