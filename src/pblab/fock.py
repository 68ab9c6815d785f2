"""Truncated realizations of the ladder algebra: deformed two-mode bosons
(the plain ones at g = I), the flat-index ladder pair, shift isometries, the
deformed pseudo-bosonic pair, and metric operators.

Everything lives on the flat-index truncation keeping sectors L <= L_max
(dimension (L_max+1)(L_max+2)/2).  The lowering operators map sector L into
sectors L and L-1, and T(g) is block-diagonal, so every operator here except
the shift isometries is a ``SectorOperator`` holding only its nonzero sector
blocks, and every check runs block by block.  Raising operators leak out of
the top sector, so operator identities are exact only on the safe block of
sectors L <= L_max - 1; all commutator checks project there.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import indexing
from .gl2 import GL2Matrix, SectorOperator, rep_full

_COND_LIMIT = 1e6
# rows per strip of a dense commutator's second product
_STRIP_ROWS = 256


def safe_part(mat: np.ndarray, L_max: int) -> np.ndarray:
    s = indexing.safe_dim(L_max)
    return mat[:s, :s]


def commutator(x, y):
    """[x, y] for two arrays or two SectorOperators.  For arrays, y x is
    subtracted from x y one strip of rows at a time, so only one d x d
    product is held at once."""
    if isinstance(x, SectorOperator):
        return x @ y - y @ x
    out = x @ y
    for i in range(0, len(out), _STRIP_ROWS):
        out[i : i + _STRIP_ROWS] -= y[i : i + _STRIP_ROWS] @ x
    return out


def ladder(L_max: int) -> tuple[SectorOperator, SectorOperator]:
    """Flat-index lowering/raising pair: lower e_n = sqrt(n) e_{n-1}.  It steps
    down inside each sector and sends the bottom of sector L, flat index
    L(L+1)/2, to the top of sector L-1."""
    if L_max < 1:
        raise ValueError(f"need L_max >= 1, got {L_max}")
    parts = {(L, L): np.eye(L + 1, k=1) * np.sqrt(indexing.sector_range(L)) for L in range(L_max + 1)}
    for L in range(1, L_max + 1):  # the crossing block is zero but for [L-1, 0]
        parts[L - 1, L] = np.eye(L, L + 1, k=1 - L) * math.sqrt(L * (L + 1) // 2)
    lower = SectorOperator(L_max, parts)
    return lower, lower.dagger()


def _mode_lowering(c1: complex, c2: complex, L_max: int) -> SectorOperator:
    """c1 a1 + c2 a2: position m = n1 of sector L goes to position m-1 of
    sector L-1 with sqrt(n1) and to position m with sqrt(n2)."""
    if L_max < 1:
        raise ValueError(f"need L_max >= 1, got {L_max}")
    parts = {}
    for L in range(1, L_max + 1):
        m = np.arange(L + 1)
        parts[L - 1, L] = c1 * np.eye(L, L + 1, k=1) * np.sqrt(m) + c2 * np.eye(L, L + 1) * np.sqrt(L - m)
    return SectorOperator(L_max, parts)


def deformed_two_mode(g: GL2Matrix, L_max: int):
    """Deformed annihilators/creators (A1, A2, A1dag, A2dag):

        A1 = conj(g11) a1 + conj(g21) a2,   A2 = conj(g12) a1 + conj(g22) a2,

    with their adjoints.  On the safe block [A_i, A_j^dag] = ((dagger g) g)_{ij} I
    while [A1, A2] = 0 exactly.  At g = I they are the two-mode bosons
    (a1, a2, a1dag, a2dag).
    """
    A1 = _mode_lowering(np.conj(g.g11), np.conj(g.g21), L_max)
    A2 = _mode_lowering(np.conj(g.g12), np.conj(g.g22), L_max)
    return A1, A2, A1.dagger(), A2.dagger()


@dataclass(frozen=True)
class PseudoPair:
    """Deformed pseudo-bosonic pair on the truncation.

    ``a_op`` is the deformed lowering operator T(g) B T(g)^{-1}; ``b_op`` is
    the adjoint of the dual deformation, T(g) Bdag T(g)^{-1}, so that
    [a_op, b_op] = I on the safe block and the shared vacuum is e_0.
    """

    g: GL2Matrix
    L_max: int
    a_op: SectorOperator
    b_op: SectorOperator
    T: SectorOperator
    T_inv: SectorOperator

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


def pseudo_pair(g: GL2Matrix, L_max: int) -> PseudoPair:
    """Build the deformed pair with T(g)^{-1} = T(g^{-1}); ill-conditioned g
    is rejected since the products T B T^{-1} cancel down to about
    eps |T| |T^{-1}|, which grows like cond(g)^L."""
    if g.cond() > _COND_LIMIT:
        raise ValueError(f"condition number {g.cond():.2e} exceeds {_COND_LIMIT:.0e}")
    lower, raiser = ladder(L_max)
    T = rep_full(g, L_max)
    T_inv = rep_full(g.inv(), L_max)
    return PseudoPair(g, L_max, T @ lower @ T_inv, T @ raiser @ T_inv, T, T_inv)


def cuntz_domain_dim(n: int, L_max: int) -> int:
    """Number of basis columns on which the n-th isometry is defined."""
    return L_max - n + 1


def cuntz_images(n: int, L_max: int) -> np.ndarray:
    """Flat images flatten(m, n) of the n-th isometry's domain columns m."""
    return np.array([indexing.flatten(m, n) for m in range(cuntz_domain_dim(n, L_max))])


def metric_operators(g: GL2Matrix, L_max: int) -> tuple[SectorOperator, SectorOperator]:
    """Gram-type metric pair: S_phi = T(g) T(g)^dag = T(g gdag) and its
    inverse S_psi = T((g gdag)^{-1}), both from the group law; positive-definite
    Hermitian with S_phi S_psi = I block by block."""
    h = g @ g.dagger()
    return rep_full(h, L_max), rep_full(h.inv(), L_max)


def _max_abs(residuals) -> float:
    """Largest entry modulus over an iterable of residual arrays or scalars,
    reduced one at a time; NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def deformed_ccr_deviation(g: GL2Matrix, L_max: int) -> float:
    """Max deviation of [A_i, A_j^dag] = ((dagger g) g)_ij I on the safe block
    and of [A1, A2] = 0 on the whole truncation; at g = I it is the two-mode
    canonical commutation relation [a_i, a_j^dag] = delta_ij I."""
    A1, A2, A1d, A2d = deformed_two_mode(g, L_max)
    gram = g.gram().as_array()
    ccr = [
        commutator(x, y).safe_deviation(gram[i, j])
        for i, x in enumerate((A1, A2))
        for j, y in enumerate((A1d, A2d))
    ]
    return _max_abs([*ccr, *commutator(A1, A2).parts.values()])


def pseudo_commutator_deviation(pair: PseudoPair) -> float:
    """Max deviation of [a, b] = I on the safe block."""
    return commutator(pair.a_op, pair.b_op).safe_deviation(1.0)


def ladder_deviation(pair: PseudoPair) -> float:
    """Max residual of a phi_0 = 0 and a phi_n = sqrt(n) phi_{n-1} on the
    deformed family, 1 <= n < min(12, safe_dim), with a applied once to the
    stacked columns phi_n."""
    count = min(12, pair.a_op.safe_dim)
    phi = np.stack([pair.vec_phi(n) for n in range(count)], axis=1)
    expected = np.zeros_like(phi)
    expected[:, 1:] = np.sqrt(np.arange(1, count)) * phi[:, :-1]
    return _max_abs([pair.a_op.apply(phi) - expected])


def cuntz_deviation(L_max: int) -> float:
    """Max deviation of S_m^dag S_n = delta_mn (identity on the n-th
    isometry's domain) for m <= n, and of sum_n S_n S_n^dag = I, from the
    image arrays.  sum_n S_n S_n^dag counts how often each flat index is an
    image, and S_m^dag S_n has an entry 1 off delta_mn exactly where two
    images collide, which makes that count at least 2; an image outside the
    truncation drops out of S_n^dag S_n, so it reads 1."""
    d = indexing.dim(L_max)
    images = np.concatenate([cuntz_images(n, L_max) for n in range(L_max + 1)])
    inside = (images >= 0) & (images < d)
    counts = np.bincount(images[inside], minlength=d)
    return _max_abs([counts - 1, ~inside])


def metric_deviation(g: GL2Matrix, L_max: int) -> float:
    """Max deviation of S_phi S_psi = I and of the Hermiticity of S_phi,
    block by block: both metrics are T(h) and T(h^{-1}) with h = g gdag."""
    s_phi, s_psi = metric_operators(g, L_max)
    residuals = ((p @ q - np.eye(len(p)), p - p.conj().T) for p, q in zip(s_phi.blocks, s_psi.blocks))
    return _max_abs(itertools.chain.from_iterable(residuals))

