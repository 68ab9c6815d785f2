"""Index maps between two-mode labels, degree sectors, and flat Fock indices.

The two-mode basis is labelled by pairs (n1, n2) of non-negative integers.
Grouping by total degree L = n1 + n2 gives sector labels (L, m) with
m = n1, and flattening sectors in ascending order gives a single index

    n = L(L+1)/2 + m,

so the degree-L sector occupies the contiguous flat range
[L(L+1)/2, L(L+1)/2 + L].  All maps below are exact bijections on
arbitrarily large integers.
"""

import math
from typing import NamedTuple


class ModeIndex(NamedTuple):
    """Two-mode occupation label (n1, n2)."""

    n1: int
    n2: int


class SectorIndex(NamedTuple):
    """Sector label: total degree L and position m within the sector."""

    L: int
    m: int


def _check_mode(n1: int, n2: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ValueError(f"mode indices must be non-negative, got ({n1}, {n2})")


def flatten(n1: int, n2: int) -> int:
    """Flat index of the two-mode label (n1, n2)."""
    _check_mode(n1, n2)
    L = n1 + n2
    return L * (L + 1) // 2 + n1


def unflatten(n: int) -> ModeIndex:
    """Two-mode label of the flat index n; exact inverse of ``flatten``.

    The sector is found from the closed form L = floor((sqrt(8n+1)-1)/2),
    evaluated with integer square roots so no precision is lost at large n.
    """
    if n < 0:
        raise ValueError(f"flat index must be non-negative, got {n}")
    # isqrt is exact, so L(L+1)/2 <= n < (L+1)(L+2)/2 holds
    L = (math.isqrt(8 * n + 1) - 1) // 2
    n1 = n - L * (L + 1) // 2
    return ModeIndex(n1, L - n1)


def sector(n1: int, n2: int) -> SectorIndex:
    """Sector label (L, m) = (n1 + n2, n1) of a two-mode index."""
    _check_mode(n1, n2)
    return SectorIndex(n1 + n2, n1)


def sector_range(L: int) -> range:
    """Flat indices of the degree-L sector, in ascending m order."""
    if L < 0:
        raise ValueError(f"sector degree must be non-negative, got {L}")
    base = L * (L + 1) // 2
    return range(base, base + L + 1)


def dim(L_max: int) -> int:
    """Dimension of the truncation keeping all sectors L <= L_max."""
    if L_max < 0:
        raise ValueError(f"L_max must be non-negative, got {L_max}")
    return (L_max + 1) * (L_max + 2) // 2


def safe_dim(L_max: int) -> int:
    """Dimension of the safe block (sectors L <= L_max - 1).

    Ladder operators couple adjacent sectors, so identities that hold on
    the full space are exact on the truncation only away from the top
    sector; this is the size of that sub-block.
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1 for a safe block, got {L_max}")
    return L_max * (L_max + 1) // 2
