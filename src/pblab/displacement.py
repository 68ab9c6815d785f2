"""Displacement operators and bi-coherent states.

The canonical displacement matrix elements in the flat basis are the
Cahill-Glauber Laguerre functions (Phys. Rev. 177, 1857, 1969): with
z = sqrt(t) e^{i th} and a = m - n >= 0,

    D[m, n](z) = f_n^a(t) e^{i a th},   D[n, m](z) = (-1)^a conj(D[m, n](z)),
    f_n^a(t) = sqrt(n!/(n+a)!) e^{-t/2} t^{a/2} L_n^a(t).

``displacement_radial`` evaluates every f_n^a by its normalized three-term
recurrence in n, so every entry is finite at any truncation and any z, and
only entries below about 1e-140 in magnitude may read 0.  The elements are
exact infinite-dimensional values, so truncation error enters only through
products.  For a deformation g the displaced operator in flat coordinates
is T(g) D(z) T(g)^{-1} and its dual uses T((dagger g)^{-1}).

Bi-coherent states are the displaced vacua

    phi(z) = e^{-|z|^2/2} sum_n z^n/sqrt(n!) T(g) e_n,
    psi(z) = e^{-|z|^2/2} sum_n z^n/sqrt(n!) (T(g)^dag)^{-1} e_n,

truncated with a certified norm-growth tail bound.  They satisfy the
displacement composition phase e^{-i z1 ^ z2} with the wedge
z1 ^ z2 = x1 y2 - x2 y1, resolve the identity against d^2z/pi, and carry
the canonical coherent-state overlap kernel.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln, xlogy

from . import indexing
from .gl2 import GL2Matrix, SectorOperator, dual, rep_full
from .quadrature import PlaneScheme, integrate, polar_scheme


def wedge(z1: complex, z2: complex) -> float:
    """Symplectic wedge x1 y2 - x2 y1."""
    return z1.real * z2.imag - z2.real * z1.imag


def displacement_radial(t, dim: int, cols: int | None = None) -> np.ndarray:
    """Real radial part R of the displacement elements at every t: the first
    ``cols`` columns (all dim of them by default) of the dim x dim matrix,
    of shape t.shape + (dim, cols), with
    D[m, n](sqrt(t) e^{i th}) = R[m, n] e^{i th (m-n)}.

    The lower triangle holds R[n+a, n] = f_n^a(t), filled column by column
    from the normalized recurrence (DLMF 18.9.13)

        sqrt((n+1)(n+1+a)) f_{n+1}^a = (2n+a+1-t) f_n^a - sqrt(n(n+a)) f_{n-1}^a

    started at f_0^a = exp(-t/2 + (a/2) log t - log(a!)/2); the upper
    triangle is R[n, n+a] = (-1)^a f_n^a.  The recurrence runs on
    g = f_n^a e^{-c} from g = 1 and c = log f_0^a; g is divided by a power
    of two, and c raised to match, whenever it passes 2^600, so neither the
    underflow of e^{-t/2} nor the growth of L_n^a leaves double range.  It
    runs for every a and stops after column cols - 1, so each entry of the
    strip equals the full matrix's entry bit for bit.
    """
    cols = dim if cols is None else cols
    if not 1 <= cols <= dim:
        raise ValueError(f"need 1 <= cols <= dim = {dim}, got {cols}")
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).reshape(-1)
    # built as (dim, cols, t.size) so every step runs along contiguous t
    out = np.empty((dim, cols, t.size))
    a = np.arange(dim)[:, None]
    # xlogy gives 0 log 0 = 0, so at t = 0 the column is exactly e_0
    c = -t / 2 + xlogy(a / 2, t) - 0.5 * gammaln(a + 1)
    out[:, 0] = scale = np.exp(c)
    prev, g = np.zeros_like(scale), np.ones_like(scale)
    for n in range(cols - 1):
        k = dim - 1 - n
        a = a[:k]
        step = (2 * n + a + 1 - t) * g[:k] - np.sqrt(n * (n + a)) * prev[:k]
        prev, g = g[:k], step / np.sqrt((n + 1) * (n + 1 + a))
        if np.max(np.abs(g)) > 2.0**600:
            shift = np.where(np.abs(g) > 2.0**600, np.frexp(g)[1], 0)
            g, prev = np.ldexp(g, -shift), np.ldexp(prev, -shift)
            c[:k] += shift * math.log(2)
            scale[:k] = np.exp(c[:k])
        out[n + 1 :, n + 1] = g * scale[:k]
    sign = np.where(np.arange(cols) % 2, -1.0, 1.0)[:, None]
    for n in range(cols - 1):
        out[n, n + 1 :] = sign[1 : cols - n] * out[n + 1 : cols, n]
    return np.moveaxis(out.reshape((dim, cols) + shape), (0, 1), (-2, -1))


def canonical_displacement(z: complex, dim: int, cols: int | None = None) -> np.ndarray:
    """The first ``cols`` columns (all dim by default) of the dim x dim
    matrix of displacement elements at z."""
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    z = complex(z)
    # phase[m, n] = e^{i th (m-n)}, a Toeplitz view of one row of phases;
    # e^{-i th a} is the conjugate of e^{i th a} bit for bit
    row = np.exp(1j * np.angle(z) * np.arange(1 - dim, dim))
    phase = np.lib.stride_tricks.sliding_window_view(row, dim)[:, ::-1]
    return displacement_radial(abs(z) ** 2, dim, cols) * phase[:, :cols]


def _displacement_rows(z: complex, dim: int, k: int) -> np.ndarray:
    """Rows m < k of the dim x dim displacement matrix at z, as a C-ordered
    k x dim array, mirrored from its first k columns: the construction makes
    D[m, n] = (-1)^(m-n) conj(D[n, m]) hold bit for bit."""
    sign = np.where((np.arange(dim)[:, None] + np.arange(k)) % 2, -1.0, 1.0)
    return np.ascontiguousarray((canonical_displacement(z, dim, k).conj() * sign).T)


def _check_dim(check_L: int, L_max: int) -> int:
    """Dimension of sectors L <= check_L, which must lie inside the truncation."""
    if not 0 <= check_L <= L_max:
        raise ValueError(f"need 0 <= check_L <= L_max = {L_max}, got {check_L}")
    return indexing.dim(check_L)


def compose_check(z1: complex, z2: complex, L_max: int, check_L: int) -> float:
    """Max deviation of D(z1) D(z2) - e^{-i z1^z2} D(z1+z2) on low sectors.

    The law holds exactly in infinite dimension; the truncated product loses
    only tail terms, so the deviation on sectors L <= check_L shrinks as
    L_max grows.
    """
    k = _check_dim(check_L, L_max)
    d = indexing.dim(L_max)
    prod = _displacement_rows(z1, d, k) @ canonical_displacement(z2, d, k)
    direct = math.e ** (-1j * wedge(z1, z2)) * canonical_displacement(z1 + z2, d, k)[:k]
    return float(np.max(np.abs(prod - direct)))


def kernel(z: complex, zp: complex) -> complex:
    """Bi-coherent overlap kernel e^{-|z|^2/2} e^{-|z'|^2/2} e^{conj(z) z'}."""
    return np.exp(-abs(z) ** 2 / 2 - abs(zp) ** 2 / 2 + np.conj(z) * zp)


def kernel_reproducing_check(z: complex, zpp: complex) -> float:
    """|quadrature of int K(z, z') K(z', z'') d^2z'/pi - K(z, z'')|."""
    val = integrate(lambda w: kernel(z, w) * kernel(w, zpp), polar_scheme(64, 64))
    return float(abs(val - kernel(z, zpp)))


def coherent_coefficients(z, dim: int) -> np.ndarray:
    """e^{-|z|^2/2} z^n / sqrt(n!) for n < dim (stable cumulative form), of
    shape (dim,) + z.shape for an array of points z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((dim,) + z.shape, dtype=complex)
    out[0] = np.exp(-np.abs(z) ** 2 / 2)
    for n in range(1, dim):
        out[n] = out[n - 1] * z / math.sqrt(n)
    return out


@dataclass(frozen=True)
class BiCoherentPair:
    """Truncated bi-coherent pair at parameter z with certified tail bound."""

    z: complex
    phi_vec: np.ndarray
    psi_vec: np.ndarray
    n_cut: int
    tail_bound: float

    def overlap(self) -> complex:
        """<phi(z), psi(z)>; equals 1 up to the truncation tail."""
        return complex(np.vdot(self.phi_vec, self.psi_vec))


def _tail_envelope(z_abs: float, r_env: float, start: int) -> float:
    """Bound on sum_{n >= start} (r |z|)^n / sqrt(n!) by ratio-test geometry."""
    q = r_env * z_abs / math.sqrt(start + 1)
    if q >= 0.5:
        return math.inf
    log_c = start * math.log(max(r_env * z_abs, 1e-300)) - 0.5 * math.lgamma(start + 1)
    return math.exp(log_c) / (1 - q)


def bicoherent(z: complex, g: GL2Matrix, L_max: int, eps: float) -> BiCoherentPair:
    """Bi-coherent pair with the smallest cutoff whose tail bound is <= eps.

    The tail bound is e^{-|z|^2/2} [ sum_{n>N}^{dim-1} |z|^n/sqrt(n!) |T e_n|
    + envelope beyond the truncation ], the envelope using the norm-growth
    certificate |T e_n| <= r^n with r = sqrt(tr((dagger g) g)).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    z = complex(z)
    d = indexing.dim(L_max)
    T = rep_full(g, L_max)
    T_tilde = rep_full(dual(g), L_max)
    gram = g.gram()
    norms_phi, r_env, ok_phi = norm_growth_certificate(T, gram)
    norms_psi, r_env_dual, ok_psi = norm_growth_certificate(T_tilde, gram.inv())
    if not (ok_phi and ok_psi):
        raise ArithmeticError("norm-growth certificate failed inside the truncation")

    za = abs(z)
    damp = math.exp(-za**2 / 2)
    coeff_abs = np.exp(
        np.arange(d) * math.log(max(za, 1e-300)) - 0.5 * gammaln(np.arange(d) + 1.0)
    )
    r_max = max(r_env, r_env_dual)
    beyond = damp * _tail_envelope(za, r_max, d)
    worst_norms = np.maximum(norms_phi, norms_psi)
    for n_cut in range(d):
        tail_bound = damp * float(np.sum(coeff_abs[n_cut + 1 :] * worst_norms[n_cut + 1 :])) + beyond
        if tail_bound <= eps:
            break
    else:
        needed = int(math.ceil(4 * (r_max * za) ** 2)) + 1
        raise ValueError(
            f"tail bound {eps:g} unreachable inside L_max={L_max}; "
            f"need flat cutoff around {needed} (raise L_max)"
        )
    coeff = coherent_coefficients(z, d)
    coeff[n_cut + 1 :] = 0.0
    return BiCoherentPair(z, T.apply(coeff), T_tilde.apply(coeff), n_cut, tail_bound)


def covariance_check(z: complex, zp: complex, g: GL2Matrix, L_max: int, check_L: int) -> float:
    """Max deviation of the projective covariance of bi-coherent states:

        D_g(z) phi(z') = e^{-i z^z'} phi(z+z'),  and the dual relation
        for the psi family, both measured on sectors L <= check_L.
    """
    k = _check_dim(check_L, L_max)
    d = indexing.dim(L_max)
    # T(g) is block-diagonal, so sectors <= check_L of T v need only v[:k],
    # and rep_full(g, check_L)'s blocks are rep_full(g, L_max)'s bit for bit
    T = rep_full(g, check_L)
    T_tilde = rep_full(dual(g), check_L)
    phase = math.e ** (-1j * wedge(z, zp))

    # both deformed relations reduce to the canonical action on coefficients:
    # T(g) D T(g)^{-1} [T(g) v] = T(g) [D v], likewise for the dual family
    displaced = _displacement_rows(z, d, k) @ coherent_coefficients(zp, d)
    shifted = phase * coherent_coefficients(z + zp, d)[:k]
    dev_phi = np.max(np.abs(T.apply(displaced) - T.apply(shifted)))
    dev_psi = np.max(np.abs(T_tilde.apply(displaced) - T_tilde.apply(shifted)))
    return float(np.max([dev_phi, dev_psi]))


def resolution_check(g: GL2Matrix, L_max: int, scheme: PlaneScheme | None = None) -> float:
    """Max deviation of int phi(z) psi(z)^dag d^2z/pi from the identity,
    measured on sectors L <= L_max/2.

    After conjugating away T(g) the integral reduces entrywise to the moment
    identity int e^{-|z|^2} z^n conj(z)^m d^2z/pi = n! delta_{nm}; the polar
    scheme covers the full plane (its radial rule integrates the e^{-t}
    moments exactly) and no node is discarded.
    """
    if scheme is None:
        scheme = polar_scheme(64, 64)
    # T(g) and T(g)^{-1} are block-diagonal and the moments are exact values,
    # so sectors <= L_max/2 of the integral need only those sectors
    check_L = L_max // 2
    k = indexing.dim(check_L)
    T = rep_full(g, check_L)
    T_inv = rep_full(g.inv(), check_L)
    V = coherent_coefficients(scheme.nodes, k)
    moments = (V * scheme.weights[None, :]) @ V.conj().T
    result = T.apply(T_inv.apply_right(moments))
    return float(np.max(np.abs(result - np.eye(k))))


def radial_tail(n: int, R: float) -> float:
    """Mass of the n-th radial moment beyond |z| = R: Q(n+1, R^2)."""
    return float(gammaincc(n + 1, R * R))


def norm_growth_check(norms, r: float) -> bool:
    """True iff norms[n] <= r^n for every supplied n (log compare)."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    for n, v in enumerate(norms):
        if v <= 0:
            continue
        if math.log(v) > n * math.log(r) + 1e-12:
            return False
    return True


def norm_growth_certificate(T: SectorOperator, gram: GL2Matrix) -> tuple[np.ndarray, float, bool]:
    """Norm-growth certificate of the family T e_n: the column norms |T e_n|,
    read off the blocks, the radius r = sqrt(tr gram), and whether
    |T e_n| <= r^n for every n.  For T = T(g) pass gram = (dagger g) g; for
    the dual family (T(g)^dag)^{-1} pass its inverse."""
    norms = np.concatenate([np.linalg.norm(b, axis=0) for b in T.blocks])
    r = math.sqrt((gram.g11 + gram.g22).real)
    return norms, r, norm_growth_check(norms, r)
