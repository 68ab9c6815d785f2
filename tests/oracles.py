"""Reference routes the tests cross-check the library against.

Each oracle computes a quantity the library also computes, by a different
route: the entrywise or 50-digit q-sum of a representation block (and the
modulus sum that scales its rounding error), the degree recursion run in
complex128 for every g, the q-sum of a diagonal element, its 40-digit sum
and the 40-digit log of a positive one, the hypergeometric form of a
Jacobi polynomial and the generalized binomial it uses, the
finite sum of a generalized Laguerre polynomial,
the double-precision and 40-digit Laguerre closed forms of the
displacement elements, the exact-rational and the entry-by-entry
contraction transform, the scalar expansion of a deformed monomial,
criterion 2 one mode at a time, the r = 1 closed forms of the diagonal,
the float Gaussian moments, the weight-operator diagonal and the norm
envelope of a bi-coherent state, entrywise closeness of coefficient grids,
the shift isometries as dense arrays and their dense products,
of the displacement composition and covariance, of the metric pair and of
the two-mode, deformed and pseudo-bosonic commutators, the resolution of
the identity on the whole truncation, and, from coefficient grids and
exact moments, the biorthogonality Gram, the orthonormality Gram and the
norm identity.  It also holds the helpers only the tests use: the dual
polynomial one index at a time, the two-mode label of a sector position and
the pseudo-bosonic number operator.  Nothing in the library calls them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from pblab import fock, indexing
from pblab.deformed import deformed_coeffs, deformed_via_rep, norm_sq, norm_sq_inner
from pblab.displacement import canonical_displacement, coherent_coefficients, wedge
from pblab.fock import cuntz_domain_dim, metric_operators
from pblab.gl2 import GL2Matrix, SectorOperator, dual, random_gl2, rep_full
from pblab.hermite import PolyCoeffs, hermite_coeffs, hermite_via_contraction, inner
from pblab.quadrature import FACTORIALS, PlaneScheme, exact_gaussian_moment, polar_scheme
from pblab.quantize import Weight, weight_diagonal_table


def rep_block_loop(g, L):
    """Reference route: the binomial q-sum entry by entry, in double precision."""
    p11 = [g.g11**q for q in range(L + 1)]
    p12 = [g.g12**q for q in range(L + 1)]
    p21 = [g.g21**q for q in range(L + 1)]
    p22 = [g.g22**q for q in range(L + 1)]
    half_log_norm = [0.5 * (math.lgamma(m + 1) + math.lgamma(L - m + 1)) for m in range(L + 1)]
    out = np.empty((L + 1, L + 1), dtype=complex)
    for mp in range(L + 1):
        for m in range(L + 1):
            acc = 0.0 + 0.0j
            for q in range(max(0, mp + m - L), min(mp, m) + 1):
                acc += (
                    math.comb(m, q)
                    * math.comb(L - m, mp - q)
                    * p11[q]
                    * p21[m - q]
                    * p12[mp - q]
                    * p22[L - m + q - mp]
                )
            out[mp, m] = acc * math.exp(half_log_norm[mp] - half_log_norm[m])
    return out


def rep_blocks_complex128(g, L_max):
    """Every sector block L <= L_max of T(g) by the library's degree
    recursion, run in complex128 whatever the entries of g: one linear factor
    per degree, the two kinds alternating, sector k's columns read off the
    buffer after step k and normalized by sqrt(C(k, m) / C(k, m'))."""
    k = np.arange(1, L_max + 1)
    split = np.where(k % 2, (k + 1) // 2, L_max + 1 - k // 2)
    first = np.arange(L_max + 1) >= split[:, None]
    g11, g12, g21, g22 = (complex(x) for x in (g.g11, g.g12, g.g21, g.g22))
    steps = zip(np.where(first, g11, g12), np.where(first, g21, g22))
    buf = np.zeros((L_max + 1, L_max + 1), dtype=complex)
    buf[0] = 1
    blocks = []
    for L in range(L_max + 1):
        if L:
            a, b = next(steps)
            shifted = a * buf[:L]
            buf[: L + 1] *= b
            buf[1 : L + 1] += shifted
        low = (L + 1) // 2
        monomial = np.concatenate((buf[: L + 1, :low], buf[: L + 1, L_max - L + low :]), axis=1)
        binom = np.array([math.comb(L, m) for m in range(L + 1)], dtype=float)
        blocks.append(monomial * np.sqrt(binom / binom[:, None]))
    return blocks


def rep_block_mpmath(g, L, dps=50):
    """The q-sum at ``dps`` digits, each term factored as
    (C(m, q) g11^q g21^(m-q)) (C(L-m, m'-q) g12^(m'-q) g22^(L-m-m'+q))."""
    with mpmath.workdps(dps):
        a11, a12, a21, a22 = (mpmath.mpc(complex(x)) for x in (g.g11, g.g12, g.g21, g.g22))
        first = [[math.comb(m, q) * a11**q * a21 ** (m - q) for q in range(m + 1)] for m in range(L + 1)]
        second = [[math.comb(j, i) * a12**i * a22 ** (j - i) for i in range(j + 1)] for j in range(L + 1)]
        fact = [mpmath.factorial(m) * mpmath.factorial(L - m) for m in range(L + 1)]
        out = np.empty((L + 1, L + 1), dtype=complex)
        for mp in range(L + 1):
            for m in range(L + 1):
                qs = range(max(0, mp + m - L), min(mp, m) + 1)
                acc = mpmath.fdot((first[m][q], second[L - m][mp - q]) for q in qs)
                out[mp, m] = complex(acc * mpmath.sqrt(fact[mp] / fact[m]))
    return out


def qsum_magnitude(g, L):
    """The q-sum of the term moduli: T^L of the entrywise moduli of g (which
    may be singular), with no cancellation.  A q-sum accumulated at
    precision eps has a rounding error of about eps times this."""
    moduli = SimpleNamespace(g11=abs(g.g11), g12=abs(g.g12), g21=abs(g.g21), g22=abs(g.g22))
    return rep_block_loop(moduli, L).real


def rep_diag_qsum(h: GL2Matrix, n1: int, n2: int) -> complex:
    """Diagonal element at (n1, n2) by direct q-sum."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"indices must be non-negative, got ({n1}, {n2})")
    off = h.g12 * h.g21
    acc = 0.0 + 0.0j
    for q in range(max(0, n1 - n2), n1 + 1):
        acc += (
            math.comb(n1, q)
            * math.comb(n2, n1 - q)
            * h.g11**q
            * off ** (n1 - q)
            * h.g22 ** (n2 - n1 + q)
        )
    return complex(acc)


def rep_diag_mpmath(h: GL2Matrix, n1: int, n2: int, dps: int = 40) -> complex:
    """Diagonal element at (n1, n2) by the sum over k of C(n1, k) C(n2, k)
    h11^(n1-k) h22^(n2-k) (h12 h21)^k in dps-digit arithmetic, on the
    double entries of h."""
    with mpmath.workdps(dps):
        h11, h12, h21, h22 = (mpmath.mpc(x) for x in (h.g11, h.g12, h.g21, h.g22))
        total = mpmath.fsum(
            math.comb(n1, k) * math.comb(n2, k) * h11 ** (n1 - k) * h22 ** (n2 - k) * (h12 * h21) ** k
            for k in range(min(n1, n2) + 1)
        )
        return complex(total)


def rep_diag_log_mpmath(h: GL2Matrix, n1: int, n2: int, dps: int = 40) -> float:
    """ln of the diagonal element of a positive Hermitian h at (n1, n2) by
    the symmetric expansion h11^n1 h22^n2 sum_m C(n1, m) C(n2, m) r^m in
    dps-digit arithmetic, r = |h12|^2 / (h11 h22) read off the double entries."""
    with mpmath.workdps(dps):
        h11, h22 = mpmath.mpf(h.g11.real), mpmath.mpf(h.g22.real)
        r = abs(mpmath.mpc(h.g12)) ** 2 / (h11 * h22)
        total = mpmath.fsum(mpmath.binomial(n1, m) * mpmath.binomial(n2, m) * r**m for m in range(min(n1, n2) + 1))
        return float(n1 * mpmath.log(h11) + n2 * mpmath.log(h22) + mpmath.log(total))


def hyp2f1_terminating(n: int, b: float, c: float, x: float):
    """Terminating Gauss series 2F1(-n, b; c; x) = sum_{k<=n} ((-n)_k (b)_k / (c)_k) x^k / k!.

    The first parameter is the negative integer -n, so the sum has n + 1
    terms.  Raises if a Pochhammer factor (c)_k vanishes inside the range.
    """
    if n < 0:
        raise ValueError(f"series order must be non-negative, got {n}")
    total = x * 0
    term = x * 0 + 1
    for k in range(n + 1):
        total = total + term
        if k == n:
            break
        c_k = c + k
        if c_k == 0:
            raise ValueError(
                f"Pochhammer denominator (c)_k vanishes at k = {k + 1} for c = {c}"
            )
        term = term * (-(n - k)) * (b + k) / (c_k * (k + 1)) * x
    return total


def binomial_real(r, k: int):
    """Generalized binomial coefficient C(r, k) = r(r-1)...(r-k+1)/k!.

    Defined for real, complex, or Fraction r and integer k >= 0; exact when
    r is a Fraction.
    """
    if k < 0:
        raise ValueError(f"lower index must be non-negative, got {k}")
    out = r - r + 1  # one, in the arithmetic of r
    for i in range(k):
        out = out * (r - i) / (i + 1)
    return out


def jacobi_hyp(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial via C(n+alpha, n) 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)."""
    return binomial_real(n + alpha, n) * hyp2f1_terminating(
        n, n + alpha + beta + 1, alpha + 1, (1 - x) / 2
    )


def laguerre(n: int, mu: int, x):
    """Generalized Laguerre polynomial L_n^(mu)(x) by its finite sum

        sum_{k<=n} (-1)^k Gamma(n+mu+1) / (Gamma(mu+k+1) (n-k)!) x^k / k!.

    mu may be a negative integer as long as n + mu >= 0; terms whose
    Gamma(mu+k+1) sits at a pole vanish (reciprocal-gamma convention).
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n + mu < 0:
        raise ValueError(f"need n + mu >= 0, got n = {n}, mu = {mu}")
    total = x * 0
    log_top = math.lgamma(n + mu + 1)
    for k in range(n + 1):
        if mu + k < 0:
            continue  # 1/Gamma at a pole
        coeff = math.exp(log_top - math.lgamma(mu + k + 1) - math.lgamma(n - k + 1) - math.lgamma(k + 1))
        total += (-1) ** k * coeff * x**k
    return total


def displacement_closed_form(z, m, n):
    """D[m, n](z) at index arrays m, n by the printed closed form in double
    precision: exp of the log prefactor times L_lo^a(|z|^2) times z^a (m >= n)
    or (-conj z)^a (m < n), with lo = min(m, n) and a = |m - n|.  At large
    indices the factors leave double range, and entries come out non-finite
    or zero where the true value is not."""
    z = complex(z)
    m, n = np.broadcast_arrays(np.asarray(m), np.asarray(n))
    t = abs(z) ** 2
    lo = np.minimum(m, n)
    a = np.abs(m - n)
    w = np.where(m >= n, z, -np.conj(z))
    with np.errstate(all="ignore"):  # the overflow is what the tests probe
        pref = np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + a + 1)) - t / 2)
        power = np.where(a == 0, 1.0 + 0.0j, w**a)  # 0^0 = 1 at z = 0
        return pref * eval_genlaguerre(lo, a, t) * power


def displacement_mpmath(z, m: int, n: int, dps: int = 40) -> complex:
    """D[m, n](z) from the same closed form at ``dps`` digits."""
    with mpmath.workdps(dps):
        w = mpmath.mpc(complex(z))
        t = abs(w) ** 2
        if m < n:
            m, n, w = n, m, -mpmath.conj(w)
        pref = mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) * mpmath.exp(-t / 2)
        return complex(pref * w ** (m - n) * mpmath.laguerre(n, m - n, t))


def exp_contraction_exact(terms: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    """Exact-rational contraction transform on a sparse term map."""
    out: dict[tuple[int, int], Fraction] = {}
    for (j, k), c in terms.items():
        for t in range(min(j, k) + 1):
            w = Fraction((-1) ** t * math.factorial(j) * math.factorial(k),
                         math.factorial(t) * math.factorial(j - t) * math.factorial(k - t))
            key = (j - t, k - t)
            out[key] = out.get(key, Fraction(0)) + w * c
    return {key: c for key, c in out.items() if c != 0}


def exp_contraction_loop(c: np.ndarray) -> np.ndarray:
    """exp(-d/dz d/dconj z) on one coefficient grid, entry by entry: out[j, k]
    sums factor_t c[j+t, k+t] over t, factor_t = factor_{t-1} (-(j+t)(k+t)/t)."""
    rows, cols = c.shape
    out = np.zeros_like(c, dtype=complex)
    for j in range(rows):
        for k in range(cols):
            acc = 0.0 + 0.0j
            factor = 1.0
            for t in range(min(rows - j, cols - k)):
                if t > 0:
                    factor *= -(j + t) * (k + t) / t
                acc += factor * c[j + t, k + t]
            out[j, k] = acc
    return out


def expanded_monomial_loop(g: GL2Matrix, n1: int, n2: int) -> np.ndarray:
    """The (n1+n2+1)-square grid of (g11 z + g21 zbar)^n1 (g12 z + g22 zbar)^n2
    / sqrt(n1! n2!), one scalar product of binomial terms at a time."""
    grid = np.zeros((n1 + n2 + 1, n1 + n2 + 1), dtype=complex)
    first = [math.comb(n1, j) * g.g11**j * g.g21 ** (n1 - j) for j in range(n1 + 1)]
    second = [math.comb(n2, l) * g.g12**l * g.g22 ** (n2 - l) for l in range(n2 + 1)]
    for j, cj in enumerate(first):
        for l, cl in enumerate(second):
            grid[j + l, (n1 - j) + (n2 - l)] += cj * cl
    return grid * math.exp(-0.5 * (math.lgamma(n1 + 1) + math.lgamma(n2 + 1)))


def construction_equivalence_per_mode() -> float:
    """Criterion 2 one mode at a time: the worst entrywise gap between
    ``deformed_coeffs`` and ``deformed_via_rep`` and between
    ``deformed_coeffs`` and the T^L-column sum of contracted monomials, over
    the criterion's ten draws and every mode of degree <= 8."""
    rng = np.random.default_rng(0)
    worst = 0.0
    contracted = [[hermite_via_contraction(mp, L - mp) for mp in range(L + 1)] for L in range(9)]
    for _ in range(10):
        g = random_gl2(rng)
        for L, (block, grids) in enumerate(zip(rep_full(g, 8).blocks, contracted)):
            for n1 in range(L + 1):
                a = deformed_coeffs(g, n1, L - n1)
                b = deformed_via_rep(g, n1, L - n1)
                c = sum((h.scaled(block[mp, n1]) for mp, h in enumerate(grids)), start=a.scaled(0.0))
                worst = float(np.max([worst, np.max(np.abs((a - b).coeff)), np.max(np.abs((a - c).coeff))]))
    return worst


def stirling_r1_log(h11: float, h22: float, n1: int, n2: int) -> float:
    """ln of the r = 1 large-n behavior
    sqrt((n1+n2)/(2 pi n1 n2)) (n1+n2)^{n1+n2} n1^{-n1} n2^{-n2} h11^{n1} h22^{n2}."""
    if n1 < 1 or n2 < 1:
        raise ValueError("Stirling form needs n1, n2 >= 1")
    L = n1 + n2
    return (
        0.5 * math.log(L / (2 * math.pi * n1 * n2))
        + L * math.log(L)
        - n1 * math.log(n1)
        - n2 * math.log(n2)
        + n1 * math.log(h11)
        + n2 * math.log(h22)
    )


def binomial_diag_log(h11: float, h22: float, n1: int, n2: int) -> float:
    """ln of the exact r = 1 diagonal h11^{n1} h22^{n2} C(n1+n2, n1)."""
    return n1 * math.log(h11) + n2 * math.log(h22) + math.log(math.comb(n1 + n2, n1))


def dual_coeffs(g: GL2Matrix, n1: int, n2: int) -> PolyCoeffs:
    """Dual polynomial: the deformation by (dagger g)^(-1)."""
    return deformed_coeffs(dual(g), n1, n2)


def mode_of_sector(L: int, m: int) -> indexing.ModeIndex:
    """Two-mode label (m, L - m) of a sector position."""
    if L < 0 or not 0 <= m <= L:
        raise ValueError(f"need 0 <= m <= L, got (L, m) = ({L}, {m})")
    return indexing.ModeIndex(m, L - m)


def number_operator(pair) -> SectorOperator:
    """T(g) N T(g)^{-1} of a pseudo-bosonic pair, with N = Bdag B = diag(n);
    eigenvectors pair.vec_phi(n) with eigenvalue n."""
    return pair.T @ SectorOperator.diagonal(pair.L_max, np.arange(pair.a_op.dim)) @ pair.T_inv


@dataclass(frozen=True)
class DeformedFamily:
    """Coefficient grids of all deformed and dual polynomials with total
    degree <= L_max, keyed by mode label."""

    g: GL2Matrix
    L_max: int
    coeffs: dict
    dual_coeffs: dict

    @classmethod
    def build(cls, g: GL2Matrix, L_max: int) -> "DeformedFamily":
        gd = dual(g)
        coeffs = {}
        duals = {}
        for L in range(L_max + 1):
            for n1 in range(L + 1):
                key = indexing.ModeIndex(n1, L - n1)
                coeffs[key] = deformed_coeffs(g, n1, L - n1)
                duals[key] = deformed_coeffs(gd, n1, L - n1)
        return cls(g, L_max, coeffs, duals)


def biorth_gram_moments(g: GL2Matrix, L_max: int) -> np.ndarray:
    """Gram matrix G[n, n'] = <dual_n, deformed_n'> by one exact-moment
    inner product of coefficient grids per entry.  The moment sums cancel
    terms of size coefficient^2 x factorial, so the result loses digits as
    L_max grows (2.5e-12 from the identity for the shear at L_max 8)."""
    family = DeformedFamily.build(g, L_max)
    modes = [indexing.unflatten(n) for n in range(indexing.dim(L_max))]
    return np.array([[inner(family.dual_coeffs[a], family.coeffs[b]) for b in modes] for a in modes])


def hermite_gram_moments(max_degree: int) -> np.ndarray:
    """Gram matrix <h_n, h_n'> of the undeformed family over flat indices
    n, n' < dim(max_degree), by one exact-moment inner product of
    coefficient grids per entry.  Like ``biorth_gram_moments`` it loses
    digits with the degree: 1.5e-12 from the identity at degree 12, 3.6e-9
    at 20."""
    polys = [hermite_coeffs(*indexing.unflatten(n)) for n in range(indexing.dim(max_degree))]
    return np.array([[inner(p, q) for q in polys] for p in polys])


def norm_identity_deviation_moments(g: GL2Matrix, L_values) -> float:
    """Max relative gap between the exact squared norm and the exact-moment
    integral of the coefficient grid (``norm_sq_inner``) over every
    (n1, n2) with n1 + n2 in L_values (7e-11 at L = 16)."""
    rel = []
    for L in L_values:
        for n1 in range(L + 1):
            a = norm_sq(g, n1, L - n1)
            rel.append(abs(a - norm_sq_inner(g, n1, L - n1)) / abs(a))
    return float(np.max(rel))


def cuntz_isometry(n: int, L_max: int) -> np.ndarray:
    """Shift isometry e_m -> e_flatten(m, n), defined on columns with
    m + n <= L_max (images inside the truncation); a partial permutation,
    as a dense d x d array, filled from ``fock.cuntz_images`` (looked up on
    the module, so a test that patches it breaks this matrix too)."""
    if not 0 <= n <= L_max:
        raise ValueError(f"need 0 <= n <= L_max, got n = {n}")
    d = indexing.dim(L_max)
    mat = np.zeros((d, d), dtype=complex)
    mat[fock.cuntz_images(n, L_max), np.arange(cuntz_domain_dim(n, L_max))] = 1.0
    return mat


def cuntz_deviation_dense(L_max: int) -> float:
    """The shift-isometry relations S_m^dag S_n = delta_mn (identity on the
    domain, m <= n) and sum_n S_n S_n^dag = I by dense matrix products."""
    d = indexing.dim(L_max)
    shifts = [cuntz_isometry(n, L_max) for n in range(L_max + 1)]
    residuals = [sum(s @ s.conj().T for s in shifts) - np.eye(d)]
    for n, s_n in enumerate(shifts):
        for m in range(n + 1):
            domain = np.diag(np.arange(d) < cuntz_domain_dim(n, L_max))
            residuals.append(shifts[m].conj().T @ s_n - (m == n) * domain)
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def compose_check_full(z1: complex, z2: complex, L_max: int, check_L: int) -> float:
    """The displacement composition law on sectors L <= check_L, read off the
    full d x d product D(z1) D(z2)."""
    d = indexing.dim(L_max)
    prod = canonical_displacement(z1, d) @ canonical_displacement(z2, d)
    direct = np.exp(-1j * wedge(z1, z2)) * canonical_displacement(z1 + z2, d)
    k = indexing.dim(check_L)
    return float(np.max(np.abs(prod[:k, :k] - direct[:k, :k])))


def covariance_check_full(z: complex, zp: complex, g: GL2Matrix, L_max: int, check_L: int) -> float:
    """The projective covariance of both bi-coherent families on sectors
    L <= check_L, read off the full d x d displacement and T(g) at L_max."""
    d = indexing.dim(L_max)
    displaced = canonical_displacement(z, d) @ coherent_coefficients(zp, d)
    shifted = np.exp(-1j * wedge(z, zp)) * coherent_coefficients(z + zp, d)
    k = indexing.dim(check_L)
    return max(
        float(np.max(np.abs((T.apply(displaced) - T.apply(shifted))[:k])))
        for T in (rep_full(g, L_max), rep_full(dual(g), L_max))
    )


def resolution_check_full(g: GL2Matrix, L_max: int, scheme: PlaneScheme | None = None) -> float:
    """The resolution of the identity on sectors L <= L_max/2, read off the
    whole truncation: T(g) and T(g)^{-1} at L_max and the d x d moments."""
    if scheme is None:
        scheme = polar_scheme(64, 64)
    d = indexing.dim(L_max)
    V = coherent_coefficients(scheme.nodes, d)
    moments = (V * scheme.weights[None, :]) @ V.conj().T
    result = rep_full(g, L_max).apply(rep_full(g.inv(), L_max).apply_right(moments))
    k = indexing.dim(L_max // 2)
    return float(np.max(np.abs(result[:k, :k] - np.eye(k))))


def gaussian_moment(a: int, b: int) -> float:
    """Float version of ``exact_gaussian_moment``; inf where a! overflows a double."""
    if a != b:
        exact_gaussian_moment(a, b)  # argument validation
        return 0.0
    return float(FACTORIALS[min(a, 171)])


def metric_deviation_dense(g: GL2Matrix, L_max: int) -> float:
    """S_phi S_psi = I and the Hermiticity of S_phi by dense d x d products."""
    s_phi, s_psi = (op.mat for op in metric_operators(g, L_max))
    residuals = [s_phi @ s_psi - np.eye(len(s_phi)), s_phi - s_phi.conj().T]
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def two_mode_dense(L_max: int):
    """The two-mode annihilators (a1, a2) as dense d x d matrices, filled
    entry by entry: a1 e_(n1, n2) = sqrt(n1) e_(n1-1, n2), likewise a2."""
    d = indexing.dim(L_max)
    a1 = np.zeros((d, d), dtype=complex)
    a2 = np.zeros((d, d), dtype=complex)
    for n in range(d):
        n1, n2 = indexing.unflatten(n)
        if n1 >= 1:
            a1[indexing.flatten(n1 - 1, n2), n] = math.sqrt(n1)
        if n2 >= 1:
            a2[indexing.flatten(n1, n2 - 1), n] = math.sqrt(n2)
    return a1, a2


def _safe_commutator_residual(x, y, c, L_max: int) -> float:
    """Max |[x, y] - c I| on the safe block, by dense d x d products."""
    s = indexing.safe_dim(L_max)
    return float(np.max(np.abs((x @ y - y @ x)[:s, :s] - c * np.eye(s))))


def _ccr_residuals_dense(lowers, gram, L_max: int) -> list[float]:
    return [
        _safe_commutator_residual(x, y.conj().T, gram[i, j], L_max)
        for i, x in enumerate(lowers)
        for j, y in enumerate(lowers)
    ]


def ccr_deviation_dense(L_max: int) -> float:
    """[a_i, a_j^dag] = delta_ij I on the safe block by dense products."""
    return max(_ccr_residuals_dense(two_mode_dense(L_max), np.eye(2), L_max))


def deformed_ccr_deviation_dense(g: GL2Matrix, L_max: int) -> float:
    """[A_i, A_j^dag] = ((dagger g) g)_ij I on the safe block and [A1, A2] = 0
    on the whole truncation by dense products, with A1 = conj(g11) a1 +
    conj(g21) a2 and A2 = conj(g12) a1 + conj(g22) a2."""
    a1, a2 = two_mode_dense(L_max)
    A1 = np.conj(g.g11) * a1 + np.conj(g.g21) * a2
    A2 = np.conj(g.g12) * a1 + np.conj(g.g22) * a2
    ccr = _ccr_residuals_dense((A1, A2), g.gram().as_array(), L_max)
    return max(float(np.max(np.abs(A1 @ A2 - A2 @ A1))), *ccr)


def pseudo_commutator_deviation_dense(pair) -> float:
    """[a, b] = I on the safe block by dense products of the pair's matrices."""
    return _safe_commutator_residual(pair.a_op.mat, pair.b_op.mat, 1.0, pair.L_max)


def bicoherent_norm_envelope(z_abs: float, r: float, alpha: float) -> float:
    """Envelope e^{-|z|^2} ( sum_n (r|z|)^n / (n!)^{1/2 - alpha} )^2 bounding
    the squared norm of the coherent superposition under certified growth."""
    if not 0 <= alpha < 0.5:
        raise ValueError(f"need 0 <= alpha < 1/2, got {alpha}")
    total = 0.0
    term = 1.0
    n = 0
    while term > 1e-18 * max(total, 1.0):
        total += term
        n += 1
        term *= (r * z_abs) / (n ** (0.5 - alpha))
        if n > 10_000:
            raise ArithmeticError("envelope sum failed to converge")
    return math.exp(-(z_abs**2)) * total**2


def weight_operator_numeric(w: Weight, n: int) -> float:
    """The weight-operator diagonal at n by quadrature of e^{s|z|^2/2} D[n, n](z),
    the numeric column of ``weight_diagonal_table``."""
    return weight_diagonal_table(w, n)[n]["numeric"]


def poly_allclose(p, q, atol: float = 1e-12) -> bool:
    """Whether two coefficient grids agree entrywise to ``atol``."""
    return bool(np.all(np.abs((p - q).coeff) <= atol))
