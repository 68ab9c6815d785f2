"""Reference routes the tests cross-check the library against.

Each oracle computes a quantity the library also computes, by a different
route: the entrywise or 50-digit q-sum of a representation block (and the
modulus sum that scales its rounding error), the q-sum of a diagonal
element, the hypergeometric form of a Jacobi polynomial, the finite sum of
a generalized Laguerre polynomial, the double-precision and 40-digit
Laguerre closed forms of the displacement elements, the exact-rational
contraction transform, and the r = 1 closed forms of the diagonal.  Nothing
in the library calls them.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from pblab.gl2 import GL2Matrix
from pblab.special import binomial_real, log_binomial, log_factorial


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
    log_top = log_factorial(n + mu)
    for k in range(n + 1):
        if mu + k < 0:
            continue  # 1/Gamma at a pole
        coeff = math.exp(log_top - log_factorial(mu + k) - log_factorial(n - k) - log_factorial(k))
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
    return n1 * math.log(h11) + n2 * math.log(h22) + log_binomial(n1 + n2, n1)
