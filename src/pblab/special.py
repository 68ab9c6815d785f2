"""Special functions: Jacobi polynomials as finite sums, generalized
binomials, and log-domain utilities.

Every polynomial here is evaluated from its explicit finite sum (no
recurrences, no analytic continuation).  Log-domain helpers keep quantities
far beyond double-precision range (binomials like C(400, 200), factorials
of 10^6) comparable as logarithms.
"""

import math

_NEG_INF = float("-inf")


def log_factorial(n: int) -> float:
    """ln(n!) via lgamma; relative error well below 1e-12 for any n <= 10^6.

    Consecutive differences log_factorial(n) - log_factorial(n-1) are exact
    only to the ulp of the stored magnitude (~1.5e-11 absolute near n = 10^4),
    a float64 representation bound, not an algorithmic one.
    """
    if n < 0:
        raise ValueError(f"factorial undefined for n = {n}")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for integer 0 <= k <= n; -inf outside that range."""
    if k < 0 or k > n:
        return _NEG_INF
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


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


def log_sum_exp(log_terms) -> float:
    """ln(sum(exp(t))) over an iterable of log-domain terms, all weights +1."""
    terms = [t for t in log_terms if t != _NEG_INF]
    if not terms:
        return _NEG_INF
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def jacobi_sum(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x) by its binomial double product:

        sum_j C(n+alpha, j) C(n+beta, n-j) ((x+1)/2)^j ((x-1)/2)^(n-j).

    Accepts complex or Fraction x (the representation diagonal uses complex
    arguments; exactness tests use rationals).
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    up = (x + 1) / 2
    dn = (x - 1) / 2
    total = x * 0
    for j in range(n + 1):
        total = total + (
            binomial_real(n + alpha, j) * binomial_real(n + beta, n - j) * up**j * dn ** (n - j)
        )
    return total

