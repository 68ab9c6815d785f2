"""Special functions: Jacobi polynomials as finite sums and generalized
binomials.

Every polynomial here is evaluated from its explicit finite sum (no
recurrences, no analytic continuation).
"""


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

