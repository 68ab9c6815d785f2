"""Special functions: Jacobi polynomials as finite sums, generalized
binomials, and log-domain utilities.

Every polynomial here is evaluated from its explicit finite sum (no
recurrences, no analytic continuation).  Log-domain helpers
carry a sign so that quantities far beyond double-precision range (binomials
like C(400, 200), factorials of 10^6) can still be combined and compared.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, ln|value|); sign 0 encodes exact zero."""

    log_magnitude: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_magnitude != _NEG_INF:
            raise ValueError("zero LogValue must carry log_magnitude = -inf")

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls(_NEG_INF, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogValue":
        return cls(log_magnitude, sign)

    @property
    def value(self) -> float:
        """Float value; overflows to +-inf when the magnitude exceeds range."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_magnitude)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue(_NEG_INF, 0)
        return LogValue(self.log_magnitude + other.log_magnitude, self.sign * other.sign)

    def scaled(self, log_factor: float) -> "LogValue":
        """Multiply by exp(log_factor) without leaving the log domain."""
        if self.sign == 0:
            return self
        return LogValue(self.log_magnitude + log_factor, self.sign)


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


def jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x) by the binomial sum; the tests
    cross-check it against the terminating hypergeometric form.
    """
    return jacobi_sum(n, alpha, beta, x)
