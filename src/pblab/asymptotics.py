"""Large-index asymptotics of the representation diagonal, validated against
the exact log-domain q-sum.

Two regimes are covered for positive Hermitian h with r = |h12|^2/(h11 h22):

* fixed difference d = n2 - n1: the Jacobi-polynomial asymptotic

      T-diag ~ h11^{n1} h22^{n2} (2 pi n1)^{-1/2} (4r)^{-1/4}
               (1 + sqrt r)^{n1+n2+1},

  where (4r)^{-1/4} is the full (x^2-1)^{-1/4} factor of the underlying
  Jacobi estimate written in r variables.  (Writing (x-1)^{-1/4} alone,
  i.e. a prefactor [2r(1-r)]^{-1/4}, misses the constant ((1-r)/2)^{1/4};
  the form used here reproduces exact/estimate -> 1 and coincides with the
  nu = 1 limit of the Laplace estimate below.)

* fixed ratio nu = n2/n1: the Laplace (saddle-point) estimate built on the
  positive root xi_+ of  xi^2 + (r(1+nu)/(1-r)) xi - r nu/(1-r) = 0,

      T-diag ~ h11^{n1} h22^{n2} (2 pi n1)^{-1/2}
               [xi_+ (2 - (1 + 1/nu) xi_+)]^{-1/2}
               (1 - xi_+)^{-n1} (1 - xi_+/nu)^{-n2}.

All values are produced in the log domain; at the validation sizes
(n1 up to several hundred) the plain values overflow double precision.
"""

import math
from dataclasses import dataclass

from .gl2 import GL2Matrix, positive_invariants, rep_diag_log


def asympt_fixed_d(h: GL2Matrix, n1: int, d: int) -> float:
    """Logarithm of the fixed-difference estimate at (n1, n2 = n1 + d)."""
    if n1 < 1:
        raise ValueError(f"need n1 >= 1, got {n1}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d} (exchange the modes instead)")
    h11, h22, r = positive_invariants(h)
    if not 0 < r < 1:
        raise ValueError(f"estimate prefactor is singular outside 0 < r < 1, got r = {r}")
    n2 = n1 + d
    return (
        n1 * math.log(h11)
        + n2 * math.log(h22)
        - 0.5 * math.log(2 * math.pi * n1)
        - 0.25 * math.log(4 * r)
        + (n1 + n2 + 1) * math.log1p(math.sqrt(r))
    )


@dataclass(frozen=True)
class LaplaceData:
    """Saddle-point data at fixed ratio nu = n2/n1."""

    r: float
    nu: float
    xi_plus: float
    App_at_xi: float

    def __post_init__(self):
        if not 0 < self.xi_plus < 1:
            raise ValueError(f"saddle point left (0, 1): xi_+ = {self.xi_plus}")
        if not self.App_at_xi < 0:
            raise ValueError("second derivative at the saddle must be negative")


def _A_prime(xi: float, r: float, nu: float) -> float:
    return math.log((1 - xi) * (1 - xi / nu)) - math.log(xi**2) + math.log(nu * r)


def laplace_root(r: float, nu: float) -> LaplaceData:
    """Positive root xi_+ of the saddle equation, with A''(xi_+).

    Stationarity |A'(xi_+)| <= 1e-9 is verified by direct evaluation.
    """
    if not 0 < r < 1:
        raise ValueError(f"need 0 < r < 1, got {r}")
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    sr = math.sqrt(r)
    xi = sr / (2 * (1 - r)) * (math.sqrt(r * (nu - 1) ** 2 + 4 * nu) - sr * (1 + nu))
    resid = _A_prime(xi, r, nu)
    if abs(resid) > 1e-9:
        raise ArithmeticError(f"saddle residual |A'(xi_+)| = {abs(resid):.2e} > 1e-9")
    app = -(2 - (1 + 1 / nu) * xi) / (xi * (1 - xi) * (1 - xi / nu))
    return LaplaceData(r, nu, xi, app)


def asympt_laplace(h: GL2Matrix, n1: int, nu: float) -> float:
    """Logarithm of the fixed-ratio estimate at (n1, n2 = round(nu n1))."""
    if n1 < 1:
        raise ValueError(f"need n1 >= 1, got {n1}")
    h11, h22, r = positive_invariants(h)
    data = laplace_root(r, nu)
    xi = data.xi_plus
    n2 = round(nu * n1)
    return (
        n1 * math.log(h11)
        + n2 * math.log(h22)
        - 0.5 * math.log(2 * math.pi * n1)
        - 0.5 * math.log(xi * (2 - (1 + 1 / nu) * xi))
        - n1 * math.log1p(-xi)
        - n2 * math.log1p(-xi / nu)
    )


def ratio_row(h: GL2Matrix, n1: int, *, d: int | None = None, nu: float | None = None) -> dict:
    """One validation record: exact vs estimate at fixed d or fixed nu.

    Returns the CSV-facing fields (n1, n2, r, nu_or_d, log_exact,
    log_estimate, ratio, log_error_per_degree), the last being
    |log_exact - log_estimate| / (n1 + n2).
    """
    if (d is None) == (nu is None):
        raise ValueError("specify exactly one of d or nu")
    h11, h22, r = positive_invariants(h)
    if d is not None:
        n2 = n1 + d
        log_est = asympt_fixed_d(h, n1, d)
        nu_or_d = float(d)
    else:
        n2 = round(nu * n1)
        log_est = asympt_laplace(h, n1, nu)
        nu_or_d = float(nu)
    log_exact = float(rep_diag_log(h, n1, n2))
    return {
        "n1": n1,
        "n2": n2,
        "r": r,
        "nu_or_d": nu_or_d,
        "log_exact": log_exact,
        "log_estimate": log_est,
        "ratio": math.exp(log_exact - log_est),
        "log_error_per_degree": abs(log_exact - log_est) / (n1 + n2),
    }
