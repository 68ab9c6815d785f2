"""Integral quantization of plane functions against displaced weight operators.

Every weight here belongs to one family,

    w(z) = exp(alpha z - beta conj(z) + s |z|^2 / 2),    s < 1,

with w(0) = 1; s is the Cahill-Glauber ordering parameter (Phys. Rev. 177,
1857, 1969), and alpha and -beta are the Wirtinger derivatives of w at the
origin.  ``Weight`` is the only way a weight enters the library, and its
constructor is the only place that enforces s < 1.  Without drift the
weight operator int D(z) w(z) d^2z / pi is diagonal, with the closed form
2/(1-s) ((s+1)/(s-1))^n that ``weight_diagonal_table`` checks against a
radial quadrature.  A weight turns a phase-space function f into an
operator through

    A_f = int F[f](-z) D(z) w(z) d^2z / pi,

where F is the symplectic Fourier transform
F[f](z) = int f(xi) e^{z conj(xi) - conj(z) xi} d^2xi / pi.  For the
coordinate functions the transform is distributional and the closed results
are

    A_z    = a - (d/dconj z) w |_0,      A_zbar = b + (d/dz) w |_0,

with a the deformed lowering operator and b the raising operator of the
dual pair, so A_z = a + beta and A_zbar = b + alpha, and [A_z, A_zbar] = I
on the safe block for every weight of the family: the Poisson bracket
{z, conj z} = 1 quantizes to the pseudo-bosonic commutator.

The numeric oracle replaces the delta-derivative transform by the closed
form for the Gaussian-damped functions (derived analytically, no numeric
Fourier inversion):

    F[xi e^{-lam |xi|^2}](z)      = ( z / lam^2) e^{-|z|^2 / lam}
    F[conj(xi) e^{-lam |xi|^2}](z) = (-conj(z)/lam^2) e^{-|z|^2 / lam}
    F[e^{-lam |xi|^2}](z)          = (1 / lam)   e^{-|z|^2 / lam}

and integrates F(-z) D(z) w(z) by plane quadrature.  The mollifier damps
the n-th matrix element by (1 - lam/(1 + lam/2))^n, i.e. roughly e^{-lam n},
so convergence to the linear closed form is entrywise in lam but not
uniform over the truncation.
"""

from dataclasses import dataclass

import numpy as np

from . import indexing
from .displacement import displacement_radial
from .fock import PseudoPair, commutator, pseudo_pair
from .gl2 import GL2Matrix, SectorOperator, rep_full
from .quadrature import polar_scheme


@dataclass(frozen=True)
class Weight:
    """w(z) = exp(alpha z - beta conj(z) + s |z|^2 / 2); the weight operator
    is bounded only for s < 1."""

    alpha: complex = 0
    beta: complex = 0
    s: float = 0

    def __post_init__(self):
        if self.s >= 1:
            raise ValueError(f"need s < 1 for an integrable family, got {self.s}")

    def __call__(self, z):
        # the real factor is its own exp, so a weight without drift reads
        # e^{s |z|^2 / 2} bit for bit
        return np.exp(self.s * np.abs(z) ** 2 / 2) * np.exp(self.alpha * z - self.beta * np.conj(z))


def weight_operator_diag(w: Weight, n: int) -> float:
    """Closed-form diagonal of the weight operator of a weight without
    drift: 2/(1-s) ((s+1)/(s-1))^n; reduces to 2 (-1)^n at s = 0 and to
    the n = 0 projector at s = -1."""
    if w.alpha or w.beta:
        raise ValueError(f"the closed-form diagonal needs a weight without drift, got {w}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    ratio = (w.s + 1) / (w.s - 1)
    return 2 / (1 - w.s) * ratio**n


def weight_diagonal_table(w: Weight, n_max: int) -> list[dict]:
    """Closed form against quadrature of the weight-operator diagonal for
    n = 0..n_max: per n the closed value, the numeric value, the absolute
    error and the error relative to max(1, |closed|)."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    rows = []
    for n, numeric in enumerate(_weight_numeric_diagonal(w, n_max).tolist()):
        closed = weight_operator_diag(w, n)
        abs_err = abs(numeric - closed)
        rows.append(
            {
                "n": n,
                "closed_form": closed,
                "numeric": numeric,
                "abs_err": abs_err,
                "rel_err": abs_err / max(1.0, abs(closed)),
            }
        )
    return rows


def _weight_numeric_diagonal(w: Weight, n_max: int) -> np.ndarray:
    """The diagonal of the weight operator of w's Gaussian factor for
    n = 0..n_max by one radial quadrature of e^{s|z|^2/2} D[n, n](z); the
    integrand has no angular dependence."""
    scheme = polar_scheme(64, 1, radial_scale=(1 - w.s) / 2)
    t = np.abs(scheme.nodes) ** 2
    diag = np.diagonal(displacement_radial(t, n_max + 1), axis1=1, axis2=2)
    # far out e^{s t/2} overflows where D[n, n] underflows to 0; there the
    # product, kept in the log domain, is 0 too
    with np.errstate(divide="ignore"):
        log_weight = np.log(scheme.weights) + w.s * t / 2
        terms = np.sign(diag) * np.exp(np.log(np.abs(diag)) + log_weight[:, None])
    return terms.sum(axis=0)


def quantize_linear(w: Weight, g: GL2Matrix, L_max: int):
    """Closed-form quantizations of z and conj(z): (A_z, A_zbar)."""
    pair = pseudo_pair(g, L_max)
    shift = lambda c: SectorOperator.diagonal(L_max, complex(c))
    return pair.a_op - shift(-w.beta), pair.b_op - shift(-w.alpha)


def _sft_factor(kind: str, lam: float):
    """F[f_lam](-z) for the regularized coordinate functions."""
    if lam <= 0:
        raise ValueError(f"regularizer must be positive, got {lam}")
    if kind == "z":
        return lambda z: (-z / lam**2) * np.exp(-np.abs(z) ** 2 / lam)
    if kind == "zbar":
        return lambda z: (np.conj(z) / lam**2) * np.exp(-np.abs(z) ** 2 / lam)
    if kind == "one":
        return lambda z: (1 / lam) * np.exp(-np.abs(z) ** 2 / lam)
    raise ValueError(f"unknown test function kind {kind!r}")


def quantize_regularized_oracle(
    kind: str,
    lam: float,
    w: Weight,
    g: GL2Matrix,
    L_max: int,
) -> np.ndarray:
    """Numeric A_{f} for f in {z e^{-lam|z|^2}, conj(z) e^{-lam|z|^2},
    e^{-lam|z|^2}}, by plane quadrature of F(-z) D(z) w(z) on a 64 x 64
    polar scheme."""
    sft = _sft_factor(kind, lam)
    nr = ntheta = 64
    scheme = polar_scheme(nr, ntheta, radial_scale=1 / lam + 0.5)
    d = indexing.dim(L_max)

    nodes = scheme.nodes.reshape(nr, ntheta)
    weights = scheme.weights.reshape(nr, ntheta)
    scalars = weights * (sft(nodes) * w(nodes))
    t_vals = np.abs(nodes[:, 0]) ** 2
    theta = np.angle(nodes[0, :])
    table = displacement_radial(t_vals, d)
    harmonics = np.exp(1j * np.outer(theta, np.arange(d)))  # [j, p] = e^{i th_j p}
    acc = np.zeros((d, d), dtype=complex)
    for i in range(nr):
        weighted = harmonics * scalars[i][:, None]  # [j, p]
        angular = weighted.T @ harmonics.conj()  # [m, n] = sum_j s_ij e^{i th_j (m-n)}
        acc += table[i] * angular
    T = rep_full(g, L_max)
    T_inv = rep_full(g.inv(), L_max)
    return T.apply(T_inv.apply_right(acc))


def oracle_deviation(pair: PseudoPair, kind: str, lam: float, w: Weight) -> float:
    """Max deviation of the lam-regularized oracle for kind "z" ("zbar") from
    the unregularized pair.a_op (pair.b_op) on sectors <= 4, relative to
    the block maximum of the latter."""
    check_L = min(4, pair.L_max)
    k = indexing.dim(check_L)
    op = pair.a_op if kind == "z" else pair.b_op
    target = SectorOperator(check_L, {key: b for key, b in op.parts.items() if max(key) <= check_L}).mat
    # block-diagonal conjugation of exact elements: sectors <= check_L of
    # the oracle need only those sectors
    orc = quantize_regularized_oracle(kind, lam, w, pair.g, check_L)
    scale = float(np.max(np.abs(target)))
    return float(np.max(np.abs(orc - target))) / scale


def mollified_lowering_diagonal(lam: float, dim: int) -> np.ndarray:
    """Predicted sub-diagonal of the lam-regularized quantization of z with
    the unit weight: sqrt(n) (1 + lam/2)^{-2} (1 - lam/(1+lam/2))^{n-1}.

    Derived by the Laguerre transform of the closed-form matrix elements;
    the oracle must reproduce these values to quadrature accuracy, which
    pins the mollifier bias independently of any tolerance choice.
    """
    n = np.arange(1, dim)
    nu_inv = lam / (1 + lam / 2)
    return np.sqrt(n) * (1 + lam / 2) ** (-2.0) * (1 - nu_inv) ** (n - 1)


def pseudo_canonical_defect(w: Weight, g: GL2Matrix, L_max: int) -> float:
    """Max deviation of [A_z, A_zbar] - I on the safe block."""
    a_z, a_zbar = quantize_linear(w, g, L_max)
    return commutator(a_z, a_zbar).safe_deviation(1.0)
