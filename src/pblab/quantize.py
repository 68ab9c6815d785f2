"""Integral quantization of plane functions against displaced weight operators.

A weight function w(z) with w(0) = 1 turns a phase-space function f into an
operator through

    A_f = int F[f](-z) D(z) w(z) d^2z / pi,

where F is the symplectic Fourier transform
F[f](z) = int f(xi) e^{z conj(xi) - conj(z) xi} d^2xi / pi.  For the
coordinate functions the transform is distributional and the closed results
are

    A_z    = a - (d/dconj z) w |_0,      A_zbar = b + (d/dz) w |_0,

with a the deformed lowering operator and b the raising operator of the
dual pair, so [A_z, A_zbar] = I on the safe block for every admissible
weight: the Poisson bracket {z, conj z} = 1 quantizes to the pseudo-bosonic
commutator.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import indexing
from .displacement import displacement_radial
from .fock import PseudoPair, TruncatedOperator, commutator, pseudo_pair, safe_part
from .gl2 import GL2Matrix, rep_full
from .quadrature import PlaneScheme, polar_scheme


@dataclass(frozen=True)
class WeightSpec:
    """Weight function with its Wirtinger derivatives at the origin."""

    eval: Callable[[complex], complex]
    dz_at_0: complex
    dzbar_at_0: complex
    label: str = field(default="custom")

    def __post_init__(self):
        w0 = complex(self.eval(0j))
        if abs(w0 - 1.0) > 1e-12:
            raise ValueError(f"weight must satisfy w(0) = 1, got {w0}")


def unit_weight() -> WeightSpec:
    return WeightSpec(lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.0, 0.0, "unit")


def isotropic_gaussian_weight(s: float) -> WeightSpec:
    """w_s(z) = e^{s |z|^2 / 2}; bounded weight operator needs s < 1."""
    if s >= 1:
        raise ValueError(f"need s < 1 for an integrable family, got {s}")
    return WeightSpec(
        lambda z: np.exp(s * np.abs(z) ** 2 / 2), 0.0, 0.0, f"gauss-s({s})"
    )


def drift_weight(alpha: complex, beta: complex, s: float = 0.0) -> WeightSpec:
    """w(z) = exp(alpha z - beta conj(z) + s |z|^2/2); first derivatives at the
    origin are alpha and -beta, so the linear quantizations pick up constants."""
    if s >= 1:
        raise ValueError(f"need s < 1, got {s}")
    return WeightSpec(
        lambda z: np.exp(alpha * z - beta * np.conj(z) + s * np.abs(z) ** 2 / 2),
        alpha,
        -beta,
        f"drift({alpha},{beta},s={s})",
    )


def quantize_linear(w: WeightSpec, g: GL2Matrix, L_max: int):
    """Closed-form quantizations of z and conj(z): (A_z, A_zbar)."""
    pair = pseudo_pair(g, L_max)
    eye = np.eye(pair.a_op.dim)
    a_z = pair.a_op.mat - complex(w.dzbar_at_0) * eye
    a_zbar = pair.b_op.mat + complex(w.dz_at_0) * eye
    return TruncatedOperator(L_max, a_z), TruncatedOperator(L_max, a_zbar)


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
    w: WeightSpec,
    g: GL2Matrix,
    L_max: int,
    scheme: PlaneScheme | None = None,
) -> TruncatedOperator:
    """Numeric A_{f} for f in {z e^{-lam|z|^2}, conj(z) e^{-lam|z|^2},
    e^{-lam|z|^2}}, by plane quadrature of F(-z) D(z) w(z)."""
    if scheme is None:
        scheme = polar_scheme(64, 64, radial_scale=1 / lam + 0.5)
    if scheme.kind != "polar":
        raise ValueError("the oracle needs a polar scheme (radial/angular structure)")
    nr, ntheta, scale = scheme.params
    d = indexing.dim(L_max)
    sft = _sft_factor(kind, lam)

    nodes = scheme.nodes.reshape(nr, ntheta)
    weights = scheme.weights.reshape(nr, ntheta)
    scalars = weights * np.asarray(sft(nodes) * w.eval(nodes), dtype=complex)
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
    return TruncatedOperator(L_max, T.apply(T_inv.apply_right(acc)))


def oracle_deviation(pair: PseudoPair, kind: str, lam: float, w: WeightSpec) -> float:
    """Max deviation of the lam-regularized oracle for kind "z" ("zbar") from
    the unregularized pair.a_op (pair.b_op) on sectors <= 4, relative to
    the block maximum of the latter."""
    target = pair.a_op if kind == "z" else pair.b_op
    k = indexing.dim(min(4, pair.L_max))
    orc = quantize_regularized_oracle(kind, lam, w, pair.g, pair.L_max)
    scale = float(np.max(np.abs(target.mat[:k, :k])))
    return float(np.max(np.abs((orc.mat - target.mat)[:k, :k]))) / scale


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


def pseudo_canonical_defect(w: WeightSpec, g: GL2Matrix, L_max: int) -> float:
    """Max deviation of [A_z, A_zbar] - I on the safe block."""
    a_z, a_zbar = quantize_linear(w, g, L_max)
    comm = safe_part(commutator(a_z.mat, a_zbar.mat), L_max)
    return float(np.max(np.abs(comm - np.eye(indexing.safe_dim(L_max)))))
