"""Acceptance battery: one runnable check per shipped criterion.

Each criterion pins its tolerance here, reports its worst measured
deviation, and is reachable both from the test suite and from the command
line (`suite` subcommand).  Randomness is seeded, summation orders fixed,
so reports are reproducible byte for byte.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import indexing
from .asymptotics import laplace_root, ratio_row
from .deformed import (
    NORM_BOUND_LOG_SLACK,
    biorth_gram,
    combine_sector,
    deformed_sector,
    norm_bound_violation,
    norm_identity_deviation,
    riesz_growth,
)
from .displacement import (
    canonical_displacement,
    compose_check,
    covariance_check,
    resolution_check,
)
from .fock import (
    commutator,
    cuntz_deviation,
    deformed_ccr_deviation,
    ladder,
    ladder_deviation,
    metric_deviation,
    pseudo_commutator_deviation,
    pseudo_pair,
)
from .gl2 import GL2Matrix, homomorphism_deviation, inverse_deviation, random_gl2, rep_full, star_deviation
from .hermite import (
    exp_contraction,
    hermite_sector,
    hermite_terms_exact,
    inner_exact,
    monomial_basis,
    sector_stack,
)
from .quantize import Weight, mollified_lowering_diagonal, oracle_deviation, pseudo_canonical_defect, weight_diagonal_table

SHEAR = GL2Matrix(1, 1, 0, 1)


@dataclass
class CriterionResult:
    number: int
    name: str
    deviation: float
    tolerance: float
    passed: bool
    runtime_s: float = 0.0
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.number:2d}: {self.name} "
            f"(deviation {self.deviation:.3e}, tolerance {self.tolerance:.0e}, "
            f"{self.runtime_s:.1f}s)"
        )


def _worst(*values: float) -> float:
    """Largest of `values`, or NaN if any of them is NaN (the builtin max
    would drop a NaN that is not its first argument)."""
    return float(np.max(values))


def criterion_01_orthonormality() -> CriterionResult:
    """Complex Hermite orthonormality: exact defect zero, float <= 1e-12."""
    tol = 1e-12
    modes = [indexing.unflatten(n) for n in range(indexing.dim(10))]
    exact_terms = {m: hermite_terms_exact(*m) for m in modes}
    exact_mismatches = 0
    for ma, mb in itertools.combinations_with_replacement(modes, 2):
        ref = math.factorial(ma[0]) * math.factorial(ma[1]) if ma == mb else 0
        if inner_exact(exact_terms[ma], exact_terms[mb]) != ref:
            exact_mismatches += 1
    # the Gram of the deformed family at g = I, dual(I) = I, is <h_n, h_n'>
    _, worst = biorth_gram(GL2Matrix.identity(), 10)
    passed = exact_mismatches == 0 and worst <= tol
    return CriterionResult(
        1,
        "complex Hermite orthonormality (exact + float, degree <= 10)",
        worst,
        tol,
        passed,
        details={"exact_mismatches": exact_mismatches, "float_worst": worst},
    )


def criterion_02_construction_equivalence() -> CriterionResult:
    """Three routes to the deformed polynomials agree entrywise to 1e-10.

    Each sector L <= 8 compares three stacks of its L+1 grids: the
    contracted expanded monomials, and the columns of T^L(g) combined with
    the Hermite grids and with the contracted plain monomials.
    """
    tol = 1e-10
    rng = np.random.default_rng(0)
    worst = 0.0
    contracted = [
        exp_contraction(sector_stack([monomial_basis(m, L - m) for m in range(L + 1)], L)) for L in range(9)
    ]
    for _ in range(10):
        g = random_gl2(rng)
        for L, block in enumerate(rep_full(g, 8).blocks):
            a = deformed_sector(g, L, range(L + 1))
            b = combine_sector(block, hermite_sector(L))
            c = combine_sector(block, contracted[L])
            worst = _worst(worst, float(np.max(np.abs(a - b))), float(np.max(np.abs(a - c))))
    return CriterionResult(
        2,
        "construction equivalence of deformed polynomials (3 routes, L <= 8)",
        worst,
        tol,
        worst <= tol,
    )


def criterion_03_representation_laws() -> CriterionResult:
    """Homomorphism, inverse, and star law of the sector blocks to 1e-10."""
    tol = 1e-10
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        a = random_gl2(rng, 0.8, 1.25)
        b = random_gl2(rng, 0.8, 1.25)
        for L in (1, 4, 8, 12):
            laws = homomorphism_deviation(a, b, L), star_deviation(a, L), inverse_deviation(a, L)
            worst = _worst(worst, *laws)
    return CriterionResult(
        3, "representation laws (homomorphism, inverse, star; L <= 12)", worst, tol, worst <= tol
    )


def criterion_04_norm_identity_and_bounds() -> CriterionResult:
    """Norm identity to 1e-10 relative (L <= 12) and the bound sandwich in
    the log domain for 4 <= min(n1, n2), L <= 40."""
    tol = 1e-10
    rng = np.random.default_rng(2)
    matrices = [SHEAR, GL2Matrix.diagonal(2, 1)] + [random_gl2(rng) for _ in range(20)]
    worst_rel = _worst(*(norm_identity_deviation(g, (2, 7, 12)) for g in matrices))
    worst_violation = _worst(0.0, *(
        float(np.max(norm_bound_violation(g, n1, L - n1)))
        for g in matrices[:8] for L in (10, 24, 40) for n1 in [np.arange(4, L - 3)]
    ))
    passed = worst_rel <= tol and worst_violation <= NORM_BOUND_LOG_SLACK
    return CriterionResult(
        4,
        "norm identity (1e-10 rel, L <= 12) + bound sandwich (log, L <= 40)",
        worst_rel,
        tol,
        passed,
        details={"sandwich_worst_log_violation": worst_violation},
    )


def criterion_05_non_riesz_growth() -> CriterionResult:
    """Norm product at L = 60 exceeds L = 10 by at least 2^40 for the shear."""
    rows = riesz_growth(SHEAR, [10, 60])
    growth = rows[1]["log_product"] - rows[0]["log_product"]
    required = 40 * math.log(2)
    deficit = _worst(0.0, required - growth)
    return CriterionResult(
        5,
        "non-Riesz norm-product growth (factor >= 2^40 from L=10 to L=60)",
        deficit,
        0.0,
        growth >= required,
        details={"log_growth": growth, "required": required},
    )


def criterion_06_asymptotics() -> CriterionResult:
    """Appendix-style estimates within 1% of exact per unit degree, plus the
    closed-form limits of the saddle point."""
    tol = 0.01
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        h = GL2Matrix(1.0, math.sqrt(r), math.sqrt(r), 1.0)
        rows = [ratio_row(h, 200, d=d) for d in (0, 1, 5)] + [ratio_row(h, 100, nu=2.0)]
        worst = _worst(worst, *(row["log_error_per_degree"] for row in rows))
    xi_r1 = abs(laplace_root(0.999, 2.0).xi_plus - 2 / 3)
    xi_nu1 = abs(laplace_root(0.25, 1.0).xi_plus - 1 / 3)
    passed = worst <= tol and xi_r1 <= 1e-2 and xi_nu1 <= 1e-12
    return CriterionResult(
        6,
        "asymptotic estimates (fixed d at n1=200, Laplace at n1=100) + saddle limits",
        worst,
        tol,
        passed,
        details={"xi_limit_r_to_1": xi_r1, "xi_limit_nu_1": xi_nu1},
    )


def criterion_07_operator_algebra() -> CriterionResult:
    """Ladder, deformed, pseudo-bosonic, shift-isometry, and metric
    identities on the safe block at L_max = 12, all to 1e-8."""
    tol = 1e-8
    L_max = 12
    B, Bd = ladder(L_max)
    ccr = deformed_ccr_deviation(GL2Matrix.identity(), L_max)
    worst = _worst(commutator(B, Bd).safe_deviation(1.0), ccr, cuntz_deviation(L_max))

    # T(g)^{-1} = T(g^{-1}) is exact, but the products T B T^{-1} cancel
    # down to about eps |T| |T^{-1}|, which grows like cond(g)^L; the random
    # draws cap the condition number near 1.6 to keep the 1e-8 budget at
    # L_max = 12 (the shear, cond 2.6, reads about 3.4e-9)
    rng = np.random.default_rng(3)
    matrices = [SHEAR, GL2Matrix.diagonal(2, 1)] + [random_gl2(rng, 0.8, 1.3) for _ in range(10)]
    for g in matrices:
        pair = pseudo_pair(g, L_max)
        phi = np.stack([pair.vec_phi(n) for n in range(12)], axis=1)
        psi = np.stack([pair.vec_psi(m) for m in range(12)], axis=1)
        gram_family = psi.conj().T @ phi
        biorth = float(np.max(np.abs(gram_family - np.eye(12))))
        worst = _worst(worst, deformed_ccr_deviation(g, L_max), biorth)
        worst = _worst(worst, pseudo_commutator_deviation(pair), ladder_deviation(pair))

    # metric product residual floors at eps * |S_phi| * |S_psi|, which
    # leaves the 1e-8 budget only while the metric blocks stay well
    # conditioned; the draws above (cond <= 1.6) and the exact diagonal case
    # qualify, a cond ~2.6 shear at L = 12 does not
    worst = _worst(worst, *(metric_deviation(g, L_max) for g in matrices[1:]))
    return CriterionResult(
        7, "truncated operator algebra on the safe block (L_max = 12)", worst, tol, worst <= tol
    )


def criterion_08_displacement_algebra() -> CriterionResult:
    """Composition rule and projective covariance to 1e-6 on sectors <= 10
    at L_max = 30, |z| <= 1; zero displacement is exactly the identity."""
    tol = 1e-6
    pairs = [(1.0, 1j), (0.5 - 0.5j, -0.3 + 0.8j), (0.8 + 0.1j, -(0.8 + 0.1j))]
    worst = 0.0
    for z1, z2 in pairs:
        worst = _worst(worst, compose_check(z1, z2, 30, check_L=10))
        worst = _worst(worst, covariance_check(z1, z2, SHEAR, 30, check_L=10))
    ident_exact = np.array_equal(canonical_displacement(0.0, indexing.dim(12)), np.eye(indexing.dim(12)))
    passed = worst <= tol and ident_exact
    return CriterionResult(
        8,
        "displacement composition + projective covariance (L_max = 30)",
        worst,
        tol,
        passed,
        details={"zero_displacement_exact": ident_exact},
    )


def criterion_09_weight_diagonal() -> CriterionResult:
    """Quadrature of the isotropic weight family matches the closed form
    2/(1-s) ((s+1)/(s-1))^n to 1e-6 for s in {-3,-1,0,0.5}, n <= 10."""
    tol = 1e-6
    weights = [Weight(s=s) for s in (-3.0, -1.0, 0.0, 0.5)]
    worst = _worst(*(row["rel_err"] for w in weights for row in weight_diagonal_table(w, 10)))
    return CriterionResult(
        9, "isotropic weight-operator diagonal, closed form vs quadrature", worst, tol, worst <= tol
    )


def criterion_10_resolution_of_identity() -> CriterionResult:
    """Truncated resolution of the identity to 1e-8 on sectors <= 6."""
    tol = 1e-8
    rng = np.random.default_rng(4)
    worst = 0.0
    for g in (GL2Matrix.identity(), SHEAR, random_gl2(rng, 0.6, 1.8)):
        worst = _worst(worst, resolution_check(g, 12))
    return CriterionResult(
        10, "resolution of identity (L_max = 12, 64x64 polar)", worst, tol, worst <= tol
    )


def criterion_11_quantization() -> CriterionResult:
    """Coordinate quantizations from the regularized oracle within 2% on
    sectors <= 4 at lambda = 1e-3, and the pseudo-canonical commutator to
    1e-8 for every implemented weight.

    The oracle is compared with the unregularized A_z and A_zbar, so its
    deviation is the exact mollifier bias: the sub-diagonal entry at flat
    index n is damped to sqrt(n) (1 + lam/2)^{-2} (1 - lam/(1+lam/2))^{n-1}.
    Relative to the block maximum that bias is 0.0139 at lam = 1e-3 and
    0.1306 at lam = 0.01 (top of sector 4).  The closed form is checked
    against the tolerance first, so a (tolerance, regularizer) pair that no
    implementation can meet fails as such.
    """
    lam = 1e-3
    tol = 0.02
    g = GL2Matrix.identity()
    L_max = 8
    pair = pseudo_pair(g, L_max)
    k = indexing.dim(4)
    w = Weight()

    exact = np.sqrt(np.arange(1, k))
    bias = np.abs(exact - mollified_lowering_diagonal(lam, k))
    predicted_bias = float(np.max(bias) / np.max(exact))

    dev_z = oracle_deviation(pair, "z", lam, w)
    dev_zb = oracle_deviation(pair, "zbar", lam, w)
    oracle_dev = _worst(dev_z, dev_zb)

    # w = Weight() is also the s = 0 member of the isotropic family
    weights = [w, Weight(s=-3.0), Weight(s=0.5), Weight(0.3, 0.2 - 0.1j)]
    comm_dev = _worst(*(pseudo_canonical_defect(ws, SHEAR, 12) for ws in weights))

    passed = predicted_bias <= tol and oracle_dev <= tol and comm_dev <= 1e-8
    return CriterionResult(
        11,
        "regularized quantization oracle (2% at lambda=1e-3) + pseudo-canonical law",
        oracle_dev,
        tol,
        passed,
        details={
            "regularizer": lam,
            "predicted_bias": predicted_bias,
            "oracle_dev_z": dev_z,
            "oracle_dev_zbar": dev_zb,
            "pseudo_canonical_worst": comm_dev,
            "pseudo_canonical_tol": 1e-8,
        },
    )


CRITERIA = [
    criterion_01_orthonormality,
    criterion_02_construction_equivalence,
    criterion_03_representation_laws,
    criterion_04_norm_identity_and_bounds,
    criterion_05_non_riesz_growth,
    criterion_06_asymptotics,
    criterion_07_operator_algebra,
    criterion_08_displacement_algebra,
    criterion_09_weight_diagonal,
    criterion_10_resolution_of_identity,
    criterion_11_quantization,
]


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(CRITERIA)}, got {number}")
    t0 = time.perf_counter()
    result = CRITERIA[number - 1]()
    result.runtime_s = time.perf_counter() - t0
    return result


def run_all() -> list[CriterionResult]:
    return [run_criterion(k) for k in range(1, len(CRITERIA) + 1)]
