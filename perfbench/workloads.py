"""The three benchmark workloads and the checks they make.

Each workload is built in two steps.  ``make_inputs(workload, seed, sizes)``
draws everything random from the seed; pblab receives only these inputs.
``run_pass(workload, inputs, tracer, pass_id)`` then makes every call of one
pass and returns one ``Check`` per verdict.  A check fails when its call raises, when
its deviation is not finite, or when its deviation is above its tolerance;
``dev > tol`` alone would let a NaN through.

Workloads (why each was chosen):

- ``suite``: acceptance criteria 1..11 in order, the battery users run as
  ``pblab suite``.  Many small operators, so per-call overhead and the
  Laguerre closed form dominate.  Its inputs are the criteria's own seeds;
  the seed argument is recorded but unused.
- ``operators``: the large-truncation regime (dim 1081 at L_max 45, blocks
  to L = 60), where dense products, numeric inverses and ``rep_block``'s
  Python loop dominate; ``hermite`` does no work here.
- ``polynomial``: coefficient-grid work (Gaussian inner products, Hermite
  grids, the biorthogonality Gram) that is all Python loops with no large
  BLAS work; ``gl2`` appears only through blocks with L <= 10.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from pblab import acceptance, deformed, displacement, fock, gl2, hermite, indexing

SHEAR = gl2.GL2Matrix(1, 1, 0, 1)
Z = 0.7 + 0.2j

# Sizes of the measured runs.  ``TINY`` exists for the self-test only.
FULL = {
    "criteria": tuple(range(1, len(acceptance.CRITERIA) + 1)),
    "disp_L": 45,       # canonical_displacement at dim(45) = 1081
    "rep_L": 60,        # rep_full / star law on the top block
    "pair_L": 45,       # pseudo_pair, metric_operators, bicoherent
    "bicoherent_eps": 1e-10,
    "herm_deg": 12,     # 91 grids, 4186 unordered pairs
    "gram_L": 8,        # biorth_gram
    "family_L": 10,     # deformed_coeffs / norm_sq cross-checks
}
TINY = dict(FULL, criteria=(5, 9), disp_L=4, rep_L=4, pair_L=4, bicoherent_eps=1e-4, herm_deg=4,
            gram_L=2, family_L=3)

# Checks that fail at the full sizes for reasons the program documents.  Each
# is counted as failed and none is resized away; a failure of any other check
# makes the run incorrect.  Names ending in ``.random`` fail only for some
# draws, so which passes fail depends on the seed.
KNOWN_FAILURES = {
    "suite": {
        "acceptance.c11",  # oracle bias 0.1306 against the pinned 2% bound
    },
    "operators": {
        # 18,644 non-finite entries from the Laguerre closed form at dim 1081
        "displacement.canonical_displacement",
        # numeric inversion amplifies roundoff like cond(g)^L: the shear
        # always fails at L = 45, about half the random draws do
        "fock.pseudo_pair.shear",
        "fock.metric_operators.shear",
        "fock.pseudo_pair.random",
        "fock.metric_operators.random",
        # q-sum cancellation at L = 60 breaks the star law for about 4 in 10
        # random draws, most of them close to unitary
        "gl2.rep_full.random",
    },
    "polynomial": {
        "hermite.inner",  # degree-12 float orthonormality reads 1.48e-12 against 1e-12
        # roundoff for some draws: the dense Gram when cond(g) is above
        # about 6, and the absolute 1e-10 bound on coefficients that grow
        # like |g|^L
        "deformed.biorth_gram.random",
        "deformed.deformed_coeffs.random",
    },
}
DRAWS = 64  # random draws per seed; pass p uses draw p mod DRAWS


@dataclass
class Check:
    name: str
    deviation: float
    tolerance: float
    error: str = ""
    details: dict = field(default_factory=dict)
    program_passed: bool = True  # the program's own verdict, where it gives one

    @property
    def failed(self) -> bool:
        # a NaN deviation compares False both ways, so test finiteness first
        if self.error or not self.program_passed or not math.isfinite(self.deviation):
            return True
        return self.deviation > self.tolerance

    def line(self, known=False) -> str:
        status = "FAIL" if self.failed else "PASS"
        note = " (known)" if known and self.failed else ""
        err = f" error: {self.error}" if self.error else ""
        return (f"[{status}] {self.name}: deviation {self.deviation:.3e}, "
                f"tolerance {self.tolerance:.0e}{note}{err}")


def _worst(deviations):
    """Largest deviation; NaN if any is NaN (the builtin ``max`` can drop it)."""
    return float(np.max(np.fromiter(deviations, dtype=float)))


def _checked(name, tol, fn, *args):
    """Run one check body; an exception becomes a failed check."""
    try:
        dev, details = fn(*args)
        return Check(name, float(dev), tol, details=details)
    except Exception as exc:  # the run must go on and count the failure
        return Check(name, math.nan, tol, error=f"{type(exc).__name__}: {exc}")


def make_inputs(workload: str, seed: int, sizes: dict = FULL) -> dict:
    """Everything the passes need, drawn from ``seed``.

    The random matrices are one stream per seed, and pass p takes draw p, so
    a run checks as many draws as it makes passes.  Whether a ``.random``
    check fails depends on the draw; spreading the draws over the passes
    keeps the run's failed share steady from seed to seed.
    """
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    inputs = {"seed": seed, "sizes": sizes}
    if workload == "operators":
        inputs["z"] = Z
        inputs["draws"] = [gl2.random_gl2(rng, 0.8, 1.3) for _ in range(DRAWS)]
    if workload == "polynomial":
        inputs["modes"] = _modes(sizes["herm_deg"])
        inputs["draws"] = [gl2.random_gl2(rng) for _ in range(DRAWS)]
    return inputs


def run_pass(workload: str, inputs: dict, tr, pass_id: int) -> list:
    """One pass: every call of the workload, one ``Check`` per verdict."""
    return _PASSES[workload](inputs, tr, pass_id)


def _modes(L_max):
    """Mode labels (n1, n2) of total degree <= L_max, in flat order."""
    return [(n1, L - n1) for L in range(L_max + 1) for n1 in range(L + 1)]


def _matrices(inputs, pass_id):
    return (("shear", SHEAR), ("random", inputs["draws"][pass_id % DRAWS]))


# -- suite ---------------------------------------------------------------------

def _suite(inputs, tr, pass_id):
    checks = []
    for k in inputs["sizes"]["criteria"]:
        name = f"acceptance.c{k:02d}"
        try:
            res = tr.call(name, acceptance.run_criterion, k)
            # the criterion's verdict also covers sub-conditions its deviation omits
            check = Check(name, float(res.deviation), float(res.tolerance),
                          details=res.details, program_passed=res.passed)
        except Exception as exc:  # counted as a failed check
            check = Check(name, math.nan, math.nan, error=f"{type(exc).__name__}: {exc}")
        checks.append(check)
        if tr.enabled:
            tr.count(f"{name}.failed", int(check.failed))
    return checks


# -- operators -----------------------------------------------------------------

def _dense_bytes(tr, *mats):
    if tr.enabled:
        tr.count("fock.dense_bytes_computed", sum(16 * m.shape[0] * m.shape[1] for m in mats))


def _displacement_check(inputs, tr):
    d = indexing.dim(inputs["sizes"]["disp_L"])
    D = tr.call("displacement.canonical_displacement", displacement.canonical_displacement,
                inputs["z"], d)
    nonfinite = int(D.size - np.count_nonzero(np.isfinite(D)))
    if tr.enabled:
        tr.count("displacement.canonical_displacement.nonfinite", nonfinite)
    # entries of a unitary have modulus <= 1; a NaN entry makes the maximum NaN
    return float(np.max(np.abs(D))), {"dim": d, "nonfinite": nonfinite}


def _star_law(g, L, tr):
    T = tr.call("gl2.rep_full", gl2.rep_full, g, L)
    top = T.blocks[L]
    star = tr.call("gl2.rep_block", gl2.rep_block, g.dagger(), L)
    dev = float(np.max(np.abs(star - top.conj().T))) / max(1.0, float(np.max(np.abs(top))))
    return dev, {"L": L}


def _pair_check(g, L, tr):
    pair = tr.call("fock.pseudo_pair", fock.pseudo_pair, g, L)
    _dense_bytes(tr, pair.a_op.mat, pair.b_op.mat)
    with tr.span("fock.check"):
        c = fock.commutator(pair.a_op.mat, pair.b_op.mat)
        _dense_bytes(tr, c)
        dev = float(np.max(np.abs(fock.safe_part(c, L) - np.eye(indexing.safe_dim(L)))))
    return dev, {"L_max": L}


def _metric_check(g, L, tr):
    s_phi, s_psi = tr.call("fock.metric_operators", fock.metric_operators, g, L)
    _dense_bytes(tr, s_phi.mat, s_psi.mat)
    with tr.span("fock.check"):
        dev = float(np.max(np.abs(s_phi.mat @ s_psi.mat - np.eye(s_phi.dim))))
    return dev, {"L_max": L}


def _bicoherent_check(z, g, L, eps, tr):
    pair = tr.call("displacement.bicoherent", displacement.bicoherent, z, g, L, eps)
    used_share = (pair.n_cut + 1) / indexing.dim(L)
    if tr.enabled:
        tr.count("displacement.bicoherent.used_share", used_share)
    return abs(pair.overlap() - 1.0), {"n_cut": pair.n_cut, "used_share": used_share}


def _operators(inputs, tr, pass_id):
    s = inputs["sizes"]
    checks = [_checked("displacement.canonical_displacement", 1.0, _displacement_check, inputs, tr)]
    for label, g in _matrices(inputs, pass_id):
        checks += [
            _checked(f"gl2.rep_full.{label}", 1e-10, _star_law, g, s["rep_L"], tr),
            _checked(f"fock.pseudo_pair.{label}", 1e-8, _pair_check, g, s["pair_L"], tr),
            _checked(f"fock.metric_operators.{label}", 1e-8, _metric_check, g, s["pair_L"], tr),
            _checked(f"displacement.bicoherent.{label}", s["bicoherent_eps"], _bicoherent_check,
                     inputs["z"], g, s["pair_L"], s["bicoherent_eps"], tr),
        ]
    return checks


# -- polynomial ----------------------------------------------------------------

def _float_orthonormality(modes, tr):
    polys = {m: tr.call("hermite.hermite_coeffs", hermite.hermite_coeffs, *m) for m in modes}
    worst = _worst(
        abs(tr.call("hermite.inner", hermite.inner, polys[ma], polys[mb]) - (ma == mb))
        for ma, mb in itertools.combinations_with_replacement(modes, 2)
    )
    return worst, {"pairs": len(modes) * (len(modes) + 1) // 2}


def _exact_orthonormality(modes, tr):
    terms = {m: tr.call("hermite.hermite_terms_exact", hermite.hermite_terms_exact, *m)
             for m in modes}
    mismatches = 0
    for ma, mb in itertools.combinations_with_replacement(modes, 2):
        ref = math.factorial(ma[0]) * math.factorial(ma[1]) if ma == mb else 0
        if tr.call("hermite.inner_exact", hermite.inner_exact, terms[ma], terms[mb]) != ref:
            mismatches += 1
    return mismatches, {}


def _gram_check(g, L, tr):
    _, dev = tr.call("deformed.biorth_gram", deformed.biorth_gram, g, L)
    block_share = sum((k + 1) ** 2 for k in range(L + 1)) / indexing.dim(L) ** 2
    if tr.enabled:
        tr.count("deformed.biorth_gram.block_share", block_share)
    return dev, {"L_max": L, "block_share": block_share}


def _coeffs_check(g, L_max, tr):
    def dev(n1, n2):
        a = tr.call("deformed.deformed_coeffs", deformed.deformed_coeffs, g, n1, n2)
        b = tr.call("deformed.deformed_via_rep", deformed.deformed_via_rep, g, n1, n2)
        return np.max(np.abs((a - b).coeff))

    return _worst(dev(*m) for m in _modes(L_max)), {"L_max": L_max}


def _norm_check(g, L_max, tr):
    def dev(n1, n2):
        a = tr.call("deformed.norm_sq", deformed.norm_sq, g, n1, n2)
        b = tr.call("deformed.norm_sq_inner", deformed.norm_sq_inner, g, n1, n2)
        return abs(a - b) / abs(a)

    return _worst(dev(*m) for m in _modes(L_max)), {"L_max": L_max}


def _polynomial(inputs, tr, pass_id):
    s = inputs["sizes"]
    modes = inputs["modes"]
    checks = [
        _checked("hermite.inner", 1e-12, _float_orthonormality, modes, tr),
        _checked("hermite.inner_exact", 0.0, _exact_orthonormality, modes, tr),
    ]
    for label, g in _matrices(inputs, pass_id):
        checks += [
            _checked(f"deformed.biorth_gram.{label}", 1e-9, _gram_check, g, s["gram_L"], tr),
            _checked(f"deformed.deformed_coeffs.{label}", 1e-10, _coeffs_check, g, s["family_L"], tr),
            _checked(f"deformed.norm_sq.{label}", 1e-10, _norm_check, g, s["family_L"], tr),
        ]
    return checks


_PASSES = {"suite": _suite, "operators": _operators, "polynomial": _polynomial}
