import math

import numpy as np
import pytest

from pblab import fock, indexing
from pblab.fock import (
    commutator,
    cuntz_deviation,
    cuntz_domain_dim,
    cuntz_images,
    deformed_two_mode,
    ladder,
    ladder_deviation,
    metric_operators,
    pseudo_pair,
    safe_part,
)
from pblab.gl2 import GL2Matrix, random_gl2, rep_block, rep_diag, rep_full
from pblab.hermite import hermite_coeffs, inner
from pblab.deformed import deformed_coeffs
from pblab.displacement import coherent_coefficients, resolution_check
from pblab.quadrature import polar_scheme
from pblab.quantize import Weight, quantize_regularized_oracle

from oracles import (
    ccr_deviation_dense,
    cuntz_deviation_dense,
    cuntz_isometry,
    deformed_ccr_deviation_dense,
    metric_deviation_dense,
    number_operator,
    pseudo_commutator_deviation_dense,
    qsum_magnitude,
    rep_block_mpmath,
    two_mode_dense,
)

SHEAR = GL2Matrix(1, 1, 0, 1)
IDENT = GL2Matrix.identity()
L12 = 12


@pytest.fixture(scope="module")
def shear_pair():
    return pseudo_pair(SHEAR, L12)


class TestLadder:
    def test_vacuum_annihilated(self):
        B, _ = ladder(L12)
        assert np.max(np.abs(B.mat[:, 0])) == 0.0

    def test_sector_crossing_entry(self):
        # flat 3 is the bottom of sector 2; lowering sends it to the top of
        # sector 1 with factor sqrt(L(L+1)/2) = sqrt(3)
        B, _ = ladder(L12)
        assert B.mat[2, 3] == pytest.approx(math.sqrt(3))
        assert indexing.unflatten(3) == (0, 2) and indexing.unflatten(2) == (1, 0)

    def test_truncated_commutator_structure(self):
        B, Bd = ladder(L12)
        d = B.dim
        comm = commutator(B.mat, Bd.mat)
        assert np.max(np.abs(comm[: d - 1, : d - 1] - np.eye(d - 1))) <= 1e-13
        assert comm[d - 1, d - 1].real == pytest.approx(1 - d)

    def test_adjoint_pairing(self):
        B, Bd = ladder(6)
        assert np.array_equal(Bd.mat, B.mat.conj().T)


class TestTwoMode:
    def test_vacuum(self):
        a1, a2, _, _ = deformed_two_mode(IDENT, L12)
        assert np.max(np.abs(a1.mat[:, 0])) == 0.0
        assert np.max(np.abs(a2.mat[:, 0])) == 0.0

    def test_number_operator_counts_degree(self):
        a1, a2, a1d, a2d = deformed_two_mode(IDENT, L12)
        num = a1d.mat @ a1.mat + a2d.mat @ a2.mat
        degrees = np.array([sum(indexing.unflatten(n)) for n in range(a1.dim)])
        assert np.max(np.abs(np.diag(num).real - degrees)) <= 1e-13
        assert np.max(np.abs(num - np.diag(np.diag(num)))) == 0.0

    def test_raising_entry(self):
        _, _, a1d, _ = deformed_two_mode(IDENT, L12)
        entry = a1d.mat[indexing.flatten(2, 1), indexing.flatten(1, 1)]
        assert entry == pytest.approx(math.sqrt(2))

    def test_ccr_on_safe_block(self):
        a1, a2, a1d, a2d = deformed_two_mode(IDENT, L12)
        ops = [(0, a1, a1d), (1, a2, a2d)]
        for i, ai, _ in ops:
            for j, _, ajd in ops:
                c = safe_part(commutator(ai.mat, ajd.mat), L12)
                expect = (1.0 if i == j else 0.0) * np.eye(c.shape[0])
                assert np.max(np.abs(c - expect)) <= 1e-13

    def test_annihilators_commute_exactly(self):
        a1, a2, _, _ = deformed_two_mode(IDENT, L12)
        assert np.max(np.abs(commutator(a1.mat, a2.mat))) == 0.0


class TestDeformedTwoMode:
    def test_commutator_matrix_is_gram(self):
        for g in (SHEAR, GL2Matrix.diagonal(2, 1)):
            A1, A2, A1d, A2d = deformed_two_mode(g, L12)
            G = g.gram().as_array()
            for i, Ai in enumerate((A1, A2)):
                for j, Ajd in enumerate((A1d, A2d)):
                    c = safe_part(commutator(Ai.mat, Ajd.mat), L12)
                    assert np.max(np.abs(c - G[i, j] * np.eye(c.shape[0]))) <= 1e-12

    def test_diagonal_g_scales_first_commutator(self):
        A1, _, A1d, _ = deformed_two_mode(GL2Matrix.diagonal(2, 1), L12)
        c = safe_part(commutator(A1.mat, A1d.mat), L12)
        assert np.max(np.abs(c - 4.0 * np.eye(c.shape[0]))) <= 1e-12

    def test_unitary_restores_canonical(self):
        u = GL2Matrix.from_array(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))
        A1, A2, A1d, A2d = deformed_two_mode(u, 8)
        for i, Ai in enumerate((A1, A2)):
            for j, Ajd in enumerate((A1d, A2d)):
                c = safe_part(commutator(Ai.mat, Ajd.mat), 8)
                expect = (1.0 if i == j else 0.0) * np.eye(c.shape[0])
                assert np.max(np.abs(c - expect)) <= 1e-13

    def test_deformed_annihilators_commute(self):
        A1, A2, _, _ = deformed_two_mode(SHEAR, 8)
        assert np.max(np.abs(commutator(A1.mat, A2.mat))) == 0.0

    def test_cross_module_state_construction(self):
        # (A1dag)^{n1} (A2dag)^{n2} e_0 / sqrt(n1! n2!) must equal the
        # deformed polynomial expanded over the undeformed family
        rng = np.random.default_rng(11)
        g = random_gl2(rng)
        _, _, A1d, A2d = deformed_two_mode(g, 8)
        for n1, n2 in [(1, 0), (2, 1), (3, 3), (0, 4)]:
            vec = np.zeros(A1d.dim, dtype=complex)
            vec[0] = 1.0
            for _ in range(n2):
                vec = A2d.mat @ vec
            for _ in range(n1):
                vec = A1d.mat @ vec
            vec /= math.sqrt(math.factorial(n1) * math.factorial(n2))
            poly = deformed_coeffs(g, n1, n2)
            coeffs = np.array(
                [
                    inner(hermite_coeffs(*indexing.unflatten(k)), poly)
                    for k in indexing.sector_range(n1 + n2)
                ]
            )
            got = vec[indexing.sector_range(n1 + n2).start : indexing.sector_range(n1 + n2).stop]
            assert np.max(np.abs(got - coeffs)) <= 1e-10


class TestPseudoPair:
    def test_pseudo_commutator_on_safe_block(self, shear_pair):
        c = safe_part(commutator(shear_pair.a_op.mat, shear_pair.b_op.mat), L12)
        assert np.max(np.abs(c - np.eye(c.shape[0]))) <= 1e-8

    def test_random_well_conditioned_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = random_gl2(rng, 0.7, 1.6)
            pair = pseudo_pair(g, L12)
            c = safe_part(commutator(pair.a_op.mat, pair.b_op.mat), L12)
            assert np.max(np.abs(c - np.eye(c.shape[0]))) <= 1e-8

    def test_shared_vacuum(self, shear_pair):
        d = shear_pair.a_op.dim
        e0 = np.eye(d)[:, 0]
        assert np.array_equal(shear_pair.vec_phi(0), e0)
        assert np.array_equal(shear_pair.vec_psi(0), e0)
        assert np.max(np.abs(shear_pair.a_op.mat @ e0)) == 0.0
        assert np.max(np.abs(shear_pair.b_op.mat.conj().T @ e0)) == 0.0

    def test_ladder_relations_on_families(self, shear_pair):
        for n in range(1, 20):
            lhs = shear_pair.a_op.mat @ shear_pair.vec_phi(n)
            assert np.max(np.abs(lhs - math.sqrt(n) * shear_pair.vec_phi(n - 1))) <= 1e-10
            lhs_dual = shear_pair.b_op.mat.conj().T @ shear_pair.vec_psi(n)
            assert np.max(np.abs(lhs_dual - math.sqrt(n) * shear_pair.vec_psi(n - 1))) <= 1e-10
        for n in range(0, 15):
            raised = shear_pair.b_op.mat @ shear_pair.vec_phi(n)
            assert np.max(np.abs(raised - math.sqrt(n + 1) * shear_pair.vec_phi(n + 1))) <= 1e-10

    def test_family_biorthogonality(self, shear_pair):
        gram = np.array(
            [
                [np.vdot(shear_pair.vec_psi(m), shear_pair.vec_phi(n)) for n in range(15)]
                for m in range(15)
            ]
        )
        assert np.max(np.abs(gram - np.eye(15))) <= 1e-10

    def test_number_operator_eigenrelations(self, shear_pair):
        N = number_operator(shear_pair)
        for n in range(shear_pair.a_op.safe_dim):
            resid = N.mat @ shear_pair.vec_phi(n) - n * shear_pair.vec_phi(n)
            assert np.max(np.abs(resid)) <= 1e-8

    @pytest.mark.parametrize("L_max", [1, 2, 12, 20])
    def test_ladder_deviation_matches_vector_by_vector_products(self, L_max):
        pair = pseudo_pair(GL2Matrix(1.2, 0.3 + 0.1j, 0.2, 0.9), L_max)
        count = min(12, pair.a_op.safe_dim)
        a, phi = pair.a_op.mat, pair.vec_phi
        residuals = [a @ phi(0)] + [a @ phi(n) - math.sqrt(n) * phi(n - 1) for n in range(1, count)]
        ref = max(float(np.max(np.abs(r))) for r in residuals)
        assert abs(ladder_deviation(pair) - ref) <= 1e-15

    def test_ill_conditioned_rejected(self):
        with pytest.raises(ValueError):
            pseudo_pair(GL2Matrix(1e5, 0, 0, 1e-5), 4)

    def test_family_vectors_are_block_columns(self, shear_pair):
        # T e_n and (T^{-1})^dag e_n applied blockwise to unit vectors
        for pair in (shear_pair, pseudo_pair(random_gl2(np.random.default_rng(8)), 6)):
            eye = np.eye(pair.a_op.dim)
            for n in range(pair.a_op.dim):
                assert np.array_equal(pair.vec_phi(n), pair.T.apply(eye[n]))
                assert np.array_equal(pair.vec_psi(n), pair.T_inv.mat.conj().T @ eye[n])


def dense_conjugation(g, L_max, x):
    """Dense-product oracle for T(g) x T(g)^{-1}."""
    T = rep_full(g, L_max)
    return T.mat @ x @ np.linalg.inv(T.mat)


def rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


_CONJUGATION_RNG = np.random.default_rng(12)
CONJUGATION_MATRICES = [SHEAR, GL2Matrix.diagonal(2, 1)] + [
    random_gl2(_CONJUGATION_RNG, 0.7, 1.6) for _ in range(2)
]


class TestBlockwiseConjugation:
    """The blockwise T X T^{-1} routes against dense d x d products."""

    @pytest.mark.parametrize("L_max", [1, 2, 5, 12])
    def test_pseudo_pair_and_number_operator(self, L_max):
        lower, raiser = ladder(L_max)
        number = np.diag(np.arange(indexing.dim(L_max), dtype=float))
        for g in CONJUGATION_MATRICES:
            pair = pseudo_pair(g, L_max)
            for got, x in ((pair.a_op, lower.mat), (pair.b_op, raiser.mat), (number_operator(pair), number)):
                assert rel_dev(got.mat, dense_conjugation(g, L_max, x)) <= 1e-12

    def test_resolution_check(self):
        # a coarse scheme leaves a quadrature deviation far above roundoff,
        # so both routes report the same real number
        L_max, scheme = 8, polar_scheme(6, 6)
        d, k = indexing.dim(L_max), indexing.dim(L_max // 2)
        V = np.array([coherent_coefficients(z, d) for z in scheme.nodes]).T
        moments = (V * scheme.weights) @ V.conj().T
        for g in CONJUGATION_MATRICES:
            ref = np.max(np.abs(dense_conjugation(g, L_max, moments)[:k, :k] - np.eye(k)))
            assert ref > 1e-3
            assert resolution_check(g, L_max, scheme=scheme) == pytest.approx(ref, rel=1e-12)

    def test_quantize_oracle(self):
        # at g = I the oracle is the unconjugated quadrature sum
        L_max, lam, w = 6, 0.01, Weight()
        flat = quantize_regularized_oracle("z", lam, w, GL2Matrix.identity(), L_max)
        for g in CONJUGATION_MATRICES:
            got = quantize_regularized_oracle("z", lam, w, g, L_max)
            assert rel_dev(got, dense_conjugation(g, L_max, flat)) <= 1e-12


class TestCommutatorsAgainstDenseProducts:
    """The blockwise commutator checks against dense d x d products."""

    @pytest.mark.parametrize("L_max", range(1, 13))
    def test_small_truncations(self, L_max):
        close = lambda ref: pytest.approx(ref, rel=1e-12, abs=5e-14)
        assert fock.deformed_ccr_deviation(IDENT, L_max) == close(ccr_deviation_dense(L_max))
        for g in CONJUGATION_MATRICES:
            assert fock.deformed_ccr_deviation(g, L_max) == close(deformed_ccr_deviation_dense(g, L_max))
            pair = pseudo_pair(g, L_max)
            assert fock.pseudo_commutator_deviation(pair) == close(pseudo_commutator_deviation_dense(pair))

    @pytest.mark.parametrize("L_max", [1, 2, 7])
    def test_ladder_blocks_equal_entrywise_construction(self, L_max):
        a1, a2, _, _ = deformed_two_mode(IDENT, L_max)
        assert all(np.array_equal(x.mat, y) for x, y in zip((a1, a2), two_mode_dense(L_max)))
        lower, raiser = ladder(L_max)
        flat = np.diag(np.sqrt(np.arange(1, indexing.dim(L_max))), k=1)
        assert np.array_equal(lower.mat, flat) and np.array_equal(raiser.mat, flat.T)

    def test_two_mode_checks_at_L100(self):
        # dim 5151: one dense d x d matrix would take 424 MB
        assert fock.deformed_ccr_deviation(IDENT, 100) <= 1e-13
        assert fock.deformed_ccr_deviation(GL2Matrix(1.1, 0.2, 0.1, 0.9), 100) <= 1e-12


class TestDenseCommutator:
    """The dense commutator, whose y x is subtracted in strips of rows."""

    @pytest.mark.parametrize("d", [fock._STRIP_ROWS // 2, 2 * fock._STRIP_ROWS + 1, 1081])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_strips_match_two_products(self, d, kind):
        rng = np.random.default_rng(d)
        x, y = rng.normal(size=(2, d, d)).astype(kind)
        if kind is complex:
            x.imag, y.imag = rng.normal(size=(2, d, d))
        got = commutator(x, y)
        assert got.dtype == x.dtype
        bound = np.finfo(float).eps * d * np.max(np.abs(x)) * np.max(np.abs(y))
        assert np.max(np.abs(got - (x @ y - y @ x))) <= bound


class TestRealRoute:
    """Operators built from T(g) of a real g hold float64 blocks only."""

    @pytest.mark.parametrize("g", [SHEAR, GL2Matrix(0.6, 0.8, -0.8, 0.6), GL2Matrix(1.1, 0.2, 0.1, 0.9)])
    def test_pair_and_metric_of_a_real_g_are_real(self, g):
        pair = pseudo_pair(g, 8)
        ops = (pair.a_op, pair.b_op, pair.T, pair.T_inv, number_operator(pair), *metric_operators(g, 8))
        assert all(b.dtype == np.float64 for op in ops for b in op.parts.values())
        assert pair.a_op.mat.dtype == np.float64

    def test_pair_of_a_complex_g_is_complex(self):
        pair = pseudo_pair(GL2Matrix(1.2, 0.3 + 0.1j, 0.2, 0.9), 8)
        assert all(b.dtype == np.complex128 for op in (pair.a_op, pair.T) for b in op.parts.values())


_GROUP_LAW_RNG = np.random.default_rng(40)
GROUP_LAW_MATRICES = [SHEAR] + [random_gl2(_GROUP_LAW_RNG, 0.8, 1.3) for _ in range(3)]


class TestGroupLawInverse:
    """T(g)^{-1} = T(g^{-1}) against a 50-digit q-sum of T(g^{-1}).  A numeric
    inverse of the shear block is off by about 2e-3 at L = 40 and by order
    one at L = 60; the group law stays at roundoff."""

    @pytest.mark.parametrize(
        "g", GROUP_LAW_MATRICES, ids=["shear", "random0", "random1", "random2"]
    )
    def test_inverse_blocks_match_50_digit_reference(self, g):
        # near-scalar-unitary draws make the q-sum cancel by up to ~1e8 at
        # L = 60, which the floor of 4 eps_long times the modulus sum allows
        # for; the degree recursion stays inside the 1e-12 relative term
        # alone (worst 2.4e-14, at L = 60)
        eps_long = np.finfo(np.longdouble).eps
        blocks = ((40, pseudo_pair(g, 40).T_inv.blocks[40]), (60, rep_block(g.inv(), 60)))
        for L, got in blocks:
            ref = rep_block_mpmath(g.inv(), L)
            floor = 4 * eps_long * np.max(qsum_magnitude(g.inv(), L))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)) + floor, L


class TestCuntz:
    def test_base_images(self):
        S0 = cuntz_isometry(0, L12)
        S1 = cuntz_isometry(1, L12)
        assert S0[0, 0] == 1.0  # e_0 -> e_flatten(0,0) = e_0
        assert S1[1, 0] == 1.0  # e_0 -> e_flatten(0,1) = e_1

    def test_partial_isometry_relations_exact(self):
        S = {n: cuntz_isometry(n, L12) for n in range(5)}
        d = indexing.dim(L12)
        for m in range(5):
            for n in range(5):
                prod = S[m].conj().T @ S[n]
                expect = np.zeros((d, d))
                if m == n:
                    k = cuntz_domain_dim(n, L12)
                    expect[:k, :k] = np.eye(k)
                assert np.array_equal(prod, expect)

    def test_range_projections_resolve_identity(self):
        d = indexing.dim(L12)
        total = sum(
            cuntz_isometry(n, L12) @ cuntz_isometry(n, L12).conj().T
            for n in range(L12 + 1)
        )
        assert np.array_equal(total, np.eye(d))

    def test_conjugation_collapses_modes(self):
        a1, a2, _, _ = deformed_two_mode(IDENT, L12)
        B, _ = ladder(L12)
        for n in (0, 1, 3):
            S = cuntz_isometry(n, L12)
            k = cuntz_domain_dim(n, L12)
            lowered = (S.conj().T @ a1.mat @ S)[:k, :k]
            assert np.max(np.abs(lowered - B.mat[:k, :k])) == 0.0
            killed = (S.conj().T @ a2.mat @ S)[:k, :k]
            assert np.max(np.abs(killed)) == 0.0

    def test_images_are_the_nonzero_rows(self):
        for n in (0, 4, L12):
            rows, cols = np.nonzero(cuntz_isometry(n, L12))
            assert np.array_equal(cols, np.arange(cuntz_domain_dim(n, L12)))
            assert np.array_equal(rows, cuntz_images(n, L12))

    @pytest.mark.parametrize("L_max", range(1, 9))
    def test_deviation_matches_dense_products(self, L_max):
        assert cuntz_deviation(L_max) == cuntz_deviation_dense(L_max) == 0.0

    def test_deviation_matches_dense_products_on_a_broken_map(self, monkeypatch):
        # the images of S_1 collide with those of S_0: S_0^dag S_1 gains ones
        # and the range projections miss some indices and double others
        real = fock.cuntz_images
        monkeypatch.setattr(fock, "cuntz_images", lambda n, L: real(0 if n == 1 else n, L)[: L - n + 1])
        for L_max in (2, 5, 8):
            assert cuntz_deviation(L_max) == cuntz_deviation_dense(L_max) == 1.0

    @pytest.mark.parametrize("outside", [-1, "dim"])
    def test_image_outside_the_truncation_reads_one(self, monkeypatch, outside):
        # the top isometry's only image moves below or past the flat range
        real = fock.cuntz_images

        def moved(n, L):
            return np.array([-1 if outside == -1 else indexing.dim(L)]) if n == L else real(n, L)

        monkeypatch.setattr(fock, "cuntz_images", moved)
        for L_max in (0, 3, 8):
            assert cuntz_deviation(L_max) == 1.0

    def test_deviation_at_L45(self):
        assert cuntz_deviation(45) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cuntz_isometry(13, L12)
        with pytest.raises(ValueError):
            cuntz_isometry(-1, L12)


class TestMetricOperators:
    def test_identity_case(self):
        S_phi, S_psi = metric_operators(GL2Matrix.identity(), 6)
        assert np.allclose(S_phi.mat, np.eye(S_phi.dim))
        assert np.allclose(S_psi.mat, np.eye(S_psi.dim))

    def test_mutually_inverse_blockwise(self):
        rng = np.random.default_rng(2)
        g = random_gl2(rng, 0.6, 1.8)
        S_phi, S_psi = metric_operators(g, 8)
        assert np.max(np.abs(S_phi.mat @ S_psi.mat - np.eye(S_phi.dim))) <= 1e-11

    def test_hermitian_positive(self):
        rng = np.random.default_rng(3)
        g = random_gl2(rng, 0.6, 1.8)
        S_phi, S_psi = metric_operators(g, 6)
        for S in (S_phi, S_psi):
            assert np.max(np.abs(S.mat - S.mat.conj().T)) <= 1e-11
            assert np.min(np.linalg.eigvalsh(S.mat)) > 0

    def test_quadratic_form_positive_on_random_vectors(self):
        rng = np.random.default_rng(4)
        g = random_gl2(rng, 0.6, 1.8)
        S_phi, _ = metric_operators(g, 6)
        d = S_phi.dim
        for _ in range(100):
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert np.real(np.vdot(f, S_phi.mat @ f)) > 0

    def test_diagonal_entries_are_rep_diagonals(self):
        # (T T^dag)_{nn} equals the representation diagonal of g g^dag at the
        # mode label of n; the deformed-polynomial squared norm is instead the
        # diagonal of the family Gram matrix T^dag T = T(g^dag g)
        rng = np.random.default_rng(5)
        g = random_gl2(rng, 0.6, 1.8)
        S_phi, _ = metric_operators(g, 6)
        g_gdag = GL2Matrix.from_array(g.as_array() @ g.as_array().conj().T)
        for n in range(S_phi.dim):
            n1, n2 = indexing.unflatten(n)
            assert S_phi.mat[n, n].real == pytest.approx(
                rep_diag(g_gdag, n1, n2).real, rel=1e-11
            )

    @pytest.mark.parametrize("L_max", [1, 2, 6, 12, 20, 30])
    def test_metric_deviation_matches_dense_products(self, L_max):
        # the blockwise residuals against the dense d x d ones, whose
        # off-diagonal blocks are exact zeros
        rng = np.random.default_rng(3)
        draws = [random_gl2(rng, 0.8, 1.3) for _ in range(2)]
        for g in [SHEAR, GL2Matrix(2, 0, 0, 1), GL2Matrix(1.1, 0.2, 0.1, 0.9), *draws]:
            dense = metric_deviation_dense(g, L_max)
            assert fock.metric_deviation(g, L_max) == pytest.approx(dense, rel=1e-12, abs=1e-15)

    def test_gram_diagonal_matches_norm_sq(self):
        from pblab.deformed import norm_sq
        from pblab.gl2 import rep_full

        rng = np.random.default_rng(6)
        g = random_gl2(rng, 0.6, 1.8)
        Td = rep_full(g, 6).mat
        gram = Td.conj().T @ Td
        for n in range(gram.shape[0]):
            n1, n2 = indexing.unflatten(n)
            assert gram[n, n].real == pytest.approx(norm_sq(g, n1, n2), rel=1e-11)

