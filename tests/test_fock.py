import math

import numpy as np
import pytest

from pblab import indexing
from pblab.fock import (
    TruncatedOperator,
    commutator,
    cuntz_domain_dim,
    cuntz_isometry,
    deformed_two_mode,
    ladder,
    load_operator,
    metric_operators,
    pseudo_pair,
    safe_part,
    save_operator,
    two_mode,
)
from pblab.gl2 import GL2Matrix, random_gl2, rep_block, rep_diag, rep_full
from pblab.hermite import hermite_coeffs, inner
from pblab.deformed import deformed_coeffs
from pblab.displacement import coherent_coefficients, resolution_check
from pblab.quadrature import polar_scheme
from pblab.quantize import quantize_regularized_oracle, unit_weight

from oracles import qsum_magnitude, rep_block_mpmath

SHEAR = GL2Matrix(1, 1, 0, 1)
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
        a1, _, a2, _ = two_mode(L12)
        assert np.max(np.abs(a1.mat[:, 0])) == 0.0
        assert np.max(np.abs(a2.mat[:, 0])) == 0.0

    def test_number_operator_counts_degree(self):
        a1, a1d, a2, a2d = two_mode(L12)
        num = a1d.mat @ a1.mat + a2d.mat @ a2.mat
        degrees = np.array([sum(indexing.unflatten(n)) for n in range(a1.dim)])
        assert np.max(np.abs(np.diag(num).real - degrees)) <= 1e-13
        assert np.max(np.abs(num - np.diag(np.diag(num)))) == 0.0

    def test_raising_entry(self):
        _, a1d, _, _ = two_mode(L12)
        entry = a1d.mat[indexing.flatten(2, 1), indexing.flatten(1, 1)]
        assert entry == pytest.approx(math.sqrt(2))

    def test_ccr_on_safe_block(self):
        a1, a1d, a2, a2d = two_mode(L12)
        ops = [(0, a1, a1d), (1, a2, a2d)]
        for i, ai, _ in ops:
            for j, _, ajd in ops:
                c = safe_part(commutator(ai.mat, ajd.mat), L12)
                expect = (1.0 if i == j else 0.0) * np.eye(c.shape[0])
                assert np.max(np.abs(c - expect)) <= 1e-13

    def test_annihilators_commute_exactly(self):
        a1, _, a2, _ = two_mode(L12)
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
        assert np.max(np.abs(shear_pair.dual_lowering().mat @ e0)) == 0.0

    def test_ladder_relations_on_families(self, shear_pair):
        for n in range(1, 20):
            lhs = shear_pair.a_op.mat @ shear_pair.vec_phi(n)
            assert np.max(np.abs(lhs - math.sqrt(n) * shear_pair.vec_phi(n - 1))) <= 1e-10
            lhs_dual = shear_pair.dual_lowering().mat @ shear_pair.vec_psi(n)
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
        N = shear_pair.number_operator()
        for n in range(shear_pair.a_op.safe_dim):
            resid = N.mat @ shear_pair.vec_phi(n) - n * shear_pair.vec_phi(n)
            assert np.max(np.abs(resid)) <= 1e-8

    def test_ill_conditioned_rejected(self):
        with pytest.raises(ValueError):
            pseudo_pair(GL2Matrix(1e5, 0, 0, 1e-5), 4)


def dense_conjugation(g, L_max, x):
    """Dense-product oracle for T(g) x T(g)^{-1}."""
    T = rep_full(g, L_max)
    return T.dense() @ x @ np.linalg.inv(T.dense())


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
            for got, x in ((pair.a_op, lower.mat), (pair.b_op, raiser.mat), (pair.number_operator(), number)):
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
        L_max, lam, w = 6, 0.01, unit_weight()
        flat = quantize_regularized_oracle("z", lam, w, GL2Matrix.identity(), L_max).mat
        for g in CONJUGATION_MATRICES:
            got = quantize_regularized_oracle("z", lam, w, g, L_max).mat
            assert rel_dev(got, dense_conjugation(g, L_max, flat)) <= 1e-12


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
        # L = 60; the extended-precision accumulation then rounds to about
        # 0.5 eps_long times the modulus sum, which the bound allows 4x of
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
        assert S0.mat[0, 0] == 1.0  # e_0 -> e_flatten(0,0) = e_0
        assert S1.mat[1, 0] == 1.0  # e_0 -> e_flatten(0,1) = e_1

    def test_partial_isometry_relations_exact(self):
        S = {n: cuntz_isometry(n, L12) for n in range(5)}
        d = indexing.dim(L12)
        for m in range(5):
            for n in range(5):
                prod = S[m].mat.conj().T @ S[n].mat
                expect = np.zeros((d, d))
                if m == n:
                    k = cuntz_domain_dim(n, L12)
                    expect[:k, :k] = np.eye(k)
                assert np.array_equal(prod, expect)

    def test_range_projections_resolve_identity(self):
        d = indexing.dim(L12)
        total = sum(
            cuntz_isometry(n, L12).mat @ cuntz_isometry(n, L12).mat.conj().T
            for n in range(L12 + 1)
        )
        assert np.array_equal(total, np.eye(d))

    def test_conjugation_collapses_modes(self):
        a1, _, a2, _ = two_mode(L12)
        B, _ = ladder(L12)
        for n in (0, 1, 3):
            S = cuntz_isometry(n, L12).mat
            k = cuntz_domain_dim(n, L12)
            lowered = (S.conj().T @ a1.mat @ S)[:k, :k]
            assert np.max(np.abs(lowered - B.mat[:k, :k])) == 0.0
            killed = (S.conj().T @ a2.mat @ S)[:k, :k]
            assert np.max(np.abs(killed)) == 0.0

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

    def test_gram_diagonal_matches_norm_sq(self):
        from pblab.deformed import norm_sq
        from pblab.gl2 import rep_full

        rng = np.random.default_rng(6)
        g = random_gl2(rng, 0.6, 1.8)
        Td = rep_full(g, 6).dense()
        gram = Td.conj().T @ Td
        for n in range(gram.shape[0]):
            n1, n2 = indexing.unflatten(n)
            assert gram[n, n].real == pytest.approx(norm_sq(g, n1, n2), rel=1e-11)


class TestSerialization:
    def test_roundtrip(self, tmp_path, shear_pair):
        base = tmp_path / "a_op"
        save_operator(shear_pair.a_op, base)
        loaded = load_operator(base)
        assert loaded.L_max == shear_pair.a_op.L_max
        assert np.array_equal(loaded.mat, shear_pair.a_op.mat)

    def test_layout_is_interleaved_little_endian(self, tmp_path):
        op = TruncatedOperator(1, np.array([[1 + 2j, 0, 0], [0, 0, 0], [0, 0, 3 - 4j]], dtype=complex))
        save_operator(op, tmp_path / "op")
        raw = np.frombuffer((tmp_path / "op.bin").read_bytes(), dtype="<f8")
        assert raw[0] == 1.0 and raw[1] == 2.0  # first entry re, im
        assert raw[-2] == 3.0 and raw[-1] == -4.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TruncatedOperator(2, np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            TruncatedOperator(1, np.full((3, 3), np.nan, dtype=complex))
