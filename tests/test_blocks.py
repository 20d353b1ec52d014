import numpy as np
import pytest

from hsparse import (BlockDictionary, BlockStructure, BlockVector,
                     best_concentration_set, block_least_squares, block_sigma,
                     concentration_epsilon, cross_block_norm, cross_norm_table,
                     h0_norm, h1_norm, uniform_structure)


def vec(entries, *sizes):
    return BlockVector(np.asarray(entries, dtype=complex),
                       BlockStructure(tuple(sizes)))


class TestStructure:
    def test_offsets_and_dim(self):
        s = BlockStructure((2, 3, 1))
        assert s.offsets == (0, 2, 5)
        assert s.dim == 6
        assert s.n_blocks == 3
        assert s.block_slice(1) == slice(2, 5)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0, 1))

    def test_index_bounds(self):
        s = uniform_structure(3)
        with pytest.raises(ValueError):
            s.block_slice(3)
        with pytest.raises(ValueError):
            s.block_slice(-1)

    def test_vector_length_must_match(self):
        with pytest.raises(ValueError):
            BlockVector(np.ones(5), BlockStructure((2, 2)))


class TestNorms:
    def test_h0_zero_vector(self):
        assert h0_norm(vec([0, 0, 0, 0], 2, 2)) == 0

    def test_h0_counts_occupied_blocks(self):
        assert h0_norm(vec([1, 0, 0, 2j], 2, 2), tol=0.0) == 2

    def test_h0_respects_tolerance(self):
        assert h0_norm(vec([1e-14, 0, 0, 1], 2, 2), tol=1e-10) == 1

    def test_h0_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            h0_norm(vec([1, 0], 2), tol=-1.0)

    def test_h1_single_block(self):
        assert h1_norm(vec([3, 4], 2)) == pytest.approx(5.0)

    def test_h1_sums_block_norms(self):
        assert h1_norm(vec([3, 4, 0, 1], 2, 2)) == pytest.approx(6.0)

    def test_size1_reduction_to_l1_and_l0(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            z[rng.random(9) < 0.3] = 0.0
            v = BlockVector(z, uniform_structure(9))
            assert h1_norm(v) == pytest.approx(np.abs(z).sum(), abs=1e-12)
            assert h0_norm(v, tol=0.0) == np.count_nonzero(np.abs(z) > 0)


class TestBlockSigma:
    def test_unit_column(self):
        D = BlockDictionary(np.array([[1.0], [0.0]]), uniform_structure(1))
        assert block_sigma(D, 0) == pytest.approx((1.0, 1.0))

    def test_orthonormal_block_is_isometry(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))
        D = BlockDictionary(q, BlockStructure((3,)))
        smin, smax = block_sigma(D, 0)
        assert smin == pytest.approx(1.0, abs=1e-12)
        assert smax == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_block(self):
        D = BlockDictionary(np.diag([1.0, 2.0]), BlockStructure((2,)))
        assert block_sigma(D, 0) == pytest.approx((1.0, 2.0))

    def test_rejects_rank_deficient_block(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])   # dependent columns
        with pytest.raises(ValueError, match="not injective"):
            BlockDictionary(mat, BlockStructure((2,)))

    def test_rejects_too_wide_block(self):
        with pytest.raises(ValueError, match="rows"):
            BlockDictionary(np.ones((1, 2)), BlockStructure((2,)))


class TestCrossBlockNorm:
    def test_orthogonal_blocks(self):
        D = BlockDictionary(np.eye(4), BlockStructure((2, 2)))
        assert cross_block_norm(D, 0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_same_block_unit_column(self):
        D = BlockDictionary(np.array([[1.0], [0.0]]), uniform_structure(1))
        assert cross_block_norm(D, 0, 0) == pytest.approx(1.0)

    def test_standard_basis_vs_dft_column(self):
        n = 4
        j = 1
        f = np.exp(-2j * np.pi * np.arange(n) * j / n) / np.sqrt(n)
        D = BlockDictionary(np.column_stack([np.eye(n)[:, 0], f]),
                            uniform_structure(2))
        # oracle: plain inner product of the two unit columns
        oracle = abs(np.vdot(np.eye(n)[:, 0], f))
        assert oracle == pytest.approx(0.5, abs=1e-15)
        assert cross_block_norm(D, 0, 1) == pytest.approx(oracle, abs=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        D = BlockDictionary(mat, BlockStructure((3, 2, 2)))
        for i in range(3):
            for j in range(3):
                assert cross_block_norm(D, i, j) == pytest.approx(
                    cross_block_norm(D, j, i), abs=1e-12)

    def test_table_matches_pairwise_norms_for_nonuniform_blocks(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        D = BlockDictionary(mat, BlockStructure((1, 2, 3) * 2))
        oracle = [[cross_block_norm(D, i, j) for j in range(6)] for i in range(6)]
        np.testing.assert_allclose(cross_norm_table(D), oracle, rtol=0, atol=1e-13)

    def test_table_of_two_dictionaries_with_different_structures(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
        D1 = BlockDictionary(mat[:, :5], BlockStructure((2, 3)))
        D2 = BlockDictionary(mat[:, 5:], BlockStructure((1, 1, 4)))
        # reference: the pair norms inside the concatenated dictionary
        both = BlockDictionary(mat, BlockStructure((2, 3, 1, 1, 4)))
        oracle = [[cross_block_norm(both, i, 2 + j) for j in range(3)] for i in range(2)]
        table = cross_norm_table(D1, D2)
        assert table.shape == (2, 3)
        np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-13)


class TestConcentration:
    def test_perfect_concentration(self):
        v = vec([1, 2, 0, 0, 0, 3], 2, 2, 2)
        cert = best_concentration_set(v, 2)
        assert cert.blocks == (0, 2)
        assert cert.epsilon == pytest.approx(0.0, abs=1e-15)

    def test_full_support_is_exact(self):
        v = vec([1, 2, 3, 4], 1, 1, 1, 1)
        assert best_concentration_set(v, 4).epsilon == pytest.approx(0.0, abs=1e-15)

    def test_direct_sum_arithmetic(self):
        v = vec([4, 3, 2, 1], 1, 1, 1, 1)
        cert = best_concentration_set(v, 2)
        assert cert.blocks == (0, 1)
        assert cert.epsilon == pytest.approx(0.3)
        assert cert.h1_total == pytest.approx(10.0)
        assert cert.h1_on_set == pytest.approx(7.0)

    def test_ties_take_lowest_indices(self):
        v = vec([1, 1, 1, 1], 1, 1, 1, 1)
        assert best_concentration_set(v, 2).blocks == (0, 1)

    def test_epsilon_nonincreasing_in_k(self):
        rng = np.random.default_rng(5)
        v = BlockVector(rng.standard_normal(12) + 1j * rng.standard_normal(12),
                        BlockStructure((3, 1, 2, 2, 1, 3)))
        eps = [best_concentration_set(v, k).epsilon for k in range(0, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))
        assert eps[6] == pytest.approx(0.0, abs=1e-15)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero signal"):
            best_concentration_set(vec([0, 0], 1, 1), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            best_concentration_set(vec([1, 0], 1, 1), 3)

    def test_epsilon_of_given_set(self):
        v = vec([4, 3, 2, 1], 1, 1, 1, 1)
        assert concentration_epsilon(v, [3]) == pytest.approx(0.9)
        assert concentration_epsilon(v, [0, 1, 2, 3]) == pytest.approx(0.0)
        assert concentration_epsilon(v, []) == pytest.approx(1.0)


class TestBlockLeastSquares:
    def build(self):
        rng = np.random.default_rng(21)
        mat = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        return BlockDictionary(mat, BlockStructure((2, 2, 2)))

    def test_consistent_system(self):
        D = self.build()
        coeffs_true = np.array([1.0, -2.0, 0, 0, 0.5j, 1.0])
        y = D.matrix @ coeffs_true
        sol, res = block_least_squares(D, [0, 2], y)
        assert res <= 1e-10 * np.linalg.norm(y)
        assert np.allclose(sol.entries, coeffs_true, atol=1e-10)

    def test_orthogonal_rhs(self):
        D = BlockDictionary(np.eye(4)[:, :2], BlockStructure((1, 1)))
        y = np.array([0, 0, 1.0, 0])
        sol, res = block_least_squares(D, [0, 1], y)
        assert np.allclose(sol.entries, 0.0)
        assert res == pytest.approx(1.0)

    def test_orthonormal_support_inverts_by_adjoint(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 4)))
        D = BlockDictionary(q, BlockStructure((2, 2)))
        y = np.random.default_rng(3).standard_normal(6)
        sol, _ = block_least_squares(D, [0, 1], y)
        assert np.allclose(sol.entries, q.conj().T @ y, atol=1e-12)

    def test_residual_orthogonal_to_support_columns(self):
        D = self.build()
        y = np.random.default_rng(4).standard_normal(8) \
            + 1j * np.random.default_rng(5).standard_normal(8)
        sol, _ = block_least_squares(D, [1, 2], y)
        r = y - D.matrix @ sol.entries
        for col in np.concatenate([D.block(1).T, D.block(2).T]):
            assert abs(np.vdot(col, r)) <= 1e-9 * np.linalg.norm(col) * np.linalg.norm(y)

    def test_rank_deficient_stack_gets_min_norm_solution(self):
        mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]])
        D = BlockDictionary(mat, uniform_structure(2))
        y = np.array([2.0, 0, 0])
        sol, res = block_least_squares(D, [0, 1], y)
        assert res <= 1e-12
        # minimum-norm split puts half the weight on each duplicate
        assert np.allclose(sol.entries, [1.0, 1.0], atol=1e-12)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            block_least_squares(self.build(), [], np.zeros(8))
