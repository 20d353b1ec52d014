import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsparse
from hsparse.blocks import _SUBSET_CHUNK, cross_gram, support_stacks
from hsparse import (BlockDictionary, BlockStructure, BlockVector,
                     best_concentration_set, block_least_squares,
                     concentration_epsilon, cross_block_norm,
                     h0_norm, h1_norm, hilbert_coherence, uniform_structure)


def gaussian_dictionary(sizes, extra_rows, seed):
    """Complex Gaussian dictionary with max(sizes) + extra_rows rows: injective blocks."""
    rng = np.random.default_rng(seed)
    shape = (max(sizes) + extra_rows, sum(sizes))
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BlockDictionary(mat, BlockStructure(tuple(sizes)))


# Mixed block sizes 1-3, with all-size-1 structures drawn as often (they take the l2 path).
block_sizes = st.one_of(st.lists(st.integers(1, 3), min_size=1, max_size=7),
                        st.integers(1, 7).map(lambda n: [1] * n))


def vec(entries, *sizes):
    return BlockVector(np.asarray(entries, dtype=complex),
                       BlockStructure(tuple(sizes)))


def own_sigma(D, i):
    """Smallest and largest singular value of block i in D's own units."""
    return tuple(np.ldexp(D.unit_sigma[i], D.exponent).tolist())


def own_table(D1, D2=None):
    """Every tile norm of D1.cross_gram (D2 None) or cross_gram(D1, D2), in D's own units."""
    grams = D1.cross_gram if D2 is None else cross_gram(D1, D2)
    i, j = np.indices(grams.bounds.shape).reshape(2, -1)
    exponent = D1.exponent + (D1 if D2 is None else D2).exponent
    return np.ldexp(grams.norms(i, j), exponent).reshape(grams.bounds.shape)


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

    @settings(max_examples=60, deadline=None)
    @given(sizes=block_sizes, data=st.data())
    def test_column_indices_concatenate_block_ranges(self, sizes, data):
        """column_indices concatenates each given block's coordinate range,
        in the order given and with repeats; on single-column structures its
        fast path returns the same values and dtype as these ranges."""
        structure = BlockStructure(tuple(sizes))
        blocks = data.draw(st.lists(st.integers(0, len(sizes) - 1), max_size=6))
        ranges = [np.arange(structure.offsets[i], structure.offsets[i] + sizes[i])
                  for i in blocks]
        expected = np.concatenate(ranges) if ranges else np.empty(0, dtype=int)
        for given_blocks in (blocks, tuple(np.array(blocks, dtype=np.int64))):
            got = structure.column_indices(given_blocks)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 1)], ids=["single-column", "mixed"])
    @pytest.mark.parametrize("bad", [3, -1])
    def test_column_indices_reject_out_of_range(self, sizes, bad):
        with pytest.raises(ValueError, match=rf"block index {bad} out of range \[0, 3\)"):
            BlockStructure(sizes).column_indices([0, bad])

    def test_vector_length_must_match(self):
        with pytest.raises(ValueError):
            BlockVector(np.ones(5), BlockStructure((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            BlockVector([1.0, bad, 0.0, 1.0], BlockStructure((2, 2)))
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BlockDictionary(mat, BlockStructure((1, 2)))


class TestNorms:
    def test_h0_zero_vector(self):
        assert h0_norm(vec([0, 0, 0, 0], 2, 2)) == 0

    def test_h0_counts_occupied_blocks(self):
        assert h0_norm(vec([1, 0, 0, 2j], 2, 2), tol=0.0) == 2

    def test_h0_respects_tolerance(self):
        assert h0_norm(vec([1e-14, 0, 0, 1], 2, 2), tol=1e-10) == 1

    def test_h0_rejects_negative_tol(self):
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                h0_norm(vec([1, 0], 2), tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 10), min_size=1, max_size=8), uniform=st.booleans(),
           columns=st.one_of(st.none(), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1))
    def test_norms_match_reduceat_bit_for_bit(self, sizes, uniform, columns, seed):
        """Block norms of a vector or of the columns of a matrix equal
        sqrt(add.reduceat(abs(x)**2, offsets)) bit for bit, for uniform
        blocks of every size and for mixed sizes; each column's equal those
        of the column alone, and x 2^600 and x 2^-600, whose squares would
        overflow or underflow, give the norms times exactly 2^600 and
        2^-600, warning nothing."""
        if uniform:
            sizes = [sizes[0]] * len(sizes)
        structure = BlockStructure(tuple(sizes))
        rng = np.random.default_rng(seed)
        shape = (structure.dim,) if columns is None else (structure.dim, columns)
        scale = 10.0 ** rng.integers(-3, 4, size=shape)
        x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        expected = np.sqrt(np.add.reduceat(np.abs(x) ** 2, structure.offsets))
        norms = structure.norms(x)
        assert np.array_equal(norms, expected)
        for j in range(0 if columns is None else columns):
            assert np.array_equal(norms[:, j], structure.norms(x[:, j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (600, -600):
                assert np.array_equal(structure.norms(x * 2.0 ** k), np.ldexp(norms, k))

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
        assert own_sigma(D, 0) == pytest.approx((1.0, 1.0))

    def test_orthonormal_block_is_isometry(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 3)))
        D = BlockDictionary(q, BlockStructure((3,)))
        smin, smax = own_sigma(D, 0)
        assert smin == pytest.approx(1.0, abs=1e-12)
        assert smax == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_block(self):
        D = BlockDictionary(np.diag([1.0, 2.0]), BlockStructure((2,)))
        assert own_sigma(D, 0) == pytest.approx((1.0, 2.0))

    def test_rejects_rank_deficient_block(self):
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])   # dependent columns
        with pytest.raises(ValueError, match="not injective"):
            BlockDictionary(mat, BlockStructure((2,)))

    @settings(max_examples=40, deadline=None)
    @given(sizes=block_sizes, extra_rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_sigma_matches_per_block_svd(self, sizes, extra_rows, seed):
        """The per-size batched SVDs of D.unit give the per-block loop's values
        on D.unit bit for bit, and taken back to D's units by its exponent,
        those of the loop on D."""
        D = gaussian_dictionary(sizes, extra_rows, seed)
        for matrix, sigma in [(D.unit, D.unit_sigma),
                              (D.matrix, np.ldexp(D.unit_sigma, D.exponent))]:
            loop = [np.linalg.svd(matrix[:, D.structure.block_slice(i)], compute_uv=False)[[-1, 0]]
                    for i in range(D.n_blocks)]
            assert np.array_equal(sigma, loop)

    def test_first_failing_block_named_across_sizes(self):
        """Blocks 2 (second of size 2) and 3 (size 1) both fail; the lower index is named."""
        mat = gaussian_dictionary((2, 1, 2, 1, 2), 2, 0).matrix.copy()
        mat[:, 4] = 2 * mat[:, 3]   # block 2 = columns 3-4, dependent
        mat[:, 5] = 0               # block 3 = column 5, zero
        with pytest.raises(ValueError, match="column block 2 is not injective"):
            BlockDictionary(mat, BlockStructure((2, 1, 2, 1, 2)))

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
        np.testing.assert_allclose(own_table(D), oracle, rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(sizes=block_sizes, extra_rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_self_table_is_symmetric_and_matches_pair_norms(self, sizes, extra_rows, seed):
        """The upper-triangle table, mirrored, holds every pair norm in both orderings."""
        D = gaussian_dictionary(sizes, extra_rows, seed)
        table = own_table(D)
        assert np.array_equal(table, table.T)
        for i in range(D.n_blocks):
            for j in range(D.n_blocks):
                assert table[i, j] == pytest.approx(cross_block_norm(D, i, j), rel=1e-12)

    def test_table_of_two_dictionaries_with_different_structures(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
        D1 = BlockDictionary(mat[:, :5], BlockStructure((2, 3)))
        D2 = BlockDictionary(mat[:, 5:], BlockStructure((1, 1, 4)))
        # reference: the pair norms inside the concatenated dictionary
        both = BlockDictionary(mat, BlockStructure((2, 3, 1, 1, 4)))
        oracle = [[cross_block_norm(both, i, 2 + j) for j in range(3)] for i in range(2)]
        table = own_table(D1, D2)
        assert table.shape == (2, 3)
        np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-13)


def test_mu_h_near_the_float_range_is_finite():
    """Entries near 1.5e308 put the blocks' singular values and tile norms
    past the float range in D's own units; mu_h reads unit, so it is finite
    and warns nothing."""
    D = BlockDictionary([[1.5e308, 0.75e308], [1.5e308, -1.5e308], [0, 1.5e308]],
                        uniform_structure(2))
    assert hilbert_coherence(D) == pytest.approx(0.25, rel=1e-15)


def test_public_names_resolve():
    """Every name in hsparse.__all__ resolves; the D-units helpers are gone."""
    for name in hsparse.__all__:
        assert getattr(hsparse, name) is not None
    for name in ("block_sigma", "cross_norm_table", "_in_units"):
        assert not hasattr(hsparse, name) and not hasattr(hsparse.blocks, name)


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

    def test_measurement_checked(self):
        y = np.ones(8)
        with pytest.raises(ValueError, match="does not match"):
            block_least_squares(self.build(), [0], y[:7])
        y[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            block_least_squares(self.build(), [0], y)


class TestSupportStacks:
    # (20, 10): the largest level of a dictionary at SPARK_ENUMERATION_CAP blocks.
    @pytest.mark.parametrize("n, k", [(5, 1), (6, 6), (14, 8), (16, 5), (20, 10)])
    def test_uniform_level_is_lexicographic(self, n, k):
        D = gaussian_dictionary([1] * n, 0, 0)
        batches = [supports for supports, _ in support_stacks(D, k)]
        assert all(0 < len(b) <= _SUBSET_CHUNK and b.dtype == np.int64 for b in batches)
        assert np.array_equal(np.concatenate(batches),
                              np.array(list(itertools.combinations(range(n), k))))

    @pytest.mark.parametrize("sizes", [(1,) * 4, (2, 1, 3)])
    def test_nothing_beyond_the_block_count(self, sizes):
        D = gaussian_dictionary(sizes, 0, 0)
        assert list(support_stacks(D, len(sizes) + 1)) == []

    @pytest.mark.parametrize("sizes, ks", [((2,) * 6, range(1, 7)),
                                           ((1, 2, 1, 3, 2, 1, 1, 2), range(1, 9)),
                                           ((1, 2) * 8, [8])])
    def test_batches_stack_the_columns_of_their_supports(self, sizes, ks):
        """Each batch has one stack width, its column rows are the supports'
        columns in block order, and the batches of a level hold every
        k-subset once, each width's subsets in lexicographic order."""
        D = gaussian_dictionary(sizes, 0, 1)
        for k in ks:
            seen, width_order = [], []
            for supports, cols in support_stacks(D, k):
                assert 0 < len(supports) <= _SUBSET_CHUNK
                assert cols.shape == (len(supports), cols.shape[1])
                for support, row in zip(supports.tolist(), cols):
                    assert np.array_equal(row, D.structure.column_indices(support))
                seen += map(tuple, supports.tolist())
                width_order += [cols.shape[1]] * len(supports)
            assert sorted(seen) == list(itertools.combinations(range(len(sizes)), k))
            assert seen == sorted(seen, key=lambda s: (sum(sizes[b] for b in s), s))
            assert width_order == sorted(width_order)

    # Uniform C(14, 8) = 3,003 rows; (1, 2) * 8 at k = 8 has widths of 3,136
    # and 4,900 rows.  Both are longer than one unranking run.
    @pytest.mark.parametrize("sizes, k", [((1,) * 14, 8), ((1, 2) * 8, 8)])
    def test_batches_are_whole_chunks_within_a_width(self, sizes, k):
        """Within each width every batch but the last has exactly
        _SUBSET_CHUNK rows, and the batches concatenate to the width's
        subsets in lexicographic order."""
        D = gaussian_dictionary(sizes, 0, 3)
        widths, by_width = [], {}
        for supports, cols in support_stacks(D, k):
            widths.append(cols.shape[1])
            by_width.setdefault(cols.shape[1], []).append(supports)
        assert widths == sorted(widths)
        for width, batches in by_width.items():
            assert all(len(b) == _SUBSET_CHUNK for b in batches[:-1])
            assert 0 < len(batches[-1]) <= _SUBSET_CHUNK
            run = [s for s in itertools.combinations(range(len(sizes)), k)
                   if sum(sizes[b] for b in s) == width]
            assert np.array_equal(np.concatenate(batches), np.array(run))

    def test_uncountable_level_rejected(self):
        """C(70, 35) > 2^63: the int64 unranking keys would wrap."""
        D = gaussian_dictionary([1] * 70, 0, 0)
        with pytest.raises(ValueError, match="too many"):
            next(support_stacks(D, 35))

    @pytest.mark.parametrize("sizes", [(1,) * 20, (1, 2) * 10])
    def test_level_is_streamed_in_flat_memory(self, sizes):
        """No array holds the C(20, 10) = 184,756 subsets of the level."""
        D = gaussian_dictionary(sizes, 0, 2)
        tracemalloc.start()
        try:
            for _ in support_stacks(D, 10):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
