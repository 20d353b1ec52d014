import math

import numpy as np
import pytest

from hsparse import (CorrelationSequence, CrossCorrelationTable, MultiCosetSpec,
                     dirichlet_coherence, fourier_basis, hilbert_coherence,
                     identity_basis, identity_dft_pair, multicoset_matrix,
                     random_block_dictionary, si_mutual_coherence,
                     spark_exhaustive)


class TestMultiCoset:
    def test_entries_match_definition(self):
        spec = MultiCosetSpec(5, (2, 4), period=0.5)
        D = multicoset_matrix(spec)
        for ki, k in enumerate(spec.coset_rows):
            for ell in range(1, 6):
                expect = np.exp(2j * np.pi * k * ell / 5) / (5 * 0.5)
                assert D.matrix[ki, ell - 1] == pytest.approx(expect, abs=1e-14)

    def test_full_row_set_is_orthogonal(self):
        D = multicoset_matrix(MultiCosetSpec(2, (1, 2)))
        assert np.allclose(D.matrix, np.array([[-1, 1], [1, 1]]) / 2.0)
        assert hilbert_coherence(D) == pytest.approx(0.0, abs=1e-12)
        assert spark_exhaustive(D) is None   # trivial kernel

    def test_consecutive_rows_kernel_sparsity_law(self):
        # any m columns of the truncated DFT are Vandermonde-independent, so
        # the sparsest kernel vector occupies m+1 cells (none exists at m=n)
        for n in range(2, 9):
            for m in range(1, n + 1):
                D = multicoset_matrix(MultiCosetSpec(n, tuple(range(1, m + 1))))
                got = spark_exhaustive(D)
                assert got == (m + 1 if m < n else None), (n, m, got)

    def test_nonconsecutive_rows_recorded(self):
        # repeated-column pattern: spark may drop below the consecutive-row
        # value; recorded without asserting a specific number
        D = multicoset_matrix(MultiCosetSpec(4, (2, 4)))
        got = spark_exhaustive(D)
        assert got is None or 1 <= got <= 4

    def test_period_cancels_from_coherence(self):
        a = hilbert_coherence(multicoset_matrix(MultiCosetSpec(6, (1, 2, 3))))
        b = hilbert_coherence(multicoset_matrix(MultiCosetSpec(6, (1, 2, 3), period=3.7)))
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(n=0, coset_rows=(1,)),
        dict(n=4, coset_rows=()),
        dict(n=4, coset_rows=(1, 1)),
        dict(n=4, coset_rows=(0, 2)),
        dict(n=4, coset_rows=(1, 5)),
        dict(n=4, coset_rows=(1,), period=0.0),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            MultiCosetSpec(**bad)


class TestDirichletCoherence:
    def test_full_sampling_is_incoherent(self):
        assert dirichlet_coherence(6, 6) == pytest.approx(0.0, abs=1e-12)

    def test_four_two(self):
        assert dirichlet_coherence(4, 2) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_single_row_is_fully_coherent(self):
        assert dirichlet_coherence(5, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 3), (8, 3), (12, 7),
                                     (16, 5), (24, 11), (33, 10), (48, 13),
                                     (64, 17)])
    def test_matches_matrix_coherence(self, n, m):
        D = multicoset_matrix(MultiCosetSpec(n, tuple(range(1, m + 1))))
        assert dirichlet_coherence(n, m) == pytest.approx(
            hilbert_coherence(D), abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            dirichlet_coherence(1, 1)
        with pytest.raises(ValueError):
            dirichlet_coherence(4, 5)


class TestIdentityDftPair:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_coherence_is_inverse_root(self, n):
        D = identity_dft_pair(n)
        assert D.shape == (n, 2 * n)
        assert hilbert_coherence(D) == pytest.approx(1 / math.sqrt(n), abs=1e-12)

    def test_columns_are_unit_norm(self):
        D = identity_dft_pair(8)
        norms = np.linalg.norm(D.matrix, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_bases_are_unitary(self):
        for D in (identity_basis(6), fourier_basis(6)):
            assert np.ldexp(D.unit_sigma[0], D.exponent) == pytest.approx((1.0, 1.0), abs=1e-12)
            assert np.allclose(D.matrix @ D.matrix.conj().T, np.eye(6), atol=1e-12)


class TestRandomBlockDictionary:
    def test_same_seed_same_matrix(self):
        a = random_block_dictionary(8, (2, 2, 2, 2), 7)
        b = random_block_dictionary(8, (2, 2, 2, 2), 7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seed_different_matrix(self):
        a = random_block_dictionary(8, (2, 2, 2, 2), 7)
        b = random_block_dictionary(8, (2, 2, 2, 2), 8)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_column_normalization(self):
        D = random_block_dictionary(8, (2, 2, 2, 2), 3, normalize="columns")
        assert np.all(np.abs(np.linalg.norm(D.matrix, axis=0) - 1.0) <= 1e-12)

    def test_unnormalized_option(self):
        D = random_block_dictionary(8, (2, 2), 3, normalize="none")
        assert not np.allclose(np.linalg.norm(D.matrix, axis=0), 1.0)

    def test_blocks_are_injective(self):
        for seed in range(10):
            D = random_block_dictionary(8, (2, 2, 2, 2), seed)
            for i in range(4):
                assert D.unit_sigma[i, 0] > 0

    def test_row_count_validated(self):
        with pytest.raises(ValueError, match="rows"):
            random_block_dictionary(2, (3,), 0)

    def test_normalize_mode_validated(self):
        with pytest.raises(ValueError, match="normalize"):
            random_block_dictionary(4, (2,), 0, normalize="rows")


def table(values, grid, lag=0):
    return CrossCorrelationTable(
        (CorrelationSequence(0, 0, lag, tuple(values)),), grid_size=grid)


class TestSiMutualCoherence:
    @pytest.mark.parametrize("grid", [8, 4096])
    def test_delta_sequence_is_flat(self, grid):
        assert si_mutual_coherence(table([1.0], grid)) == 1.0

    @pytest.mark.parametrize("grid", [2, 4, 8, 100, 4096])
    def test_two_tap_average_peaks_at_dc(self, grid):
        assert si_mutual_coherence(table([0.5, 0.5], grid)) == 1.0

    def test_maximum_over_pairs(self):
        t = CrossCorrelationTable((
            CorrelationSequence(0, 0, 0, (0.25,)),
            CorrelationSequence(0, 1, 0, (0.5, 0.5)),
        ), grid_size=16)
        assert si_mutual_coherence(t) == 1.0

    def test_grid_refinement_never_decreases(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            length = int(rng.integers(2, 12))
            values = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            prev = None
            for grid in (64, 128, 256):
                cur = si_mutual_coherence(table(values, grid))
                if prev is not None:
                    assert cur >= prev - 1e-12
                prev = cur

    def test_lag_offset_is_phase_only(self):
        values = (0.3, -0.2 + 0.1j, 0.05)
        assert si_mutual_coherence(table(values, 64, lag=0)) == pytest.approx(
            si_mutual_coherence(table(values, 64, lag=-7)), abs=1e-14)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            si_mutual_coherence(CrossCorrelationTable((), grid_size=8))

    def test_grid_must_cover_sequences(self):
        with pytest.raises(ValueError, match="grid"):
            table([1.0, 2.0, 3.0], 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_sequence_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationSequence(0, 1, 0, (bad, 0.5))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            CorrelationSequence(0, 1, 0, ())
