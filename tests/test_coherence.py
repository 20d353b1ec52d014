import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsparse import (BlockDictionary, BlockStructure, block_coherences,
                     coherence_report, cross_block_norm, hilbert_coherence,
                     mutual_hilbert_coherence, spark_exhaustive,
                     identity_dft_pair, multicoset_matrix, MultiCosetSpec,
                     random_block_dictionary, uniform_structure)


def unit_norm_dict(m, n, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    return BlockDictionary(mat, uniform_structure(n))


def brute_force_coherence(mat):
    """Oracle: scan |<d_i, d_j>| directly over all column pairs."""
    n = mat.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, abs(np.vdot(mat[:, i], mat[:, j])))
    return best


def kernel_spark_oracle(mat, tol=1e-10):
    """Oracle: smallest column subset admitting a kernel vector, via ranks."""
    m, n = mat.shape
    for k in range(1, n + 1):
        for cols in itertools.combinations(range(n), k):
            sub = mat[:, cols]
            if np.linalg.matrix_rank(sub, tol=tol * np.linalg.svd(sub, compute_uv=False)[0]) < k:
                return k
    return None


class TestHilbertCoherence:
    def test_identity_is_incoherent(self):
        D = BlockDictionary(np.eye(4), uniform_structure(4))
        assert hilbert_coherence(D) == pytest.approx(0.0, abs=1e-14)

    def test_reduces_to_classical_coherence_for_unit_columns(self):
        for seed in range(20):
            D = unit_norm_dict(8, 16, seed)
            assert hilbert_coherence(D) == pytest.approx(
                brute_force_coherence(D.matrix), abs=1e-12)

    def test_identity_dft_pair_value(self):
        assert hilbert_coherence(identity_dft_pair(4)) == pytest.approx(0.5, abs=1e-12)

    def test_single_block_rejected(self):
        D = BlockDictionary(np.eye(3), BlockStructure((3,)))
        with pytest.raises(ValueError, match="single subspace"):
            hilbert_coherence(D)

    def test_invariant_under_global_scaling(self):
        D = unit_norm_dict(6, 10, 3)
        base = hilbert_coherence(D)
        for c in (1e-3, 7.0, 1e4):
            scaled = BlockDictionary(c * D.matrix, D.structure)
            assert hilbert_coherence(scaled) == pytest.approx(base, rel=1e-12)

    def test_unnormalized_denominator_is_squared_gain(self):
        # two single-column blocks with gains 2 and 1: the max of
        # cross/gain_i^2 over both orderings is cross/1.
        a = np.array([2.0, 0.0])
        b = np.array([np.cos(1.0), np.sin(1.0)])
        D = BlockDictionary(np.column_stack([a, b]), uniform_structure(2))
        cross = abs(np.vdot(a, b))
        assert hilbert_coherence(D) == pytest.approx(cross / 1.0**2, abs=1e-12)


class TestMutualCoherence:
    def test_same_basis_hits_one(self):
        I4 = BlockDictionary(np.eye(4), uniform_structure(4))
        assert mutual_hilbert_coherence(I4, I4) == pytest.approx(1.0, abs=1e-12)

    def test_identity_versus_dft(self):
        n = 4
        I = BlockDictionary(np.eye(n), uniform_structure(n))
        F = BlockDictionary(np.exp(-2j * np.pi * np.outer(range(n), range(n)) / n)
                            / np.sqrt(n), uniform_structure(n))
        assert mutual_hilbert_coherence(I, F) == pytest.approx(0.5, abs=1e-12)

    def test_reduces_to_max_inner_product_for_unit_columns(self):
        A = unit_norm_dict(6, 9, 1)
        B = unit_norm_dict(6, 7, 2)
        oracle = max(abs(np.vdot(A.matrix[:, i], B.matrix[:, j]))
                     for i in range(9) for j in range(7))
        assert mutual_hilbert_coherence(A, B) == pytest.approx(oracle, abs=1e-12)

    def test_row_count_mismatch_rejected(self):
        A = unit_norm_dict(6, 4, 0)
        B = unit_norm_dict(5, 4, 0)
        with pytest.raises(ValueError, match="rows"):
            mutual_hilbert_coherence(A, B)


def orthonormal_block_dict(m, d, n, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(n):
        g = (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))) / np.sqrt(2)
        cols.append(np.linalg.qr(g)[0])
    return BlockDictionary(np.hstack(cols), BlockStructure((d,) * n))


class TestBlockCoherences:
    def test_identity_with_paired_blocks(self):
        D = BlockDictionary(np.eye(4), BlockStructure((2, 2)))
        assert block_coherences(D) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_orthonormal_blocks_match_subspace_coherence(self):
        for seed in range(15):
            D = orthonormal_block_dict(16, 2, 8, seed)
            _, _, mu_hat = block_coherences(D)
            assert mu_hat == pytest.approx(hilbert_coherence(D), abs=1e-10)

    def test_composite_never_below_subspace_coherence(self):
        for seed in range(60):
            D = random_block_dictionary(16, (2,) * 8, seed)
            _, _, mu_hat = block_coherences(D)
            if mu_hat is not None:
                assert hilbert_coherence(D) <= mu_hat + 1e-9

    def test_strict_improvement_exists(self):
        # seed found by scanning the generator family; the gap is large, not
        # a numerical accident
        D = random_block_dictionary(16, (2,) * 8, 319)
        _, _, mu_hat = block_coherences(D)
        assert mu_hat is not None
        assert hilbert_coherence(D) < mu_hat - 1e-3

    def test_uniform_size_required(self):
        rng = np.random.default_rng(9)
        D = BlockDictionary(rng.standard_normal((6, 5)), BlockStructure((2, 3)))
        with pytest.raises(ValueError, match="uniform block size"):
            block_coherences(D)


class TestSparkExhaustive:
    def test_identity_has_trivial_kernel(self):
        D = BlockDictionary(np.eye(4), uniform_structure(4))
        assert spark_exhaustive(D) is None

    def test_identity_dft_pair_matches_oracle(self):
        D = identity_dft_pair(4)
        assert kernel_spark_oracle(D.matrix) == 4
        assert spark_exhaustive(D) == 4

    def test_two_coset_matrix_matches_oracle(self):
        L = multicoset_matrix(MultiCosetSpec(4, (1, 2)))
        assert kernel_spark_oracle(L.matrix) == 3
        assert spark_exhaustive(L) == 3

    def test_duplicated_column_gives_spark_two(self):
        mat = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 1], np.eye(3)[:, 0]])
        D = BlockDictionary(mat, uniform_structure(3))
        assert spark_exhaustive(D) == 2

    def test_nonuniform_blocks(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        D = BlockDictionary(mat, BlockStructure((2, 1, 3)))
        # 4 rows: any stack wider than 4 columns is deficient; generic
        # narrower stacks are not.  Blocks 0+3 -> width 5.
        assert spark_exhaustive(D) == kernel_spark_oracle_blocks(D)
        # 5 rows, all three blocks stack to width 5: only the SVD can find
        # the planted dependency column 4 = column 0 + column 2.
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat[:, 4] = mat[:, 0] + mat[:, 2]
        D = BlockDictionary(mat, BlockStructure((2, 1, 2)))
        assert spark_exhaustive(D) == kernel_spark_oracle_blocks(D) == 3

    def test_deficient_subset_in_second_chunk(self):
        # the only deficient 3-subset, (11, 12, 13), is the last of 364
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((6, 14)) + 1j * rng.standard_normal((6, 14))
        mat[:, 13] = mat[:, 11] + mat[:, 12]
        D = BlockDictionary(mat, uniform_structure(14))
        assert spark_exhaustive(D) == 3

    def test_cap_enforced(self):
        D = unit_norm_dict(4, 21, 0)
        with pytest.raises(ValueError, match="raise cap"):
            spark_exhaustive(D)
        assert spark_exhaustive(D, cap=21) == 5

    def test_invariant_under_block_recombination(self):
        rng = np.random.default_rng(77)
        base = random_block_dictionary(6, (2, 2, 2, 2), 41, normalize="none")
        before = spark_exhaustive(base)
        mixed = []
        for i in range(4):
            t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            t += 2 * np.eye(2)   # keep it comfortably invertible
            mixed.append(base.block(i) @ t)
        D2 = BlockDictionary(np.hstack(mixed), base.structure)
        assert spark_exhaustive(D2) == before


def kernel_spark_oracle_blocks(D):
    n = D.n_blocks
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            cols = np.hstack([D.block(i) for i in combo])
            smax = np.linalg.svd(cols, compute_uv=False)[0]
            if np.linalg.matrix_rank(cols, tol=1e-10 * smax) < cols.shape[1]:
                return k
    return None


def pairwise_hilbert_coherence(D):
    """Reference: the per-pair loop over cross_block_norm."""
    smin = D.block_sigma_min()
    best = 0.0
    for i, j in itertools.combinations(range(D.n_blocks), 2):
        cross = cross_block_norm(D, i, j)
        best = max(best, cross / smin[i] ** 2, cross / smin[j] ** 2)
    return best


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 6), sizes=st.lists(st.integers(1, 3), min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1), dependent=st.booleans())
def test_random_nonuniform_dictionaries_match_references(rows, sizes, seed, dependent):
    assume(max(sizes) <= rows)
    rng = np.random.default_rng(seed)
    shape = (rows, sum(sizes))
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if dependent:
        mat[:, -1] = mat[:, 0] + mat[:, -2]
    D = BlockDictionary(mat, BlockStructure(tuple(sizes)))
    assert spark_exhaustive(D) == kernel_spark_oracle_blocks(D)
    assert hilbert_coherence(D) == pytest.approx(pairwise_hilbert_coherence(D), rel=1e-12)


class TestCoherenceReport:
    def test_identity_dft_pair_numbers(self):
        rep = coherence_report(identity_dft_pair(4))
        assert rep.mu_h == pytest.approx(0.5, abs=1e-12)
        assert rep.threshold_coherence == pytest.approx(1.5, abs=1e-12)
        assert rep.spark == 4
        assert rep.threshold_spark == pytest.approx(2.0)
        assert rep.spark_lower_bound == pytest.approx(3.0, abs=1e-9)
        assert rep.spark_bound_ok()

    def test_identity_flags(self):
        D = BlockDictionary(np.eye(4), uniform_structure(4))
        rep = coherence_report(D)
        assert rep.mu_h == pytest.approx(0.0, abs=1e-14)
        assert math.isinf(rep.threshold_coherence)
        assert rep.spark_trivial and rep.spark is None
        assert rep.spark_numeric() == 5.0
        mapping = rep.to_mapping()
        assert mapping["spark"] == "trivial-kernel"
        assert math.isinf(mapping["threshold_coherence"])

    def test_two_coset_matrix_satisfies_spark_bound(self):
        rep = coherence_report(multicoset_matrix(MultiCosetSpec(4, (1, 2))))
        assert rep.mu_h == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert rep.spark == 3
        assert rep.spark_lower_bound == pytest.approx(1 + math.sqrt(2), abs=1e-9)
        assert rep.spark_bound_ok()

    def test_spark_skippable(self):
        rep = coherence_report(identity_dft_pair(4), compute_spark=False)
        assert not rep.spark_computed
        assert rep.spark_numeric() is None
        assert rep.to_mapping()["spark"] == "not-computed"

    def test_spark_bound_on_random_unit_norm_dictionaries(self):
        for seed in range(25):
            rep = coherence_report(unit_norm_dict(5, 9, seed))
            assert rep.spark_bound_ok(), f"seed {seed}"

    def test_nonuniform_blocks_omit_composite_family(self):
        rng = np.random.default_rng(8)
        D = BlockDictionary(rng.standard_normal((6, 5)), BlockStructure((2, 3)))
        rep = coherence_report(D)
        assert rep.mu_block is None and rep.nu is None and rep.mu_hat is None
        assert "mu_hat" not in rep.to_mapping()
