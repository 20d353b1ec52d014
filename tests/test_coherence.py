import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hsparse.coherence as coherence
from hsparse.blocks import column_stacks, cross_gram
from hsparse import (BlockDictionary, BlockStructure, block_coherences,
                     coherence_report, cross_block_norm, guarantee_check,
                     hilbert_coherence, mutual_hilbert_coherence, spark_exhaustive,
                     identity_dft_pair, multicoset_matrix, MultiCosetSpec,
                     random_block_dictionary, uniform_structure)
from hsparse.experiments import run_certify


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
        for coherence_of in (hilbert_coherence, block_coherences):
            with pytest.raises(ValueError, match="single subspace"):
                coherence_of(D)

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

    def test_computed_on_unit_columns(self):
        D = random_block_dictionary(16, (2,) * 8, 319)
        scaled = BlockDictionary(3.0 * D.matrix, D.structure)
        assert block_coherences(scaled) == pytest.approx(block_coherences(D), rel=1e-12)
        # Multicoset columns all have norm sqrt(5)/16; on unit columns the
        # size-1 composite coherence is mu_h itself.
        coset = multicoset_matrix(MultiCosetSpec(16, (1, 2, 3, 4, 5)))
        _, _, mu_hat = block_coherences(coset)
        assert mu_hat == pytest.approx(hilbert_coherence(coset), abs=1e-10)

    def test_equal_column_norms_required(self):
        D = random_block_dictionary(8, (2,) * 4, 3, normalize="none")
        with pytest.raises(ValueError, match="equal column norms"):
            block_coherences(D)
        rep = coherence_report(D)
        assert rep.mu_block is None and "mu_hat" not in rep.to_mapping()

    def test_uniform_size_required(self):
        rng = np.random.default_rng(9)
        D = BlockDictionary(rng.standard_normal((6, 5)), BlockStructure((2, 3)))
        with pytest.raises(ValueError, match="uniform block size"):
            block_coherences(D)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(2, 6), extra_rows=st.integers(0, 6),
       tight=st.booleans(), spread=st.floats(0.0, 0.9), scale=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_subspace_coherence_within_composite(d, n, extra_rows, tight, spread, scale, seed):
    """mu_h <= mu_hat on uniform blocks with equal column norms.

    With unit columns, sigma_min(D_i)^2 >= 1 - (d-1) nu (Gershgorin) and
    ||D_i^H D_j|| <= d mu_block, which gives the bound.  A tight dictionary
    gives every block the Gram (1 + c) I - c 11^T with c = spread / (d-1):
    its least eigenvalue is 1 - (d-1) c = 1 - (d-1) nu, so both steps are
    equalities and mu_h = mu_hat.  The others perturb orthonormal blocks by
    spread and rescale their columns.
    """
    rng = np.random.default_rng(seed)
    rows = d + extra_rows
    blocks = []
    for _ in range(n):
        g = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
        q = np.linalg.qr(g)[0]
        if tight:
            c = spread / max(d - 1, 1)
            w, v = np.linalg.eigh((1 + c) * np.eye(d) - c * np.ones((d, d)))
            blocks.append(q @ (v * np.sqrt(w)) @ v.T)
        else:
            b = q + spread * g / np.sqrt(2 * rows)
            blocks.append(b / np.linalg.norm(b, axis=0))
    D = BlockDictionary(scale * np.hstack(blocks), BlockStructure((d,) * n))
    rep = coherence_report(D, compute_spark=False)
    assert rep.mu_hat is not None or not tight
    if rep.mu_hat is not None:
        assert rep.mu_h <= rep.mu_hat * (1 + 1e-9)
    if tight:
        assert rep.mu_h == pytest.approx(rep.mu_hat, rel=1e-9)


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

    def test_deficient_subset_past_first_unranking_run(self):
        # the only deficient 3-subset, (13, 14, 15), is the last of 560, past
        # the 512 that support_stacks unranks in its first pass
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        mat[:, 15] = mat[:, 13] + mat[:, 14]
        D = BlockDictionary(mat, uniform_structure(16))
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


def kernel_spark_oracle_blocks(D, tol=1e-10):
    n = D.n_blocks
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            cols = np.hstack([D.block(i) for i in combo])
            smax = np.linalg.svd(cols, compute_uv=False)[0]
            if np.linalg.matrix_rank(cols, tol=tol * smax) < cols.shape[1]:
                return k
    return None


def sigma_min(D):
    """Each block's smallest singular value in D's own units, from its SVD."""
    return np.array([np.linalg.svd(D.block(i), compute_uv=False)[-1] for i in range(D.n_blocks)])


def pairwise_hilbert_coherence(D):
    """Reference: the per-pair loop over cross_block_norm."""
    smin = sigma_min(D)
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


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(3, 7), sizes=st.lists(st.integers(1, 2), min_size=4, max_size=9),
       seed=st.integers(0, 2**32 - 1), partners=st.integers(1, 3))
def test_spark_below_width_bound_matches_oracle(rows, sizes, seed, partners):
    """A kernel vector on the last partners + 1 blocks, the latest subsets in
    lexicographic order, puts the spark below the width bound, so the search
    has to bisect past its first probe."""
    widest = np.cumsum(sorted(sizes, reverse=True))
    width_bound = int(np.argmax(widest > rows)) + 1 if widest[-1] > rows else len(sizes)
    assume(partners + 1 < width_bound)
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    first = structure.offsets[len(sizes) - 1 - partners]
    mixing = rng.standard_normal(structure.dim - 1 - first)
    mat[:, -1] = mat[:, first:-1] @ mixing
    D = BlockDictionary(mat, structure)
    spark = spark_exhaustive(D)
    assert spark == kernel_spark_oracle_blocks(D)
    assert spark < width_bound


def svd_only_deficient(D, k, tol):
    """Reference verdict: the SVD of every k-subset stack, no screen, the
    subsets listed by itertools rather than by support_stacks."""
    for support in itertools.combinations(range(D.n_blocks), k):
        s = np.linalg.svd(D.matrix[:, D.structure.column_indices(support)], compute_uv=False)
        if s[-1] <= tol * s[0]:
            return True
    return False


def below_width_bound(D):
    """Every k whose widest k-subset still fits in D's rows."""
    widest = np.cumsum(sorted(D.structure.sizes, reverse=True))
    return range(1, int(np.count_nonzero(widest <= D.shape[0])) + 1)


@st.composite
def planted_structures(draw):
    """(rows, sizes, real, partners): 2-7 blocks of 1-3 columns, none wider
    than rows, whose last partners + 1 blocks stack to at most rows columns,
    and to at most 2 when real (the real equal-norm V used is 2 x 2)."""
    rows = draw(st.integers(2, 7))
    real = draw(st.booleans())
    room = 2 if real else rows
    partners = draw(st.integers(1, min(3, room - 1)))
    planted = []
    for later in range(partners, -1, -1):   # planted blocks still to draw after this one
        planted.append(draw(st.integers(1, min(3, room - sum(planted) - later))))
    others = draw(st.lists(st.integers(1, min(3, rows)), max_size=6 - partners))
    return rows, others + planted, real, partners


@settings(max_examples=60, deadline=None)
@given(case=planted_structures(), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([coherence.SPARK_DEFICIENCY_TOL, 1e-4, 0.3]),
       factor=st.sampled_from([10.0, 0.1, 1.25, 0.8, 0.0]),
       scale=st.sampled_from([1.0, 2.0 ** -300, 2.0 ** 300]))
# Two unit columns at sigma ratio 0.8 tol: their Gram tile over its trace
# has diagonal 1/2, so a lambda_max bound of the largest diagonal entry
# proves the pair, which the SVD calls deficient.
@example(case=(2, [1, 1], False, 1), seed=0, tol=0.3, factor=0.8, scale=1.0)
def test_screened_deficiency_matches_svd(case, seed, tol, factor, scale):
    """The Cholesky screen changes no verdict.  The last partners + 1 blocks
    are replaced by a stack U diag(1, ..., 1, factor * tol) V^H with V the
    unitary DFT (equal column norms), so their sigma_min / sigma_max sits at
    factor times the cutoff; every k below the width bound is compared.  The
    whole matrix is then multiplied by scale, a power of two: exact, so every
    sigma ratio is kept, and the screen, which reads D.unit, must give every
    scale the same verdicts."""
    rows, sizes, real, partners = case
    planted = sum(sizes[-partners - 1:])
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    shape = (rows, structure.dim)
    mat = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
    u, _ = np.linalg.qr(mat[:, -planted:])
    sigma = np.ones(planted)
    sigma[-1] = factor * tol
    v = (np.array([[1.0, 1.0], [1.0, -1.0]]) if real else
         np.exp(-2j * np.pi * np.outer(np.arange(planted), np.arange(planted)) / planted))
    v = v[:planted, :planted] / np.sqrt(planted)
    mat[:, -planted:] = (u * sigma) @ v.conj().T
    # Every planted block stays injective at factor 0: its columns are U times
    # the first planted - 1 rows of V^H on them, a Vandermonde matrix in
    # distinct nodes (one nonzero column when real).
    D = BlockDictionary(mat * scale, structure)
    for k in below_width_bound(D):
        assert coherence._deficient(D, k, tol) == svd_only_deficient(D, k, tol), k


def recording_cholesky(monkeypatch):
    """Wrap np.linalg.cholesky and support_stacks as _deficient calls them:
    returns the (cols, tiles, raised) of each Cholesky call and the cols of
    each batch, in call order."""
    cholesky, stacks = np.linalg.cholesky, coherence.support_stacks
    calls, batches = [], []

    def recording(a):
        try:
            L = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append((batches[-1], a.copy(), True))
            raise
        calls.append((batches[-1], a.copy(), False))
        return L

    def batched(D, k):
        for supports, cols in stacks(D, k):
            batches.append(cols)
            yield supports, cols

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    monkeypatch.setattr(coherence, "support_stacks", batched)
    return calls, batches


def test_duplicated_column_factors_in_one_call_per_batch(monkeypatch):
    """An exactly duplicated column makes the Gram tile of every subset
    holding it and its twin singular.  The shifted diagonal still gives
    each such tile a factor: no Cholesky call raises, each batch takes one,
    and only the stacks that hold both twins reach the SVD."""
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    mat[:, :2] = np.eye(4)[:, :2]
    mat[:, 5] = mat[:, 0]
    D = BlockDictionary(mat, uniform_structure(6))
    calls, batches = recording_cholesky(monkeypatch)
    gathered = []

    def counting(D, cols):
        gathered.extend(map(tuple, cols.tolist()))
        return column_stacks(D, cols)

    monkeypatch.setattr(coherence, "column_stacks", counting)
    for k in below_width_bound(D):
        assert coherence._deficient(D, k, coherence.SPARK_DEFICIENCY_TOL) == \
            svd_only_deficient(D, k, coherence.SPARK_DEFICIENCY_TOL)
    assert spark_exhaustive(D) == 2
    assert len(calls) == len(batches) and not any(raised for _, _, raised in calls)
    assert gathered and all({0, 5} <= set(stack) for stack in gathered), gathered


def test_near_parallel_columns_factor_in_one_call_per_batch(monkeypatch):
    """Two columns 1e-9 apart give the stacks holding both tiles that are
    singular up to rounding, which an unshifted Cholesky often fails on.
    Every batch still takes exactly one call, and none raises."""
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((8, 14)) + 1j * rng.standard_normal((8, 14))
    mat /= np.linalg.norm(mat, axis=0)
    mat[:, 9] = mat[:, 2] + 1e-9 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    D = BlockDictionary(mat, uniform_structure(14))
    calls, batches = recording_cholesky(monkeypatch)
    assert spark_exhaustive(D) == kernel_spark_oracle_blocks(D)
    assert len(calls) == len(batches) and not any(raised for _, _, raised in calls)


@pytest.mark.parametrize("scale", [1e160, 1e-158, 1e-170])
def test_gram_out_of_range_goes_to_the_svd(scale):
    """A dictionary scaled to where D^H D itself would leave the normal range
    (overflow at 1e160, a subnormal diagonal at 1e-158, on which the screen
    once proved the planted dependency full rank and read spark 6, zero at
    1e-170) gets the SVD's spark.  The screen factors the Gram of D.unit,
    which stays in range, so no warning is raised on the way."""
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    mat[:, 7] = mat[:, 3] - 2 * mat[:, 5]
    D = BlockDictionary(mat * scale, uniform_structure(8))
    assert spark_exhaustive(D) == kernel_spark_oracle_blocks(D) == 3


@pytest.mark.parametrize("tol", [coherence.SPARK_DEFICIENCY_TOL, 1e-4])
def test_spread_within_a_dictionary_gets_the_svd_spark(tol):
    """Blocks 3-6 of a 6-row dictionary are scaled by 2^-shift while blocks
    0-2 stay O(1): block 4's two columns have sigma ratio tol / 10 or 100
    tol, and block 5 is block 3 minus twice the first column of block 6.
    Every stack pairing a tiny block with an O(1) one is deficient, so the
    spark is 1 or 2, and the k = 1 probe decides it.  From about 2^-485 on,
    the tiny blocks' Gram tiles keep few bits or none, and the zero diagonal
    of their columns sends them to the SVD: without it the screen proved
    block 4 full rank at 2^-515 to 2^-527 and read spark 2."""
    sizes = (1, 2, 1, 1, 2, 1, 2)
    structure = BlockStructure(sizes)
    first = structure.offsets
    for shift, ratio, seed in itertools.product((515, 518, 524, 527, 540), (tol / 10, 100 * tol),
                                                range(6)):
        rng = np.random.default_rng(seed)
        mat = complex_gaussian(rng, 6, structure.dim)
        u, _ = np.linalg.qr(mat[:, first[4]:first[4] + 2])
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mat[:, first[4]:first[4] + 2] = (u * [1.0, ratio]) @ hadamard
        mat[:, first[5]] = mat[:, first[3]] - 2 * mat[:, first[6]]
        mat[:, first[3]:] *= 2.0 ** -shift
        D = BlockDictionary(mat, structure)
        assert spark_exhaustive(D, tol=tol) == kernel_spark_oracle_blocks(D, tol), (shift, seed)


def test_screen_spares_generic_stacks_the_svd(monkeypatch):
    """On a generic dictionary the screen proves the probe's 3,003 square
    stacks full rank, and almost none are gathered for the SVD."""
    gathered = []

    def counting(D, cols):
        gathered.append(len(cols))
        return column_stacks(D, cols)

    monkeypatch.setattr(coherence, "column_stacks", counting)
    D = unit_norm_dict(8, 14, 1)
    assert spark_exhaustive(D) == 9
    assert sum(gathered) <= 30


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -300, 2.0 ** 300])
def test_screen_reads_gram_tiles(monkeypatch, scale):
    """Every batch reaches np.linalg.cholesky as the Gram tiles of D.unit:
    off the diagonal equal entry for entry to gram[cols][:, :, cols], on it
    1 + s times that, with s = 4 M (2M + 1) eps, on a dictionary with mixed
    block sizes, exact zeros and a real block.  The gram is that of the
    unscaled dictionary's unit, so every scale gives the same tiles."""
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    mat[:, :3] = np.eye(6)[:, :3]
    mat[:, 4] = -mat[:, 4].real
    structure = BlockStructure((1, 2, 1, 3, 1, 2))
    D = BlockDictionary(mat * scale, structure)
    calls, batches = recording_cholesky(monkeypatch)
    for k in below_width_bound(D):
        coherence._deficient(D, k, coherence.SPARK_DEFICIENCY_TOL)
    assert calls and len(calls) == len(batches)
    unit = BlockDictionary(mat, structure).unit
    gram = unit.conj().T @ unit
    shift = 1 + 4 * 6 * (2 * 6 + 1) * np.finfo(float).eps
    for cols, tiles, _ in calls:
        expected = gram[cols[:, :, None], cols[:, None, :]]
        diagonal = np.arange(cols.shape[1])
        expected[:, diagonal, diagonal] *= shift
        assert np.array_equal(tiles, expected)


@pytest.mark.parametrize("sizes", [(1,) * 8, (2, 1, 2, 1, 1, 1)])
def test_nan_pivot_reads_unproven(monkeypatch, sizes):
    """A factor whose pivot is NaN, as one of a tile with an infinite trace,
    proves nothing: the stack of that row, and only it, is gathered for the
    SVD, while the screen proves the rest of its batch full rank."""
    rng = np.random.default_rng(4)
    structure = BlockStructure(sizes)
    mat = rng.standard_normal((8, structure.dim)) + 1j * rng.standard_normal((8, structure.dim))
    D = BlockDictionary(mat, structure)
    k, row = 3, 2
    first = next(coherence.support_stacks(D, k))[1]
    cholesky = np.linalg.cholesky
    calls, gathered = [], []

    def poisoned(a):
        L = cholesky(a)
        if not calls:
            L[row, 1, 1] = np.nan
        calls.append(len(a))
        return L

    def counting(D, cols):
        gathered.extend(map(tuple, cols.tolist()))
        return column_stacks(D, cols)

    monkeypatch.setattr(np.linalg, "cholesky", poisoned)
    monkeypatch.setattr(coherence, "column_stacks", counting)
    assert not coherence._deficient(D, k, coherence.SPARK_DEFICIENCY_TOL)
    assert calls[0] == len(first) > row
    assert gathered == [tuple(first[row].tolist())]


@pytest.mark.parametrize("n", [4, 8, 9])
def test_picket_fence_spark(n):
    """The identity/DFT pair meets the uncertainty relation's spark bound
    2 sqrt(n) (rounded up): a picket fence of n / d spikes spaced by a
    divisor d of n has a DFT of d spikes spaced by n / d, a kernel vector on
    d + n / d blocks, and d = 2 for n = 4 and 8, 3 for n = 9 reach it."""
    assert spark_exhaustive(identity_dft_pair(n)) == math.ceil(2 * math.sqrt(n))


@pytest.mark.parametrize("n", [5, 7, 11, 13, 17, 19])
def test_prime_multicoset_spark_is_chebotarevs(n):
    """Chebotarev's theorem: every square minor of the DFT matrix of prime
    order n is nonzero.  Any m < n coset rows over the n spectral cells keep
    every m x m minor nonzero, so any m columns are independent and any
    m + 1 are not: spark m + 1, for three random row sets per n."""
    rng = np.random.default_rng(n)
    for m in rng.integers(1, n, 3).tolist():
        rows = tuple(rng.choice(np.arange(1, n + 1), m, replace=False).tolist())
        assert spark_exhaustive(multicoset_matrix(MultiCosetSpec(n, rows))) == m + 1, rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_identity_dft_spark_is_taos(p):
    """Tao's uncertainty principle for the cyclic group of prime order p
    (2005): |supp x| + |supp Fx| >= p + 1 for x != 0, so a kernel vector of
    [I | F] occupies at least p + 1 blocks, and p + 1 columns in p rows are
    dependent: spark p + 1, the width bound itself."""
    assert spark_exhaustive(identity_dft_pair(p)) == p + 1


@pytest.mark.parametrize("tol", [1.0, 1.5, math.inf])
def test_tolerance_of_one_or_more_rejected(tol):
    D = BlockDictionary(np.eye(4), uniform_structure(4))
    with pytest.raises(ValueError, match="below 1"):
        spark_exhaustive(D, tol=tol)


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
        assert math.isinf(rep.spark) and math.isinf(rep.threshold_spark)
        assert rep.spark_bound_ok()
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
        assert rep.spark is None and rep.threshold_spark is None
        assert rep.spark_bound_ok() is None
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


def spark_law_dictionary(shape, sizes, extra_rows, seed):
    """Small random unit-column dictionaries: generic (few rows, so often a
    nontrivial kernel), tall and injective, or orthonormal columns plus a tiny
    perturbation, so that mu_h < 1/n and 1 + 1/mu_h exceeds n + 1."""
    rng = np.random.default_rng(seed)
    structure = BlockStructure(tuple(sizes))
    cols = structure.dim
    rows = {"generic": max(sizes) + extra_rows, "tall": 3 * cols,
            "near-orthogonal": cols + extra_rows}[shape]
    mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if shape == "near-orthogonal":
        mat = np.linalg.qr(mat)[0] + 1e-3 / cols * mat
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    return BlockDictionary(mat, structure)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(["generic", "tall", "near-orthogonal"]),
       sizes=st.lists(st.integers(1, 2), min_size=2, max_size=6),
       extra_rows=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_one_spark_law(shape, sizes, extra_rows, seed):
    """spark >= 1 + 1/mu_h holds, and the spark guarantee of guarantee_check
    holds for exactly the levels run_certify reports, trivial kernels included."""
    D = spark_law_dictionary(shape, sizes, extra_rows, seed)
    rep = coherence_report(D)
    assert rep.spark_bound_ok()
    top = run_certify(D)["max_guaranteed_s_spark"]
    for s in range(D.n_blocks + 1):
        assert guarantee_check(rep, s)[0] == (s <= top)


def family_oracle(D):
    """Reference mu_h, mu_block and nu: cross_block_norm per ordered pair and
    a Gram loop per block, on uniform blocks with equal column norms."""
    n, d = D.n_blocks, D.structure.sizes[0]
    smin = [np.linalg.svd(D.block(i), compute_uv=False)[-1] for i in range(n)]
    scale = np.mean(np.linalg.norm(D.matrix, axis=0) ** 2)
    pairs = [(i, cross_block_norm(D, i, j)) for i, j in itertools.permutations(range(n), 2)]
    mu_h = max(cross / smin[i] ** 2 for i, cross in pairs)
    nu = 0.0
    for i in range(n):
        gram = np.abs(D.block(i).conj().T @ D.block(i))
        np.fill_diagonal(gram, 0.0)
        nu = max(nu, gram.max() / scale)
    return mu_h, max(cross for _, cross in pairs) / scale / d, nu


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["equal", "unequal", "mixed"]), rows=st.integers(3, 8),
       d=st.integers(1, 3), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_report_family_matches_oracle(kind, rows, d, n, seed):
    """On uniform blocks with equal column norms the report's mu_h, mu_block
    and nu match the oracle and mu_h <= mu_hat; otherwise the family is None."""
    assume(rows >= d + (kind == "mixed"))
    rng = np.random.default_rng(seed)
    sizes = (d,) * n if kind != "mixed" else (d + 1,) + (d,) * (n - 1)
    shape = (rows, sum(sizes))
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat *= rng.uniform(0.5, 3.0) / np.linalg.norm(mat, axis=0)
    if kind == "unequal":
        mat[:, -1] *= 1.5
    D = BlockDictionary(mat, BlockStructure(sizes))
    rep = coherence_report(D, compute_spark=False)
    if kind != "equal":
        assert rep.mu_block is None and rep.nu is None and rep.mu_hat is None
        return
    assert (rep.mu_h, rep.mu_block, rep.nu) == pytest.approx(family_oracle(D), rel=0, abs=1e-12)
    if rep.mu_hat is not None:
        assert rep.mu_h <= rep.mu_hat + 1e-9


def test_report_builds_one_gram_product(monkeypatch):
    """Every report, certify document and mu_h of a dictionary reads one Gram product."""
    import hsparse.blocks
    built = []
    monkeypatch.setattr(hsparse.blocks, "cross_gram",   # the name cross_gram is looked up by
                        lambda *args: built.append(args) or cross_gram(*args))
    dicts = [random_block_dictionary(12, (2,) * 6, 1), identity_dft_pair(4),
             BlockDictionary(np.random.default_rng(8).standard_normal((6, 5)),
                             BlockStructure((2, 3)))]
    for D in dicts:
        coherence_report(D)
        run_certify(D, compute_spark=False)
        hilbert_coherence(D)
    assert built == [(D,) for D in dicts]


def test_cross_gram_is_the_shared_read_only_value():
    D = random_block_dictionary(10, (2,) * 5, 4)
    value = D.cross_gram
    assert value is D.cross_gram
    gram = D.matrix.conj().T @ D.matrix
    np.testing.assert_array_equal(value.gram, gram)
    bounds = value.bounds.copy()
    frobenius = [[np.linalg.norm(D.block(i).conj().T @ D.block(j)) for j in range(5)]
                 for i in range(5)]
    np.testing.assert_allclose(bounds, frobenius, rtol=1e-13)
    assert np.array_equal(bounds, bounds.T) and np.all(bounds >= tile_table(D))
    for array in (value.gram, value.bounds, D.unit, D.unit_sigma):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        value.bounds[0, 0] = 0.0
    coherence_report(D, compute_spark=False)   # mu_h and mu_block mask pairs, never write
    assert D.cross_gram is value
    np.testing.assert_array_equal(value.gram, gram)
    np.testing.assert_array_equal(value.bounds, bounds)


# ------------------------------------------------ maxima without the table

def tile_table(D1, D2=None):
    """Every tile norm of D1.cross_gram (D2 None) or cross_gram(D1, D2), in unit's units."""
    grams = D1.cross_gram if D2 is None else cross_gram(D1, D2)
    i, j = np.indices(grams.bounds.shape).reshape(2, -1)
    return grams.norms(i, j).reshape(grams.bounds.shape)


def table_mu_h(D):
    """mu_h read off the whole table, as hilbert_coherence computed it before."""
    scaled = tile_table(D) / D.unit_sigma[:, :1] ** 2
    return float(scaled[~np.eye(D.n_blocks, dtype=bool)].max())


def table_mu_block(D):
    """mu_block read off the whole table, with block_coherences' scaling."""
    scale = float(np.mean(np.linalg.norm(D.unit, axis=0) ** 2))
    raw = float(tile_table(D)[np.triu_indices(D.n_blocks, 1)].max())
    return raw / scale / D.structure.sizes[0]


def table_mutual(D1, D2):
    scale = np.outer(D1.unit_sigma[:, 0], D2.unit_sigma[:, 0])
    return float((tile_table(D1, D2) / scale).max())


block_size_lists = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(2, 12)).map(lambda t: (t[0],) * t[1]),
    st.lists(st.integers(1, 4), min_size=2, max_size=12).map(tuple))


def complex_gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def structured_matrix(kind, sizes, extra_rows, seed):
    """A matrix for the block sizes: Gaussian, Gaussian with unit columns,
    Gaussian scaled by 2^-280 (squares of D's own Gram entries underflow),
    Gaussian with block 0 repeated as a last block, or a phased permutation
    (mutually orthogonal blocks, every cross tile exactly 0)."""
    rng = np.random.default_rng(seed)
    cols = sum(sizes)
    if kind == "orthogonal":
        phases = np.exp(2j * np.pi * rng.random(cols))
        return np.eye(cols)[:, rng.permutation(cols)] * phases, sizes
    mat = complex_gaussian(rng, max(sizes) + extra_rows, cols)
    if kind == "duplicated":
        mat, sizes = np.hstack([mat, mat[:, :sizes[0]]]), sizes + sizes[:1]
    if kind in ("unit", "duplicated"):
        mat /= np.linalg.norm(mat, axis=0)
    return mat * 2.0 ** -280 if kind == "tiny" else mat, sizes


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gaussian", "unit", "tiny", "duplicated", "orthogonal",
                            "identity_dft"]),
       sizes=block_size_lists, extra_rows=st.integers(0, 8), n=st.integers(2, 32),
       seed=st.integers(0, 2**32 - 1))
@example(kind="tiny", sizes=(2, 1, 3, 2, 2, 1, 3, 2, 1, 2, 3, 1), extra_rows=3, n=2, seed=0)
def test_maxima_equal_the_table_bit_for_bit(kind, sizes, extra_rows, n, seed):
    """mu_h and mu_block equal the whole table's maxima exactly, for any block
    sizes, single columns, exact ties (identity/DFT columns cut into blocks of
    the first drawn size), duplicated blocks, underflowing and all-zero bounds."""
    if kind == "identity_dft":
        d, n = sizes[0], max(n, sizes[0])
        mat = identity_dft_pair(n).matrix[:, :2 * n // d * d]
        sizes = (d,) * (2 * n // d)
    else:
        mat, sizes = structured_matrix(kind, sizes, extra_rows, seed)
    D = BlockDictionary(mat, BlockStructure(sizes))
    assert hilbert_coherence(D) == table_mu_h(D)
    try:
        mu_block = block_coherences(D)[0]
    except ValueError:   # the family needs uniform sizes and equal column norms
        return
    assert mu_block == table_mu_block(D)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["gaussian", "regrouped", "identity_dft"]),
       sizes1=block_size_lists, sizes2=block_size_lists, extra_rows=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_mutual_maximum_equals_the_table_bit_for_bit(kind, sizes1, sizes2, extra_rows, seed):
    """Two dictionaries with different structures: Gaussian, the same columns
    cut two ways, or identity against DFT columns (exact ties)."""
    rows = max(sizes1 + sizes2) + extra_rows
    rng = np.random.default_rng(seed)
    if kind == "identity_dft":
        rows = max(rows, sum(sizes1), sum(sizes2))
        mat1 = np.eye(rows)[:, :sum(sizes1)]
        mat2 = identity_dft_pair(rows).matrix[:, rows:rows + sum(sizes2)]
    else:
        mat1 = complex_gaussian(rng, rows, sum(sizes1))
        mat2 = complex_gaussian(rng, rows, sum(sizes2))
        if kind == "regrouped":   # sizes2 cut over mat1's columns, repeated as needed
            mat2 = np.hstack([mat1] * (sum(sizes2) // sum(sizes1) + 1))[:, :sum(sizes2)]
    try:
        D1 = BlockDictionary(mat1, BlockStructure(sizes1))
        D2 = BlockDictionary(mat2, BlockStructure(sizes2))
    except ValueError:   # a regrouped block may repeat a column
        assume(False)
    assert mutual_hilbert_coherence(D1, D2) == table_mutual(D1, D2)


def test_prune_sends_few_tiles_to_the_svd(monkeypatch):
    """On 64 blocks of 4 columns the bounds keep most of the 2,016 upper tiles
    from the SVD, and single columns gather no tile at all."""
    import hsparse.blocks
    D = random_block_dictionary(64, (4,) * 64, 1)
    expected = {hilbert_coherence: table_mu_h(D), block_coherences: table_mu_block(D)}
    svd, norms = np.linalg.svd, hsparse.blocks.CrossGram.norms
    tiles, gathers = [], []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: tiles.append(len(a)) or svd(a, *args, **kw))
    monkeypatch.setattr(hsparse.blocks.CrossGram, "norms",
                        lambda self, i, j: gathers.append(len(i)) or norms(self, i, j))
    for measure, value in expected.items():
        tiles.clear()
        result = measure(D)
        assert (result if measure is hilbert_coherence else result[0]) == value
        assert 0 < sum(tiles) < 0.15 * 64 * 63 / 2
    gathers.clear()
    coherence_report(identity_dft_pair(16), compute_spark=False)
    mutual_hilbert_coherence(unit_norm_dict(6, 9, 1), unit_norm_dict(6, 5, 2))
    assert gathers == []


def flat_tiles_dictionary(targets, c=0.5, flat=20, scale=1.0):
    """Unit columns times scale, in blocks of 2.  Block 0 is (e_1, e_2);
    blocks 1..flat have cross tiles c I_2 with it (spectral norm c, bound
    c sqrt 2), and each target (p, q, r, t) adds a block whose tile with
    block 0 is [[p, q], [r, t]].  Each other column entry sits on a row of
    the column's own."""
    rows = 2 * (1 + flat + len(targets))
    mat = np.zeros((rows, rows))
    mat[[0, 1], [0, 1]] = 1.0
    for k, (p, q, r, t) in enumerate([(c, 0.0, 0.0, c)] * flat + list(targets)):
        col = 2 + 2 * k
        mat[:2, col:col + 2] = [[p, q], [r, t]]
        mat[col, col] = np.sqrt(1 - p * p - r * r)
        mat[col + 1, col + 1] = np.sqrt(1 - q * q - t * t)
    return BlockDictionary(mat * scale, uniform_structure(rows // 2, 2))


def test_maximum_behind_many_larger_bounds():
    """Twenty flat tiles c I_2 outrank, by bound, the rank-one tile that
    holds both maxima, so the pairs evaluated first miss it and the pruned
    rest must find it."""
    s = 0.4
    D = flat_tiles_dictionary([(s, s, 0.0, 0.0)])
    mu_h = hilbert_coherence(D)
    assert mu_h == table_mu_h(D)
    assert mu_h == pytest.approx(s * np.sqrt(2) / (1 - s * s), rel=1e-12)   # row block: the last
    mu_block = block_coherences(D)[0]
    assert mu_block == table_mu_block(D)
    assert mu_block == pytest.approx(s * np.sqrt(2) / 2, rel=1e-12)


def test_maximum_with_subnormal_bounds():
    """At scale 2^-266 unscaled squares of the Gram's entries would be
    subnormal, keeping about 8 significant bits.  Tile diag(a, t) is among
    the pairs evaluated first; the rank-one tile holding mu_block exceeds it
    by 1e-6 relative, so a bound that lost those bits would drop it."""
    a = 0.6
    s = a * (1 + 1e-6) / np.sqrt(2)
    D = flat_tiles_dictionary([(a, 0.0, 0.0, 0.45), (s, s, 0.0, 0.0)], scale=2.0 ** -266)
    assert block_coherences(D)[0] == table_mu_block(D)
    assert hilbert_coherence(D) == table_mu_h(D)


def test_maximum_with_subnormal_scaled_bounds():
    """The same tiles with every cross entry 2^-530 of the diagonal, at scale
    2^300: the squares of the unit Gram's cross entries are subnormal and
    keep about 8 significant bits.  The rank-one tile's bound may round below
    diag(a, t)'s norm, so only the absolute slack width * 2^-536 keeps it
    (without it the maxima are wrong at 2^-528 to 2^-531)."""
    a, tiny = 0.6, 2.0 ** -530
    s = a * (1 + 1e-6) / np.sqrt(2)
    D = flat_tiles_dictionary([(a * tiny, 0.0, 0.0, 0.45 * tiny), (s * tiny, s * tiny, 0.0, 0.0)],
                              c=0.5 * tiny, scale=2.0 ** 300)
    assert block_coherences(D)[0] == table_mu_block(D)
    assert hilbert_coherence(D) == table_mu_h(D)


def scaled(D, k):
    return BlockDictionary(D.matrix * 2.0 ** k, D.structure)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["columns", "uniform", "mixed"]), n=st.integers(2, 8),
       extra_rows=st.integers(0, 4), other=st.sampled_from([(1, 1, 1), (2,), (2, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_coherences_are_scale_free(kind, n, extra_rows, other, seed):
    """mu_h, the mutual coherence against a second dictionary, the composite
    family and the spark of D * 2^k equal those of D bit for bit, for k at
    which squaring a Gram entry of D would overflow (270, 500) or underflow
    (-280, -500), and at which D^H D itself would (540, 600, -540, -600)."""
    rng = np.random.default_rng(seed)
    sizes = {"columns": (1,) * n, "uniform": (2,) * n,
             "mixed": tuple(rng.integers(1, 4, n).tolist())}[kind]
    rows = max(sizes + other) + extra_rows
    mats = [complex_gaussian(rng, rows, sum(part)) for part in (sizes, other)]
    mats[0] /= np.linalg.norm(mats[0], axis=0)   # equal column norms: the family applies
    D, E = (BlockDictionary(mat, BlockStructure(part)) for mat, part in zip(mats, (sizes, other)))

    def measures(D, E):
        family = block_coherences(D) if kind != "mixed" else ()
        return [hilbert_coherence(D), mutual_hilbert_coherence(D, E), spark_exhaustive(D),
                *(-1.0 if value is None else value for value in family)]

    reference = measures(D, E)
    for k in (-600, -540, -500, -280, 270, 500, 540, 600):
        assert measures(scaled(D, k), scaled(E, k)) == reference, k


@pytest.mark.parametrize("compute_spark", [True, False])
def test_entries_near_the_float_limit_certify(compute_spark):
    """Entries near 1.5e308 construct and certify without a warning: the
    dictionary keeps no singular value in D's own units, where a block's
    sigma_min of about 2.1e308 would overflow."""
    mat = np.array([[1.5e308, 0.75e308], [1.5e308, -1.5e308], [0, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = run_certify(BlockDictionary(mat, uniform_structure(2)), compute_spark=compute_spark)
    assert doc["mu_h"] == pytest.approx(0.25, rel=1e-15)
    assert doc["spark"] == ("trivial-kernel" if compute_spark else "not-computed")
