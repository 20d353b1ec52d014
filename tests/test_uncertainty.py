import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsparse import (BlockDictionary, BlockStructure, BlockVector, NumericalAnomaly,
                     best_concentration_set, complex_standard_normal,
                     concentration_epsilon, fourier_basis, gup_audit,
                     identity_basis, identity_dft_pair, kernel_sample,
                     kernel_uncertainty_audit, mutual_hilbert_coherence,
                     picket_fence, random_block_dictionary, uniform_structure)


class TestKernelSample:
    def test_injective_dictionary_rejected(self):
        D = identity_basis(4)
        with pytest.raises(ValueError, match="trivial kernel"):
            kernel_sample(D, 0)

    def test_sample_lies_in_kernel(self):
        D = identity_dft_pair(8)
        v = kernel_sample(D, 5)
        assert v.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(D.matrix @ v.entries) <= 1e-10

    def test_deterministic_per_seed(self):
        D = identity_dft_pair(8)
        assert np.array_equal(kernel_sample(D, 3).entries,
                              kernel_sample(D, 3).entries)
        assert not np.array_equal(kernel_sample(D, 3).entries,
                                  kernel_sample(D, 4).entries)


class TestKernelAudit:
    def test_spark_witness_profile_entry(self):
        # [I|F] at n=4: a kernel vector supported on 4 blocks exists; for
        # k = 4 its best set is its support, epsilon 0, bound (1)(1+2) = 3.
        D = identity_dft_pair(4)
        comb = np.zeros(4, dtype=complex)
        comb[::2] = 1.0
        f = D.matrix[:, 4:]
        v = BlockVector(np.concatenate([comb, -(f.conj().T @ comb)]), D.structure)
        assert np.linalg.norm(D.matrix @ v.entries) <= 1e-12
        profile = kernel_uncertainty_audit(D, v)
        row = profile[3]
        assert row.k == 4
        assert row.epsilon == pytest.approx(0.0, abs=1e-12)
        assert row.bound == pytest.approx(3.0, abs=1e-9)
        assert row.holds

    def test_full_profile_holds_for_sampled_kernels(self):
        D = identity_dft_pair(8)
        for seed in range(20):
            profile = kernel_uncertainty_audit(D, kernel_sample(D, seed))
            assert len(profile) == 16
            assert all(row.holds for row in profile)

    def test_holds_on_random_fat_dictionaries(self):
        for seed in range(5):
            D = random_block_dictionary(6, (2,) * 6, seed)   # 12 cols, 6 rows
            for draw in range(10):
                profile = kernel_uncertainty_audit(D, kernel_sample(D, draw))
                assert all(row.holds for row in profile)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(4, 8), sizes=st.lists(st.integers(1, 3), min_size=3, max_size=8),
           normalize=st.sampled_from(["columns", "none"]),
           seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 2**32 - 1))
    def test_kernel_samples_hold_on_random_fat_dictionaries(self, rows, sizes, normalize,
                                                           seed, draw):
        """Every row of every sampled kernel vector's profile holds, on fat
        dictionaries with blocks of 1-3 columns and unnormalized ones too."""
        assume(sum(sizes) > rows)
        D = random_block_dictionary(rows, tuple(sizes), seed, normalize=normalize)
        profile = kernel_uncertainty_audit(D, kernel_sample(D, draw))
        assert [row.k for row in profile] == list(range(1, len(sizes) + 1))
        assert all(row.holds for row in profile)

    def test_non_kernel_vector_rejected(self):
        D = identity_dft_pair(4)
        v = BlockVector(np.ones(8), D.structure)
        with pytest.raises(ValueError, match="not a kernel vector"):
            kernel_uncertainty_audit(D, v)

    def test_zero_vector_rejected(self):
        D = identity_dft_pair(4)
        with pytest.raises(ValueError, match="zero vector"):
            kernel_uncertainty_audit(D, BlockVector(np.zeros(8), D.structure))

    def test_mismatched_structure_rejected(self):
        D = identity_dft_pair(4)
        v = BlockVector(kernel_sample(D, 0).entries, BlockStructure((2,) * 4))
        with pytest.raises(ValueError, match="different block structures"):
            kernel_uncertainty_audit(D, v)

    @pytest.mark.parametrize("k", [-200, -60, 60, 200])
    def test_kernel_test_is_scale_free(self, k):
        """The kernel test reads D.unit, so D 2^k accepts its own kernel sample
        with D's profile and rejects the vector of
        test_non_kernel_vector_rejected, where a test in D's own units would
        reject the sample at 2^60 and accept that vector at 2^-60."""
        D = identity_dft_pair(16)
        reference = kernel_uncertainty_audit(D, kernel_sample(D, 3))
        scaled = BlockDictionary(D.matrix * 2.0 ** k, D.structure)
        assert kernel_uncertainty_audit(scaled, kernel_sample(scaled, 3)) == reference
        small = identity_dft_pair(4)
        small = BlockDictionary(small.matrix * 2.0 ** k, small.structure)
        with pytest.raises(ValueError, match="not a kernel vector"):
            kernel_uncertainty_audit(small, BlockVector(np.ones(8), small.structure))


class TestGupAudit:
    def test_self_representation_in_identity(self):
        I4 = identity_basis(4)
        u = BlockVector(np.array([1.0, 0, 2.0, 0]), I4.structure)
        audit = gup_audit(I4, I4, u, u, (0, 2), (0, 2))
        assert audit.mu_phi == pytest.approx(0.0, abs=1e-14)
        assert audit.mu_mutual == pytest.approx(1.0, abs=1e-12)
        assert audit.rhs == pytest.approx(1.0, abs=1e-9)
        assert audit.lhs == 4
        assert audit.holds

    def test_two_orthonormal_bases_reduce_to_inverse_square(self):
        n = 16
        I, F = identity_basis(n), fourier_basis(n)
        u, v, U, V = picket_fence(n)
        audit = gup_audit(I, F, u, v, U, V)
        mu = mutual_hilbert_coherence(I, F)
        assert audit.eps_u == pytest.approx(0.0, abs=1e-12)
        assert audit.rhs == pytest.approx(1.0 / mu**2, abs=1e-12 / mu**2)

    @pytest.mark.parametrize("n", [4, 9, 16, 25])
    def test_picket_fence_achieves_equality(self, n):
        I, F = identity_basis(n), fourier_basis(n)
        u, v, U, V = picket_fence(n)
        audit = gup_audit(I, F, u, v, U, V)
        assert audit.lhs == n
        assert audit.rhs == pytest.approx(n, abs=1e-9)
        assert abs(audit.slack) <= 1e-9
        assert audit.holds

    def test_epsilons_recomputed_from_sets(self):
        I4 = identity_basis(4)
        u = BlockVector(np.array([3.0, 1.0, 0, 0]), I4.structure)
        audit = gup_audit(I4, I4, u, u, (1,), (0, 1))
        assert audit.eps_u == pytest.approx(concentration_epsilon(u, (1,)))
        assert audit.eps_u == pytest.approx(0.75)
        assert audit.eps_v == pytest.approx(0.0)

    def test_slack_weakly_increases_with_supersets(self):
        D = random_block_dictionary(8, (2,) * 6, 11)
        rng = np.random.default_rng(2)
        entries = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u = BlockVector(entries, D.structure)
        prev = None
        for upto in range(2, 7):
            audit = gup_audit(D, D, u, u, tuple(range(upto)), (0, 1))
            if prev is not None:
                assert audit.slack >= prev - 1e-9
            prev = audit.slack

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(4, 12), fat=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_holds_on_random_pairs_with_equal_images(self, rows, fat, seed):
        """u on a few blocks of D1 and v = pinv(D2) (D1 u), so D2 v = D1 u for
        D2 of full row rank, satisfy the product bound over random sets: a
        random part of u's blocks, and v's best set of a random size.

        D1 is a random unitary W with phased columns, D2 is W times a
        column-permuted DFT (beside W itself when fat); both are cut into
        random blocks of 1-2 columns.  W leaves every coherence as it is for
        the identity/Fourier pair, where the bound is tight (picket fences),
        so a real share of the draws test a bound that is not vacuous."""
        rng = np.random.default_rng(seed)
        w, _ = np.linalg.qr(complex_standard_normal(rng, (rows, rows)))
        m1 = w * np.exp(2j * np.pi * rng.random(rows))
        m2 = w @ fourier_basis(rows).matrix[:, rng.permutation(rows)]
        if fat:
            m2 = np.hstack([m2, w]) / np.sqrt(2)

        def cut(n):
            sizes = []
            while sum(sizes) < n:
                sizes.append(min(int(rng.integers(1, 3)), n - sum(sizes)))
            return BlockStructure(tuple(sizes))

        D1, D2 = BlockDictionary(m1, cut(rows)), BlockDictionary(m2, cut(m2.shape[1]))
        active = rng.random(D1.n_blocks) < 0.15
        active[rng.integers(D1.n_blocks)] = True
        mask = np.repeat(active, D1.structure.sizes)
        u = BlockVector(complex_standard_normal(rng, rows) * mask, D1.structure)
        v = BlockVector(np.linalg.pinv(D2.matrix) @ (D1.matrix @ u.entries), D2.structure)
        set_u = np.flatnonzero(active & (rng.random(D1.n_blocks) < 0.8)).tolist()
        set_v = best_concentration_set(v, int(rng.integers(D2.n_blocks + 1))).blocks
        audit = gup_audit(D1, D2, u, v, set_u, set_v)
        assert audit.holds and not audit.anomaly

    def test_mismatched_images_rejected(self):
        I4, F4 = identity_basis(4), fourier_basis(4)
        u = BlockVector(np.array([1.0, 0, 0, 0]), I4.structure)
        v = BlockVector(np.array([1.0, 0, 0, 0]), F4.structure)
        with pytest.raises(ValueError, match="images differ"):
            gup_audit(I4, F4, u, v, (0,), (0,))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-520, -40, 520])
    def test_image_match_is_scale_free(self, k):
        """On identity/Fourier n = 16 scaled by 2^k the picket fence gives the
        audit of k = 0, without a warning, and the fence with v rolled by one
        is rejected: the images are compared relative to the larger, in one
        power-of-two scale.  An absolute floor 1 accepted the rolled pair at
        2^-40, and squares in D's units overflow at 2^520."""
        n = 16
        u, v, U, V = picket_fence(n)
        I, F = identity_basis(n), fourier_basis(n)
        reference = gup_audit(I, F, u, v, U, V)
        I, F = (BlockDictionary(D.matrix * 2.0 ** k, D.structure) for D in (I, F))
        assert gup_audit(I, F, u, v, U, V) == reference
        rolled = BlockVector(np.roll(v.entries, 1), F.structure)
        with pytest.raises(ValueError, match="images differ"):
            gup_audit(I, F, u, rolled, U, V)

    def test_rounding_residue_images_match(self):
        """Columns a, a/10 and b, b/3 on orthogonal rows with u = (1, -10)
        and v = (1, -3): each image is rounding residue, 1.1e-16 in one
        entry, in different rows, so the gap is as large as the images.
        Measured against ||D1|| ||u|| and ||D2|| ||v|| the images match, and
        the audit flags the zero mutual coherence."""
        a = np.array([0.9, 0.2, 0.0, 0.0])
        b = np.roll(a, 2)
        Da = BlockDictionary(np.column_stack([a, a / 10]), uniform_structure(2))
        Db = BlockDictionary(np.column_stack([b, b / 3]), uniform_structure(2))
        u = BlockVector(np.array([1.0, -10.0]), Da.structure)
        v = BlockVector(np.array([1.0, -3.0]), Db.structure)
        img_u, img_v = Da.unit @ u.entries, Db.unit @ v.entries
        assert img_u.any() and img_v.any() and not (img_u * img_v).any()
        audit = gup_audit(Da, Db, u, v, (0, 1), (0, 1))
        assert audit.anomaly
        assert not audit.holds

    def test_orthogonal_ranges_flagged_anomalous(self):
        # both dictionaries have a kernel, so zero images satisfy the
        # matching-image hypothesis while the mutual coherence vanishes
        e1, e2 = np.eye(4)[:, 0], np.eye(4)[:, 1]
        Da = BlockDictionary(np.column_stack([e1, e1]), uniform_structure(2))
        Db = BlockDictionary(np.column_stack([e2, e2]), uniform_structure(2))
        u = BlockVector(np.array([1.0, -1.0]), Da.structure)
        v = BlockVector(np.array([1.0, -1.0]), Db.structure)
        audit = gup_audit(Da, Db, u, v, (0, 1), (0, 1))
        assert audit.anomaly
        assert not audit.holds
        assert math.isinf(audit.rhs)

    def test_zero_signal_rejected(self):
        I4 = identity_basis(4)
        z = BlockVector(np.zeros(4), I4.structure)
        u = BlockVector(np.ones(4), I4.structure)
        with pytest.raises(ValueError, match="nonzero"):
            gup_audit(I4, I4, z, u, (0,), (0,))

    def test_mismatched_structure_rejected(self):
        I4 = identity_basis(4)
        u = BlockVector(np.ones(4), I4.structure)
        pairs = BlockVector(np.ones(4), BlockStructure((2, 2)))
        for first, second in ((pairs, u), (u, pairs)):
            with pytest.raises(ValueError, match="block structures disagree"):
                gup_audit(I4, I4, first, second, (0,), (0,))


class TestPicketFence:
    @pytest.mark.parametrize("n", [4, 9, 16, 25])
    def test_images_match_exactly(self, n):
        u, v, U, V = picket_fence(n)
        F = fourier_basis(n).matrix
        assert np.linalg.norm(u.entries - F @ v.entries) <= 1e-12
        p = math.isqrt(n)
        assert len(U) == len(V) == p
        assert U == tuple(range(0, n, p))

    def test_transform_support_verified_independently(self):
        # oracle: count nonzero bins of the FFT of the comb directly
        n, p = 16, 4
        comb = np.zeros(n, dtype=complex)
        comb[::p] = 1.0
        spectrum = np.fft.fft(comb)
        assert np.count_nonzero(np.abs(spectrum) > 1e-10) == p
        _, v, _, V = picket_fence(n)
        assert np.count_nonzero(np.abs(v.entries) > 1e-10) == p
        assert V == tuple(int(i) for i in np.flatnonzero(np.abs(spectrum) > 1e-10))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            picket_fence(8)
        with pytest.raises(ValueError, match="perfect square"):
            picket_fence(1)
