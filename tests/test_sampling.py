import numpy as np
import pytest

from qlogent import linalg as la
from qlogent import sampling as sp
from qlogent import states as qs


class TestSampleDensity:
    def test_valid_density(self):
        for seed in range(20):
            rho = sp.sample_density(seed, 4)
            assert la.hermiticity_defect(rho.mat) <= 1e-12
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
            assert float(np.min(rho.eigenvalues())) >= -1e-12

    def test_rank_one_is_pure(self):
        for seed in range(10):
            rho = sp.sample_density(seed, 4, rank=1)
            assert qs.logical_entropy(rho) <= 1e-9

    def test_deterministic(self):
        a = sp.sample_density(123, 3)
        b = sp.sample_density(123, 3)
        assert np.array_equal(a.mat, b.mat)
        c = sp.sample_density(124, 3)
        assert not np.array_equal(a.mat, c.mat)

    def test_mean_purity_matches_bootstrap_oracle(self):
        # independent bootstrap oracle: direct batched Ginibre construction
        oracle_rng = np.random.default_rng(987654321)
        n = 10**6
        g = oracle_rng.normal(size=(n, 2, 2)) + 1j * oracle_rng.normal(size=(n, 2, 2))
        rhos = g @ g.conj().transpose(0, 2, 1)
        traces = np.real(np.einsum("nii->n", rhos))
        purities = np.real(np.einsum("nij,nji->n", rhos, rhos)) / traces**2
        oracle_mean = float(np.mean(purities))
        oracle_std = float(np.std(purities))

        samples = np.array(
            [qs.purity(sp.sample_density(seed, 2)) for seed in range(10**4)]
        )
        sigma = oracle_std / np.sqrt(samples.size)
        assert abs(float(np.mean(samples)) - oracle_mean) <= 3 * sigma


class TestSampleUnitary:
    def test_dim_one_phase(self):
        u = sp.sample_unitary(0, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity_defect(self):
        for seed in range(20):
            for d in (2, 3, 4, 8):
                u = sp.sample_unitary(seed, d)
                assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-9

    def test_deterministic(self):
        assert np.array_equal(sp.sample_unitary(7, 4), sp.sample_unitary(7, 4))


class TestSamplePvm:
    def test_coarse_groups(self):
        pvm = sp.sample_pvm(0, 4, [2, 2])
        assert pvm.blocks.shape[0] == 2
        assert not pvm.non_degenerate
        for b in pvm.blocks:
            assert abs(np.trace(b).real - 2.0) <= 1e-9

    def test_fine_default(self):
        pvm = sp.sample_pvm(0, 3)
        assert pvm.blocks.shape[0] == 3
        assert pvm.non_degenerate

    def test_residuals(self):
        for seed in range(10):
            pvm = sp.sample_pvm(seed, 4, [1, 3] if seed % 2 else None)
            total = sum(pvm.blocks)
            assert np.max(np.abs(total - np.eye(4))) <= 1e-9
            for i, b in enumerate(pvm.blocks):
                assert np.max(np.abs(b @ b - b)) <= 1e-9
                for c in pvm.blocks[i + 1:]:
                    assert np.max(np.abs(b @ c)) <= 1e-9

    def test_invalid_grouping(self):
        with pytest.raises(ValueError):
            sp.sample_pvm(0, 4, [3, 2])


class TestStreamSplitting:
    def test_streams_are_independent_of_each_other(self):
        a = sp.rng_for(1, 10).standard_normal(4)
        b = sp.rng_for(1, 11).standard_normal(4)
        assert not np.allclose(a, b)

    def test_stream_reproducible(self):
        a = sp.rng_for(5, 1, 2, 3).standard_normal(8)
        b = sp.rng_for(5, 1, 2, 3).standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_is_rejected(self, seed):
        sp.rng_for(2**64 - 1)
        with pytest.raises(ValueError, match="seed"):
            sp.rng_for(seed)

    def test_words_after_the_third_change_the_stream(self):
        a = sp.rng_for(1, 1, 2, 3, 4).standard_normal(4)
        b = sp.rng_for(1, 1, 2, 3, 5).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_trailing_zero_word_changes_the_stream(self):
        a = sp.rng_for(1).standard_normal(4)
        b = sp.rng_for(1, 0).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_trial_index_changes_bipartite_sample(self):
        # the per-trial call pattern of the bipartite sampler: the trial is the last word
        mats = [sp.sample_density(42, 6, None, 0xAB, 2, 3, t).mat for t in range(4)]
        assert all(not np.array_equal(mats[0], m) for m in mats[1:])
        rows = sp.sample_densities(42, 4, 6, None, 0xAB, 2, 3)
        assert all(not np.array_equal(rows[0], r) for r in rows[1:])

    def test_trial_index_changes_pvm(self):
        blocks = [sp.sample_pvm(42, 3, None, 0x33, t).blocks[0] for t in range(4)]
        assert all(not np.array_equal(blocks[0], b) for b in blocks[1:])

    @pytest.mark.parametrize(
        "draw",
        [
            lambda n: sp.sample_densities(5, n, 3, None, 7),
            lambda n: sp.sample_densities(5, n, 4, 1, 7),
            lambda n: sp.sample_state_vectors(5, n, 3, 7),
            lambda n: sp.sample_unitaries(5, n, 3, 7),
            lambda n: sp.sample_weight_vectors(5, n, 3, 7),
            lambda n: sp.sample_ragged_weights(5, n, 7),
            lambda n: sp.sample_unital_channels(5, n, 3, 7)[1],
            lambda n: sp.sample_unital_channels(5, n, 3, 7)[2],
            lambda n: sp.sample_orthogonal_support_mixtures(5, n, [2, 3], 7)[1],
        ],
    )
    def test_first_rows_do_not_depend_on_batch_size(self, draw):
        full = draw(40)
        for n in (1, 3, 17):
            assert np.array_equal(draw(n), full[:n])

    def test_single_samplers_are_the_first_batch_row(self):
        rho = sp.sample_density(5, 3, None, 7).mat
        assert np.array_equal(rho, sp.sample_densities(5, 1, 3, None, 7)[0])
        assert np.array_equal(sp.sample_unitary(5, 3, 7), sp.sample_unitaries(5, 1, 3, 7)[0])
        psi = sp.sample_state_vector(5, 3, 7)
        assert np.array_equal(psi, sp.sample_state_vectors(5, 1, 3, 7)[0])

    def test_ragged_weights_have_two_to_four_terms(self):
        w = sp.sample_ragged_weights(2, 500, 9)
        assert np.allclose(np.sum(w, axis=1), 1.0, atol=1e-12)
        assert set(np.count_nonzero(w, axis=1)) == {2, 3, 4}

    def test_orthogonal_support_mixture(self):
        w, parts = sp.sample_orthogonal_support_mixtures(3, 1, [2, 3])
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12
        assert parts.shape == (1, 2, 5, 5)
        # supports do not overlap
        assert np.max(np.abs(parts[0, 0] @ parts[0, 1])) <= 1e-12

    def test_unital_channel_families(self):
        mixing, kraus, bases = sp.sample_unital_channels(4, 40, 3)
        # both unitary-mixture and dephasing families appear
        assert set(mixing) == {True, False}
        completeness = np.sum(la.dagger(kraus) @ kraus, axis=1)
        assert np.max(np.abs(completeness - np.eye(3))) <= 1e-12
        assert all(la.is_unitary(v) for v in bases)
