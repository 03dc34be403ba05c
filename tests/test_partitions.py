import functools
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogent import partitions as pt
from qlogent.sampling import rng_for


def dit_count_oracle(p: pt.SetPartition) -> int:
    n = p.universe_size
    return sum(
        1
        for u, v in itertools.product(range(n), repeat=2)
        if p.block_of[u] != p.block_of[v]
    )


def partition_strategy(max_n=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )


class TestSetPartition:
    def test_canonical_labels(self):
        a = pt.SetPartition.from_labels([5, 5, 2, 2, 9])
        b = pt.SetPartition.from_labels([0, 0, 1, 1, 2])
        assert a == b

    def test_from_blocks(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        assert p.num_blocks == 3
        assert list(p.block_sizes()) == [2, 2, 2]

    def test_from_blocks_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            pt.SetPartition.from_blocks([[0, 1], [1, 2]])

    def test_refines(self):
        coarse = pt.SetPartition.from_blocks([[0, 1, 2], [3, 4, 5]])
        fine = pt.SetPartition.from_blocks([[0, 1], [2], [3, 4, 5]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)


class TestDitCount:
    def test_three_pair_blocks(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        assert pt.dit_count(p) == 24
        assert pt.dit_count(p) == dit_count_oracle(p)

    def test_indiscrete(self):
        p = pt.SetPartition.from_labels([0] * 6)
        assert pt.dit_count(p) == 0

    def test_discrete(self):
        p = pt.SetPartition.from_labels(range(6))
        assert pt.dit_count(p) == 30

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy())
    def test_against_pair_enumeration_oracle(self, labels):
        p = pt.SetPartition.from_labels(labels)
        assert pt.dit_count(p) == dit_count_oracle(p)


class TestPartitionEntropy:
    def test_three_equal_blocks(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        assert pt.partition_logical_entropy(p) == pytest.approx(2 / 3, abs=1e-15)

    def test_discrete_partition(self):
        for n in range(2, 8):
            p = pt.SetPartition.from_labels(range(n))
            assert pt.partition_logical_entropy(p) == pytest.approx(
                1 - 1 / n, abs=1e-15
            )

    def test_indiscrete_partition(self):
        p = pt.SetPartition.from_labels([0] * 5)
        assert pt.partition_logical_entropy(p) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy())
    def test_pair_count_matches_block_mass_formula(self, labels):
        p = pt.SetPartition.from_labels(labels)
        n = p.universe_size
        from_formula = 1 - float(np.sum((p.block_sizes() / n) ** 2))
        assert abs(pt.partition_logical_entropy(p) - from_formula) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy(), st.randoms(use_true_random=False))
    def test_refinement_monotonicity(self, labels, rnd):
        coarse = pt.SetPartition.from_labels(labels)
        # split every block into random sub-blocks: result refines the original
        fine_labels = [
            (coarse.block_of[u], rnd.randint(0, 1)) for u in range(coarse.universe_size)
        ]
        fine = pt.SetPartition.from_labels(fine_labels)
        assert fine.refines(coarse)
        assert pt.partition_logical_entropy(fine) >= pt.partition_logical_entropy(
            coarse
        )


class TestDistributionEntropy:
    def test_uniform(self):
        for d in range(2, 9):
            assert pt.distribution_logical_entropy(np.full(d, 1 / d)) == pytest.approx(
                1 - 1 / d, abs=1e-12
            )

    def test_deterministic(self):
        assert pt.distribution_logical_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_two_draw_collision_enumeration(self):
        p = np.array([0.5, 0.25, 0.25])
        distinct = sum(
            pi * pj
            for i, pi in enumerate(p)
            for j, pj in enumerate(p)
            if i != j
        )
        assert pt.distribution_logical_entropy(p) == pytest.approx(0.625, abs=1e-15)
        assert pt.distribution_logical_entropy(p) == pytest.approx(
            distinct, abs=1e-15
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(5))
        base = pt.distribution_logical_entropy(p)
        for _ in range(10):
            assert pt.distribution_logical_entropy(rng.permutation(p)) == pytest.approx(
                base, abs=1e-12
            )

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            pt.distribution_logical_entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            pt.distribution_logical_entropy([1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        pair = pt.SetPartition.from_labels([0, 1])
        for call in (
            pt.distribution_logical_entropy,
            lambda q: pt.block_mass_entropy(pair, q),
            lambda q: pt.two_draw_distinction_mc(q, 10, 1),
        ):
            for q in ([bad, 1.0], [0.5, bad]):
                with pytest.raises(ValueError, match="finite"):
                    call(q)

    def test_block_mass_entropy_reduces_to_partition_entropy(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        uniform = np.full(6, 1 / 6)
        assert pt.block_mass_entropy(p, uniform) == pytest.approx(
            pt.partition_logical_entropy(p), abs=1e-12
        )


class TestTwoDrawMc:
    def test_deterministic_distribution(self):
        assert pt.two_draw_distinction_mc([1.0, 0.0], trials=1000, seed=1) == 0.0

    def test_deterministic_distribution_over_two_chunks(self):
        assert pt.two_draw_distinction_mc([1.0, 0.0], trials=pt.MC_CHUNK + 1, seed=1) == 0.0

    def test_uniform_two_within_ci(self):
        trials = 10**6
        est = pt.two_draw_distinction_mc([0.5, 0.5], trials=trials, seed=123)
        sigma = np.sqrt(0.25 / trials)
        assert abs(est - 0.5) <= 3 * sigma

    def test_skewed_within_ci(self):
        trials = 10**6
        est = pt.two_draw_distinction_mc([0.5, 0.25, 0.25], trials=trials, seed=77)
        sigma = np.sqrt(0.625 * 0.375 / trials)
        assert abs(est - 0.625) <= 3 * sigma

    def test_seed_reproducibility(self):
        a = pt.two_draw_distinction_mc([0.3, 0.7], trials=10000, seed=5)
        b = pt.two_draw_distinction_mc([0.3, 0.7], trials=10000, seed=5)
        assert a == b

    def test_converges_in_most_seeded_runs(self):
        p = np.array([0.4, 0.35, 0.25])
        analytic = pt.distribution_logical_entropy(p)
        trials = 20000
        sigma = np.sqrt(analytic * (1 - analytic) / trials)
        hits = sum(
            abs(pt.two_draw_distinction_mc(p, trials, seed) - analytic) <= 4 * sigma
            for seed in range(200)
        )
        assert hits >= 199


def choice_reference(p, trials, rng):
    """Distinct-pair fraction from rng.choice, MC_CHUNK pairs at a time."""
    distinct = 0
    for start in range(0, trials, pt.MC_CHUNK):
        draws = rng.choice(p.size, size=(2, min(pt.MC_CHUNK, trials - start)), p=p)
        distinct += int(np.count_nonzero(draws[0] != draws[1]))
    return distinct / trials


@functools.lru_cache(maxsize=None)
def cached_choice_reference(k, trials):
    return choice_reference(probabilities(k), trials, rng_for(7, k))


def probabilities(k, zeros=()):
    """Normalised positive weights of k outcomes, with the given outcomes set to 0."""
    w = np.random.default_rng(k).random(k) + 0.01
    w[list(zeros)] = 0.0
    return w / np.sum(w)


class TestDrawKernel:
    """distinct_pair_fraction gives the estimates rng.choice's draws give, bit for bit."""

    @pytest.mark.parametrize("trials", [1, pt.MC_CHUNK, pt.MC_CHUNK + 1])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 64, 65, 200])
    def test_matches_choice(self, k, trials):
        p = probabilities(k)
        got = pt.distinct_pair_fraction(p, trials, rng_for(7, k))
        assert got == choice_reference(p, trials, rng_for(7, k))

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("k", [3, 8, 65])
    def test_zero_probability_outcome_matches_choice(self, k, where):
        zero = {"first": 0, "middle": k // 2, "last": k - 1}[where]
        p = probabilities(k, [zero])
        trials = pt.MC_CHUNK + 1
        got = pt.two_draw_distinction_mc(p, trials, seed=3)
        assert got == choice_reference(p, trials, rng_for(3, 0x7061))

    @pytest.mark.parametrize("k", [8, 64, 65])
    def test_uniforms_on_and_beside_each_boundary(self, k):
        # outcome of u is the number of cdf entries <= u, as rng.choice's searchsorted gives
        p = probabilities(k, [0, k // 2, k // 2 + 1, k - 1])
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        inner = cdf[:-1]
        u = np.unique(np.concatenate([
            [0.0], inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
        ]))
        u = u[(u >= 0.0) & (u < 1.0)]
        outcome = cdf.searchsorted(u, side="right")
        draws, mask = np.empty((2, 1), dtype=np.uint8), np.empty((2, 1), dtype=bool)
        for a, b, oa, ob in zip(u, u[1:], outcome, outcome[1:]):
            got = pt._count_distinct(cdf, np.array([[a], [b]]), draws, mask)
            assert got == float(oa != ob), (a, b)


class TestWorkerSplit:
    """Each chunk split over any number of CPUs gives rng.choice's estimate, bit for bit."""

    @pytest.mark.parametrize("trials", [1, 3, pt.MC_CHUNK + 3, 2 * pt.MC_CHUNK + 5])
    @pytest.mark.parametrize("k", [8, 65])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_matches_choice_for_any_cpu_count(
        self, monkeypatch, started_threads, cpus, k, trials
    ):
        # shares start at n * w // cpus, so sub-stream offsets hit every residue mod 4
        monkeypatch.setattr(pt, "_usable_cpus", lambda: cpus)
        got = pt.distinct_pair_fraction(probabilities(k), trials, rng_for(7, k))
        assert got == cached_choice_reference(k, trials)
        assert len(started_threads) == (cpus - 1 if trials >= pt.MC_CHUNK else 0)

    @pytest.mark.parametrize("trials", [2 * pt.MC_MIN_SHARE - 1, 2 * pt.MC_MIN_SHARE])
    def test_no_thread_below_the_minimum_share(self, monkeypatch, started_threads, trials):
        monkeypatch.setattr(pt, "_usable_cpus", lambda: 2)
        pt.distinct_pair_fraction(probabilities(8), trials, rng_for(7, 8))
        assert len(started_threads) == trials // pt.MC_MIN_SHARE - 1

    def test_rejects_a_used_or_non_philox_generator(self):
        p = probabilities(8)
        used = rng_for(7, 8)
        used.random()
        for rng in (used, np.random.default_rng(7)):
            with pytest.raises(ValueError, match="fresh Philox"):
                pt.distinct_pair_fraction(p, 10, rng)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(pt, "_usable_cpus", lambda: 2)
        real = pt._count_distinct

        def failing(cdf, u, draws, mask):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return real(cdf, u, draws, mask)

        monkeypatch.setattr(pt, "_count_distinct", failing)
        with pytest.raises(MemoryError, match="worker"):
            pt.distinct_pair_fraction(probabilities(8), pt.MC_CHUNK, rng_for(1))
