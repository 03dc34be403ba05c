import functools
import itertools
import threading
import tracemalloc
import types
from fractions import Fraction

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


def two_draw(p, trials, seed):
    """distinct_pair_fraction on a checked distribution p, drawn from stream (seed, 0x7061)."""
    p = pt.as_probability_vector(p)
    return pt.distinct_pair_fraction(p / p.sum(), trials, rng_for(seed, 0x7061))


def partition_strategy(max_n=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )


class TestSetPartition:
    def test_canonical_labels(self):
        a = pt.SetPartition([5, 5, 2, 2, 9])
        b = pt.SetPartition([0, 0, 1, 1, 2])
        assert a == b

    def test_constructor_renumbers_labels(self):
        one_block = pt.SetPartition((1, 1))
        assert one_block == pt.SetPartition((0, 0))
        assert hash(one_block) == hash(pt.SetPartition((0, 0)))
        assert one_block.num_blocks == 1
        assert list(one_block.block_sizes()) == [2]
        assert pt.SetPartition("aab") == pt.SetPartition((0, 0, 1))

    def test_rejects_the_empty_set(self):
        with pytest.raises(ValueError, match=r"^partition of an empty set is not supported$"):
            pt.SetPartition(())

    @settings(max_examples=200, deadline=None)
    @given(
        partition_strategy().flatmap(
            lambda labels: st.tuples(
                st.just(labels),
                st.lists(
                    st.one_of(st.integers(), st.text(max_size=3)),
                    min_size=len(labels),
                    max_size=len(labels),
                    unique=True,
                ),
            )
        )
    )
    def test_injective_renaming_gives_the_same_partition(self, labels_and_names):
        labels, names = labels_and_names
        p = pt.SetPartition(labels)
        renamed = pt.SetPartition(names[lab] for lab in labels)
        assert renamed == p and hash(renamed) == hash(p)
        probs = np.random.default_rng(len(labels)).dirichlet(np.ones(len(labels)))
        assert pt.dit_count(renamed) == pt.dit_count(p)
        assert pt.partition_logical_entropy(renamed) == pt.partition_logical_entropy(p)
        assert pt.block_mass_entropy(renamed, probs) == pt.block_mass_entropy(p, probs)

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
        p = pt.SetPartition([0] * 6)
        assert pt.dit_count(p) == 0

    def test_discrete(self):
        p = pt.SetPartition(range(6))
        assert pt.dit_count(p) == 30

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy())
    def test_against_pair_enumeration_oracle(self, labels):
        p = pt.SetPartition(labels)
        assert pt.dit_count(p) == dit_count_oracle(p)


class TestPartitionEntropy:
    def test_three_equal_blocks(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        assert pt.partition_logical_entropy(p) == pytest.approx(2 / 3, abs=1e-15)

    def test_discrete_partition(self):
        for n in range(2, 8):
            p = pt.SetPartition(range(n))
            assert pt.partition_logical_entropy(p) == pytest.approx(
                1 - 1 / n, abs=1e-15
            )

    def test_indiscrete_partition(self):
        p = pt.SetPartition([0] * 5)
        assert pt.partition_logical_entropy(p) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy())
    def test_pair_count_matches_block_mass_formula(self, labels):
        p = pt.SetPartition(labels)
        n = p.universe_size
        from_formula = 1 - float(np.sum((p.block_sizes() / n) ** 2))
        assert abs(pt.partition_logical_entropy(p) - from_formula) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy(), st.randoms(use_true_random=False))
    def test_refinement_monotonicity(self, labels, rnd):
        coarse = pt.SetPartition(labels)
        # split every block into random sub-blocks: result refines the original
        fine_labels = [
            (coarse.block_of[u], rnd.randint(0, 1)) for u in range(coarse.universe_size)
        ]
        fine = pt.SetPartition(fine_labels)
        assert fine.refines(coarse)
        assert pt.partition_logical_entropy(fine) >= pt.partition_logical_entropy(
            coarse
        )


class TestEntropyForms:
    """The partition entropy is the exact dit-count form; block_mass_entropy generalises it
    to weighted elements and, on the discrete partition, is the distribution entropy."""

    @settings(max_examples=200, deadline=None)
    @given(partition_strategy(max_n=40))
    def test_partition_entropy_is_the_rounded_dit_fraction(self, labels):
        p = pt.SetPartition(labels)
        n = p.universe_size
        assert pt.partition_logical_entropy(p) == float(Fraction(pt.dit_count(p), n * n))

    def test_uniform_block_masses_within_n_eps_of_the_dit_form(self):
        rng = np.random.default_rng(6)
        eps = np.finfo(float).eps
        for n in range(1, 201):
            for _ in range(5):
                p = pt.SetPartition(rng.integers(0, rng.integers(1, n + 1), n))
                gap = pt.partition_logical_entropy(p) - pt.block_mass_entropy(p, np.full(n, 1 / n))
                assert abs(gap) <= n * eps, (n, p)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 64, 200])
    def test_discrete_partition_gives_the_distribution_entropy(self, k):
        rng = np.random.default_rng(k)
        discrete = pt.SetPartition(range(k))
        for q in (rng.dirichlet(np.ones(k)), np.eye(k)[0], np.full(k, 1 / k)):
            assert pt.block_mass_entropy(discrete, q) == pt.distribution_logical_entropy(q)

    label = st.one_of(st.integers(0, 2), st.sampled_from(["0", "1", "a"]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(label, label), min_size=1, max_size=10))
    def test_refines_matches_block_containment(self, label_pairs):
        def blocks(labels):
            out: dict = {}
            for u, lab in enumerate(labels):
                out.setdefault(lab, set()).add(u)
            return list(out.values())

        def oracle(fine, coarse):
            return all(any(a <= b for b in blocks(coarse)) for a in blocks(fine))

        a_labels, b_labels = zip(*label_pairs)
        # the pairs themselves label the common refinement of both
        for fine, coarse in itertools.permutations([a_labels, b_labels, label_pairs], 2):
            got = pt.SetPartition(fine).refines(pt.SetPartition(coarse))
            assert got == oracle(fine, coarse)


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
        pair = pt.SetPartition([0, 1])
        for call in (
            pt.distribution_logical_entropy,
            lambda q: pt.block_mass_entropy(pair, q),
        ):
            for q in ([bad, 1.0], [0.5, bad]):
                with pytest.raises(ValueError, match="finite"):
                    call(q)

    def test_one_block_over_a_sum_within_tolerance_has_zero_entropy(self):
        # the probabilities pass as_probability_vector but sum to 1 + 6e-10
        one = pt.SetPartition([0, 0])
        assert pt.block_mass_entropy(one, [0.5 + 3e-10, 0.5 + 3e-10]) == 0.0

    def test_block_mass_entropy_reduces_to_partition_entropy(self):
        p = pt.SetPartition.from_blocks([[0, 1], [2, 3], [4, 5]])
        uniform = np.full(6, 1 / 6)
        assert pt.block_mass_entropy(p, uniform) == pytest.approx(
            pt.partition_logical_entropy(p), abs=1e-12
        )


class TestTwoDrawMc:
    def test_deterministic_distribution(self):
        assert two_draw([1.0, 0.0], trials=1000, seed=1) == 0.0

    def test_deterministic_distribution_over_two_chunks(self):
        assert two_draw([1.0, 0.0], trials=pt.MC_CHUNK + 1, seed=1) == 0.0

    def test_uniform_two_within_ci(self):
        trials = 10**6
        est = two_draw([0.5, 0.5], trials=trials, seed=123)
        sigma = np.sqrt(0.25 / trials)
        assert abs(est - 0.5) <= 3 * sigma

    def test_skewed_within_ci(self):
        trials = 10**6
        est = two_draw([0.5, 0.25, 0.25], trials=trials, seed=77)
        sigma = np.sqrt(0.625 * 0.375 / trials)
        assert abs(est - 0.625) <= 3 * sigma

    def test_seed_reproducibility(self):
        a = two_draw([0.3, 0.7], trials=10000, seed=5)
        b = two_draw([0.3, 0.7], trials=10000, seed=5)
        assert a == b

    def test_converges_in_most_seeded_runs(self):
        p = np.array([0.4, 0.35, 0.25])
        analytic = pt.distribution_logical_entropy(p)
        trials = 20000
        sigma = np.sqrt(analytic * (1 - analytic) / trials)
        hits = sum(
            abs(two_draw(p, trials, seed) - analytic) <= 4 * sigma
            for seed in range(200)
        )
        assert hits >= 199

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_trial_counts_below_one(self, trials):
        with pytest.raises(ValueError, match=r"trials must be >= 1"):
            pt.distinct_pair_fraction(np.array([0.5, 0.5]), trials, rng_for(1))


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


# a share's last tile one pair short of, or past, a full tile, and a second chunk's too
TILE_EDGES = [pt.MC_TILE - 1, pt.MC_TILE + 1, pt.MC_CHUNK + pt.MC_TILE + 3]


class TestDrawKernel:
    """distinct_pair_fraction gives the estimates rng.choice's draws give, bit for bit."""

    @pytest.mark.parametrize("trials", [1, pt.MC_CHUNK, pt.MC_CHUNK + 1, *TILE_EDGES])
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
        got = two_draw(p, trials, seed=3)
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

    @pytest.mark.parametrize(
        "trials", [1, 3, pt.MC_CHUNK + 3, 2 * pt.MC_CHUNK + 5, *TILE_EDGES]
    )
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


class TestUsableCpus:
    """Where os has no sched_getaffinity, the usable CPUs are os.cpu_count(), or 1 when that
    is unknown."""

    @pytest.mark.parametrize("count", [3, None])
    def test_cpu_count_fallback(self, monkeypatch, count):
        monkeypatch.setattr(pt, "os", types.SimpleNamespace(cpu_count=lambda: count))
        assert pt._usable_cpus() == (count or 1)

    def test_unknown_cpu_count_draws_on_the_calling_thread(self, monkeypatch, started_threads):
        monkeypatch.setattr(pt, "os", types.SimpleNamespace(cpu_count=lambda: None))
        trials = pt.MC_CHUNK + 3
        got = pt.distinct_pair_fraction(probabilities(8), trials, rng_for(7, 8))
        assert got == cached_choice_reference(8, trials)
        assert started_threads == []


class TestMemoryBound:
    """The Monte Carlo holds one tile of buffers per worker, whatever the trial count."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_is_one_tile_per_worker(self, monkeypatch, cpus):
        # per pair: two float64 uniforms, two uint8 outcomes and two bool masks
        monkeypatch.setattr(pt, "_usable_cpus", lambda: cpus)
        p, peaks = probabilities(8), []
        # untraced warm-up: first-call allocations (imports, caches) stay out of the peaks
        pt.distinct_pair_fraction(p, pt.MC_CHUNK + 3, rng_for(7, 8))
        for trials in (pt.MC_CHUNK + 3, 3 * pt.MC_CHUNK):
            rng = rng_for(7, 8)
            tracemalloc.start()
            try:
                pt.distinct_pair_fraction(p, trials, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= cpus * pt.MC_TILE * 20 + 64 * 1024
        # the same at both trial counts, up to a few hundred bytes of Python objects
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024
