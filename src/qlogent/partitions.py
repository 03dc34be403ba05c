"""Logical entropy of set partitions and finite probability distributions."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

# as_probability_vector's tolerance. Quantum outcome vectors skip that check and go straight
# to distribution_purity: a PVM passes its identity check within HERMITICITY_TOL per entry,
# so sum_i tr(B_i rho) may miss 1 by about d * HERMITICITY_TOL (3.0e-8 measured at d = 64)
PROB_SUM_TOL = 1e-9
MC_CHUNK = 1 << 20  # draw pairs per Monte Carlo chunk; fixes only the draw layout
# pairs drawn and binned per pass, bounding memory: 1.25 MB of buffers per worker, inside a
# 2 MiB L2. Speed against whole-chunk buffers (2 threads, 2e6 pairs, 8 outcomes, 40 interleaved
# calls, 2-vCPU Xeon): 2^13 6% slower, 2^14 3% faster, 2^15 17%, 2^16 20% (won 37/40), 2^17 10%
MC_TILE = 1 << 16
MC_COUNTED_OUTCOMES = 64  # up to this many outcomes, bins are counted, not binary-searched
MC_MIN_SHARE = 1 << 16  # fewest first-chunk pairs per worker thread: the measured break-even


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0..n-1} stored as an element -> block map.

    Built from any hashable label per element, renumbered 0..k-1 by first occurrence,
    so two partitions with the same blocks compare equal regardless of input labeling.
    """

    block_of: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = list(self.block_of)
        if not labels:
            raise ValueError("partition of an empty set is not supported")
        relabel = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        object.__setattr__(self, "block_of", tuple(relabel[lab] for lab in labels))

    @classmethod
    def from_blocks(cls, blocks: list[list[int]]) -> "SetPartition":
        n = sum(len(b) for b in blocks)
        labels = [-1] * n
        for i, block in enumerate(blocks):
            if not block:
                raise ValueError("empty block")
            for u in block:
                if not 0 <= u < n or labels[u] != -1:
                    raise ValueError(f"element {u} missing or assigned twice")
                labels[u] = i
        return cls(labels)

    @property
    def universe_size(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of)

    def refines(self, other: "SetPartition") -> bool:
        """True if every block of self is contained in a block of other."""
        if self.universe_size != other.universe_size:
            raise ValueError("partitions over different universes")
        target = dict(zip(self.block_of, other.block_of))  # each block's last element's block
        return all(target[b] == c for b, c in zip(self.block_of, other.block_of))


def as_probability_vector(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be 1-dimensional and non-empty")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.min(p) < -PROB_SUM_TOL or np.max(p) > 1 + PROB_SUM_TOL:
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(float(np.sum(p)) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {float(np.sum(p))}, not 1")
    return np.clip(p, 0.0, 1.0)


def dit_count(p: SetPartition) -> int:
    """Number of ordered pairs (u, u') lying in distinct blocks."""
    n = p.universe_size
    return int(n * n - np.sum(p.block_sizes() ** 2))


def partition_logical_entropy(p: SetPartition) -> float:
    """Probability that two uniform draws land in distinct blocks, from the exact dit
    count; block_mass_entropy is its generalisation to elements of unequal weight."""
    n = p.universe_size
    return dit_count(p) / (n * n)


def distribution_purity(p: np.ndarray) -> np.ndarray:
    """sum p_i^2 over the last axis of already-checked probabilities; 1 minus it is the
    chance that two draws differ. The classical twin of states.purity."""
    return np.sum(p * p, axis=-1)


def distribution_logical_entropy(p) -> float:
    """1 - sum p_i^2: probability of drawing two different elements."""
    return float(1.0 - distribution_purity(as_probability_vector(p)))


def block_mass_entropy(p: SetPartition, probs) -> float:
    """Logical entropy of a partition whose elements carry probabilities: 1 - sum of the
    squared block masses. Uniform probs give partition_logical_entropy up to rounding,
    and the discrete partition gives distribution_logical_entropy(probs) exactly."""
    probs = as_probability_vector(probs)
    if probs.size != p.universe_size:
        raise ValueError("probability vector size must match the universe")
    masses = np.bincount(p.block_of, weights=probs)
    # probs may sum to 1 + PROB_SUM_TOL, so one block's mass may pass 1
    return float(1.0 - distribution_purity(np.minimum(masses, 1.0)))


def distinct_pair_fraction(p: np.ndarray, trials: int, rng: np.random.Generator) -> float:
    """Fraction of i.i.d. pairs from a finite, normalised p that differ; draws match rng.choice.

    rng must be a fresh Philox generator, as sampling.rng_for returns; only its key is
    read, and it is not advanced. Pair j of the n-pair chunk that starts at
    pair s takes stream draws 2s + j and 2s + n + j, as rng.random((2, n))
    lays them out, so each chunk splits into even shares drawn from
    counter-offset sub-streams: one per usable CPU, but none with fewer than
    MC_MIN_SHARE pairs of the first chunk. The estimate does not depend on
    the split. Share 0 runs on the calling thread and each other share on a
    thread of its own; numpy's kernels release the GIL, so the shares overlap,
    and an exception from any share is re-raised on the caller. Shares call no
    public qlogent function: perfbench's tracer rebinds those and keeps one
    span stack per process.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = rng.bit_generator.state
    fresh = state["bit_generator"] == "Philox" and state["buffer_pos"] == 4
    if not fresh or any(state["state"]["counter"]):
        raise ValueError("rng must be a fresh Philox generator")
    key = state["state"]["key"]
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    workers = max(1, min(_usable_cpus(), min(MC_CHUNK, trials) // MC_MIN_SHARE))
    counts: list = [None] * workers

    def run(w: int) -> None:
        try:
            counts[w] = _count_share(cdf, key, trials, w, workers)
        except Exception as exc:  # re-raised on the calling thread
            counts[w] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for c in counts:
        if isinstance(c, Exception):
            raise c
    return sum(counts) / trials


def _count_share(cdf: np.ndarray, key, trials: int, w: int, workers: int) -> int:
    """Distinct pairs in share w of every chunk, split evenly into `workers` shares."""
    size = min(MC_TILE, -(-min(MC_CHUNK, trials) // workers))
    u = np.empty((2, size))
    draws = np.empty((2, size), dtype=np.uint8)
    mask = np.empty((2, size), dtype=bool)
    distinct = 0
    for s in range(0, trials, MC_CHUNK):
        n = min(MC_CHUNK, trials - s)
        a, b = n * w // workers, n * (w + 1) // workers
        gens = []
        for draw in (2 * s + a, 2 * s + n + a):
            bits = np.random.Philox(counter=draw // 4, key=key)
            bits.random_raw(draw % 4)
            gens.append(np.random.Generator(bits))
        for t in range(a, b, MC_TILE):  # each random() call continues its generator's stream
            m = min(MC_TILE, b - t)
            for row, gen in enumerate(gens):
                gen.random(out=u[row, :m])
            distinct += _count_distinct(cdf, u[:, :m], draws[:, :m], mask[:, :m])
    return distinct


def _count_distinct(cdf: np.ndarray, u: np.ndarray, draws: np.ndarray, mask: np.ndarray) -> int:
    """Columns of the (2, m) uniforms u whose two outcomes differ; draws and mask are scratch."""
    if cdf.size > MC_COUNTED_OUTCOMES:
        outcomes = cdf.searchsorted(u, side="right")
        return int(np.count_nonzero(outcomes[0] != outcomes[1]))
    # outcome = number of boundaries <= u; cdf[-1] == 1 > u, so one outcome gives 0
    np.greater_equal(u, cdf[0], out=draws.view(bool))
    for c in cdf[1:-1]:
        np.greater_equal(u, c, out=mask)
        np.add(draws, mask.view(np.uint8), out=draws)
    np.not_equal(draws[0], draws[1], out=mask[0])
    return int(np.count_nonzero(mask[0]))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
