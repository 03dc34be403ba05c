"""Logical entropy of set partitions and finite probability distributions."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .sampling import rng_for

PROB_SUM_TOL = 1e-9
MC_CHUNK = 1 << 20  # draw pairs per Monte Carlo chunk; bounds its memory
MC_COUNTED_OUTCOMES = 64  # up to this many outcomes, bins are counted, not binary-searched
MC_MIN_SHARE = 1 << 16  # fewest first-chunk pairs per worker thread: the measured break-even


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0..n-1} stored as an element -> block map.

    Block labels are normalized by first occurrence, so two partitions with
    the same blocks compare equal regardless of input labeling.
    """

    universe_size: int
    block_of: tuple[int, ...]

    @classmethod
    def from_labels(cls, labels) -> "SetPartition":
        labels = list(labels)
        if not labels:
            raise ValueError("partition of an empty set is not supported")
        relabel: dict = {}
        canon = []
        for lab in labels:
            if lab not in relabel:
                relabel[lab] = len(relabel)
            canon.append(relabel[lab])
        return cls(len(canon), tuple(canon))

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
        return cls.from_labels(labels)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of, minlength=self.num_blocks)

    def refines(self, other: "SetPartition") -> bool:
        """True if every block of self is contained in a block of other."""
        if self.universe_size != other.universe_size:
            raise ValueError("partitions over different universes")
        seen: dict[int, int] = {}
        for u in range(self.universe_size):
            b = self.block_of[u]
            if b in seen:
                if other.block_of[u] != seen[b]:
                    return False
            else:
                seen[b] = other.block_of[u]
        return True


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
    """Probability that two uniform draws land in distinct blocks."""
    n = p.universe_size
    return dit_count(p) / (n * n)


def distribution_logical_entropy(p) -> float:
    """1 - sum p_i^2: probability of drawing two different elements."""
    p = as_probability_vector(p)
    return float(1.0 - np.sum(p * p))


def block_mass_entropy(p: SetPartition, probs) -> float:
    """Logical entropy of a partition whose elements carry probabilities."""
    probs = as_probability_vector(probs)
    if probs.size != p.universe_size:
        raise ValueError("probability vector size must match the universe")
    masses = np.zeros(p.num_blocks)
    np.add.at(masses, np.asarray(p.block_of), probs)
    return distribution_logical_entropy(masses)


def distinct_pair_fraction(p: np.ndarray, trials: int, rng: np.random.Generator) -> float:
    """Fraction of i.i.d. pairs from a finite, normalised p that differ; draws match rng.choice.

    rng must be a fresh Philox generator, as rng_for returns; only its key is
    read, and it is not advanced. Pair j of the n-pair chunk that starts at
    pair s takes stream draws 2s + j and 2s + n + j, as rng.random((2, n))
    lays them out, so each chunk splits into even shares drawn from
    counter-offset sub-streams: one per usable CPU, but none with fewer than
    MC_MIN_SHARE pairs of the first chunk. The estimate does not depend on
    the split.
    """
    state = rng.bit_generator.state
    fresh = state["bit_generator"] == "Philox" and state["buffer_pos"] == 4
    if not fresh or any(state["state"]["counter"]):
        raise ValueError("rng must be a fresh Philox generator")
    key = state["state"]["key"]
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    counts = _split_over_cpus(
        partial(_count_share, cdf, key, trials), min(MC_CHUNK, trials) // MC_MIN_SHARE
    )
    return sum(counts) / trials


def _count_share(cdf: np.ndarray, key, trials: int, w: int, workers: int) -> int:
    """Distinct pairs in share w of every chunk, split evenly into `workers` shares."""
    size = -(-min(MC_CHUNK, trials) // workers)
    u = np.empty((2, size))
    draws = np.empty((2, size), dtype=np.uint8)
    mask = np.empty((2, size), dtype=bool)
    distinct = 0
    for s in range(0, trials, MC_CHUNK):
        n = min(MC_CHUNK, trials - s)
        a, b = n * w // workers, n * (w + 1) // workers
        for row, draw in enumerate((2 * s + a, 2 * s + n + a)):
            bits = np.random.Philox(counter=draw // 4, key=key)
            bits.random_raw(draw % 4)
            np.random.Generator(bits).random(out=u[row, : b - a])
        distinct += _count_distinct(cdf, u[:, : b - a], draws[:, : b - a], mask[:, : b - a])
    return distinct


def _count_distinct(cdf: np.ndarray, u: np.ndarray, draws: np.ndarray, mask: np.ndarray) -> int:
    """Columns of the (2, m) uniforms u whose two outcomes differ; draws and mask are scratch."""
    if cdf.size > MC_COUNTED_OUTCOMES:
        outcomes = cdf.searchsorted(u, side="right")
        return int(np.count_nonzero(outcomes[0] != outcomes[1]))
    draws.fill(0)
    for c in cdf[:-1]:  # outcome = number of boundaries <= u, as cdf[-1] == 1 > u
        np.greater_equal(u, c, out=mask)
        np.add(draws, mask.view(np.uint8), out=draws)
    np.not_equal(draws[0], draws[1], out=mask[0])
    return int(np.count_nonzero(mask[0]))


def two_draw_distinction_mc(p, trials: int, seed: int) -> float:
    """Monte Carlo fraction of i.i.d. draw pairs with distinct outcomes."""
    p = as_probability_vector(p)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return distinct_pair_fraction(p / np.sum(p), trials, rng_for(seed, 0x7061))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_over_cpus(task, most: int) -> list:
    """[task(w, n) for w in range(n)] for n = min(usable CPUs, most), at least 1.

    Task 0 runs on the calling thread and each other task on a thread of its
    own; numpy's kernels release the GIL, so the tasks overlap. An exception
    from any task is re-raised on the caller. Tasks must call no public
    qlogent function: perfbench's tracer rebinds those and keeps one span
    stack per process. Being private, this helper leaves its time in its
    caller's traced layer.
    """
    workers = max(1, min(_usable_cpus(), most))
    out: list = [None] * workers

    def run(w: int) -> None:
        try:
            out[w] = task(w, workers)
        except Exception as exc:  # re-raised on the calling thread
            out[w] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for r in out:
        if isinstance(r, Exception):
            raise r
    return out
