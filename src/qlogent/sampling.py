"""Seeded random generation of states, unitaries, and PVMs.

Every sampler draws a whole batch of n instances from one counter-based
Philox generator keyed by the full (seed, stream) tuple. Draws are laid out
instance-major, so the first k instances of a batch do not depend on n, and
each single-instance sampler is the n = 1 case of its batched form.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, Pvm

_PHILOX_KEY_LIMIT = 1 << 64


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream) cell of the trial grid.

    The seed and every stream word, each in [0, 2^64), are hashed with the
    stream length into the Philox key, so tuples that differ anywhere give
    different generators. Seeds outside that range are rejected rather than
    wrapped, so no two seeds alias.
    """
    if not 0 <= seed < _PHILOX_KEY_LIMIT:
        raise ValueError(f"seed {seed} is outside the Philox key range [0, 2^64)")
    words = np.array([seed, len(stream), *stream], dtype=np.uint64).view(np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def _complex_gaussian(rng: np.random.Generator, n: int, rows: int, cols: int) -> np.ndarray:
    # (re, im) pairs are complex128's memory layout
    return rng.standard_normal((n, rows, cols, 2)).view(complex)[..., 0]


def sample_densities(seed: int, n: int, dim: int, rank: int | None = None, *stream: int):
    """n Hilbert-Schmidt-style random densities G G^dag / tr(G G^dag), shape (n, dim, dim)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError("rank must be in 1..dim")
    g = _complex_gaussian(rng_for(seed, 0xD0, dim, *stream), n, dim, rank)
    rho = g @ g.conj().swapaxes(1, 2)
    rho = rho / np.einsum("nii->n", rho).real[:, None, None]
    return (rho + rho.conj().swapaxes(1, 2)) / 2


def sample_density(seed: int, dim: int, rank: int | None = None, *stream: int):
    return DensityMatrix.trusted(sample_densities(seed, 1, dim, rank, *stream)[0])


def sample_state_vectors(seed: int, n: int, dim: int, *stream: int) -> np.ndarray:
    """n Haar-random unit vectors, shape (n, dim)."""
    v = _complex_gaussian(rng_for(seed, 0x51, dim, *stream), n, dim, 1)[..., 0]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_state_vector(seed: int, dim: int, *stream: int) -> np.ndarray:
    return sample_state_vectors(seed, 1, dim, *stream)[0]


def sample_unitaries(seed: int, n: int, dim: int, *stream: int) -> np.ndarray:
    """n Haar-random unitaries via QR of complex Gaussians with phase fixing."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    q, r = np.linalg.qr(_complex_gaussian(rng_for(seed, 0x10, dim, *stream), n, dim, dim))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def sample_unitary(seed: int, dim: int, *stream: int) -> np.ndarray:
    return sample_unitaries(seed, 1, dim, *stream)[0]


def sample_pvm(seed: int, dim: int, groups: list[int] | None = None, *stream: int):
    """Random PVM from a Haar basis, optionally coarse-grained into groups."""
    return Pvm.from_basis(sample_unitary(seed, dim, 0x9B, *stream), groups)


def sample_weight_vectors(seed: int, n: int, count: int, *stream: int) -> np.ndarray:
    """n symmetric Dirichlet(1) weight vectors (normalised exponentials), shape (n, count)."""
    e = rng_for(seed, 0xD1, count, *stream).standard_exponential((n, count))
    return e / np.sum(e, axis=1, keepdims=True)


MAX_TERMS = 4  # random mixtures and unitary channels have 2..MAX_TERMS terms


def sample_ragged_weights(seed: int, n: int, *stream: int) -> np.ndarray:
    """n Dirichlet(1) vectors of 2..MAX_TERMS weights each, zero-padded to (n, MAX_TERMS).

    The first k of Dirichlet(1) weights, renormalised, are Dirichlet(1) on k.
    """
    counts = 2 + (rng_for(seed, 0xC0, *stream).random(n) * (MAX_TERMS - 1)).astype(int)
    w = sample_weight_vectors(seed, n, MAX_TERMS, *stream)
    w = np.where(np.arange(MAX_TERMS) < counts[:, None], w, 0.0)
    return w / np.sum(w, axis=1, keepdims=True)


def sample_unital_channels(seed: int, n: int, dim: int, *stream: int):
    """n random unital channels (mixing, kraus, bases), with even odds unitary mixtures.

    Channel t has Kraus operators kraus[t] (sqrt(w_k) U_k for 2..MAX_TERMS Haar U_k,
    zero-padded) if mixing[t], else it dephases in the Haar basis bases[t]."""
    mixing = rng_for(seed, 0xC4, dim, *stream).random(n) < 0.5
    w = sample_ragged_weights(seed, n, 0xC5, dim, *stream)
    units = sample_unitaries(seed, n * MAX_TERMS, dim, 0xC6, *stream)
    kraus = np.sqrt(w)[:, :, None, None] * units.reshape(n, MAX_TERMS, dim, dim)
    return mixing, kraus, sample_unitaries(seed, n, dim, 0xC7, *stream)


def sample_orthogonal_support_mixtures(seed: int, n: int, block_dims: list[int], *stream: int):
    """n mixtures whose components are embedded block-diagonally, so supports are orthogonal.

    Returns (weights, components) of shapes (n, k) and (n, k, D, D), D = sum(block_dims).
    """
    total = sum(block_dims)
    weights = sample_weight_vectors(seed, n, len(block_dims), 0xB0, *stream)
    components = np.zeros((n, len(block_dims), total, total), dtype=complex)
    start = 0
    for i, d in enumerate(block_dims):
        components[:, i, start:start + d, start:start + d] = sample_densities(
            seed, n, d, None, 0xB1, i, *stream
        )
        start += d
    return weights, components
