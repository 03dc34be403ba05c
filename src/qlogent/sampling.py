"""Seeded random generation of states, unitaries, and PVMs.

Every sampler is keyed by an explicit (seed, stream, ...) tuple through a
counter-based Philox generator, so trials drawn in parallel batches are
identical to the single-threaded stream.
"""

from __future__ import annotations

import numpy as np

_PHILOX_KEY_LIMIT = 1 << 64


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream) cell of the trial grid.

    The seed is the 64-bit Philox key; seeds outside [0, 2^64) are rejected
    rather than wrapped, so no two seeds alias.
    """
    if not 0 <= seed < _PHILOX_KEY_LIMIT:
        raise ValueError(f"seed {seed} is outside the Philox key range [0, 2^64)")
    key = np.uint64(seed)
    bits = [np.uint64(s) for s in stream]
    while len(bits) < 3:
        bits.append(np.uint64(0))
    counter = np.zeros(4, dtype=np.uint64)
    counter[1:4] = bits[:3]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return re + 1j * im


def sample_density(seed: int, dim: int, rank: int | None = None, *stream: int):
    """Hilbert-Schmidt-style random density matrix G G^dag / tr(G G^dag)."""
    from .states import DensityMatrix

    if dim < 1:
        raise ValueError("dim must be >= 1")
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError("rank must be in 1..dim")
    rng = rng_for(seed, 0xD0, dim, *stream)
    g = _complex_gaussian(rng, dim, rank)
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix.trusted((rho + rho.conj().T) / 2)


def sample_state_vector(seed: int, dim: int, *stream: int) -> np.ndarray:
    """Haar-random unit vector."""
    rng = rng_for(seed, 0x51, dim, *stream)
    v = _complex_gaussian(rng, dim, 1)[:, 0]
    return v / np.linalg.norm(v)


def sample_unitary(seed: int, dim: int, *stream: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fixing."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = rng_for(seed, 0x10, dim, *stream)
    g = _complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q


def sample_pvm(seed: int, dim: int, groups: list[int] | None = None, *stream: int):
    """Random PVM from a Haar basis, optionally coarse-grained into groups."""
    from .states import Pvm

    return Pvm.from_basis(sample_unitary(seed, dim, 0x9B, *stream), groups)


def sample_mixture_weights(seed: int, count: int, *stream: int) -> np.ndarray:
    """Symmetric Dirichlet(1) mixture weights."""
    rng = rng_for(seed, 0xD1, count, *stream)
    w = rng.dirichlet(np.ones(count))
    return w / np.sum(w)


def sample_unital_channel(seed: int, dim: int, *stream: int):
    """Random unital channel: alternates Haar-unitary mixtures and PVM dephasings."""
    from .channels import UnitalChannel

    rng = rng_for(seed, 0xC4, dim, *stream)
    if rng.integers(2) == 0:
        n_ops = int(rng.integers(2, 5))
        w = sample_mixture_weights(seed, n_ops, 0xC5, dim, *stream)
        kraus = [
            np.sqrt(w[i]) * sample_unitary(seed, dim, 0xC6, i, *stream)
            for i in range(n_ops)
        ]
        return UnitalChannel(kraus)
    pvm = sample_pvm(seed, dim, None, 0xC7, *stream)
    return UnitalChannel(list(pvm.blocks))


def sample_orthogonal_support_mixture(seed: int, block_dims: list[int], *stream: int):
    """Mixture components embedded block-diagonally, so supports are orthogonal.

    Returns (weights, components) where each component is a DensityMatrix on the
    full space sum(block_dims) supported on its own block.
    """
    from .states import DensityMatrix

    total = sum(block_dims)
    weights = sample_mixture_weights(seed, len(block_dims), 0xB0, *stream)
    components = []
    start = 0
    for i, d in enumerate(block_dims):
        rho = sample_density(seed, d, None, 0xB1, i, *stream)
        full = np.zeros((total, total), dtype=complex)
        full[start:start + d, start:start + d] = rho.mat
        components.append(DensityMatrix.trusted(full))
        start += d
    return weights, components
