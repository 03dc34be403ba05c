"""Dense complex linear algebra primitives for small dimensions (d <= 64).

All matrices are square numpy arrays of complex128.  Hermitian spectra come
from LAPACK (numpy.linalg.eigh / eigvalsh).  The eigensolvers refuse d above
MAX_EIG_DIM: up to d = 64 their output was bit-identical under 1, 2 and 4
BLAS threads (OpenBLAS 0.3.31, numpy 2.4.6), at d = 128 it was not, and
reports must be byte-identical across thread settings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
EQ_TOL = 1e-9
MAX_EIG_DIM = 64


class DimensionMismatchError(ValueError):
    """Raised when operand dimensions are incompatible."""


class ValidationError(ValueError):
    """Raised when a matrix, state or PVM fails its structural invariants."""


class HermitianEigenSystem(NamedTuple):
    """Eigenvalues sorted non-increasing; eigenvector columns in matching order."""

    values: np.ndarray
    vectors: np.ndarray


def as_stack(m) -> np.ndarray:
    """m as complex square matrices, with any number of leading batch axes."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatchError(f"expected square matrices, got shape {m.shape}")
    return m


def as_matrix(m) -> np.ndarray:
    m = as_stack(m)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs entry of m - m^dagger over a matrix or a stack."""
    return float(np.max(np.abs(m - dagger(m))))


def hs_norm_sq(m: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm tr(m m^dagger) of each matrix; tr m^2 for Hermitian m."""
    return np.einsum("...ij,...ij->...", m, m.conj()).real


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = as_stack(m)
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:  # a NaN defect fails too
        raise ValidationError(f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return m


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with index (i1*b.dim + i2) flattening, over broadcast batch axes."""
    a, b = as_stack(a), as_stack(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    d = a.shape[-1] * b.shape[-1]
    return out.reshape(*out.shape[:-4], d, d)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag, symmetrised; kraus (..., K, d, d) acts on rho (..., d, d)."""
    out = np.sum(kraus @ rho[..., None, :, :] @ dagger(kraus), axis=-3)
    return (out + dagger(out)) / 2


def reduce_state(m: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace over all factors not listed in keep, per matrix of a stack."""
    m = as_stack(m)
    if m.shape[-1] != math.prod(dims):
        raise DimensionMismatchError(f"matrix dim {m.shape[-1]} != prod{dims}")
    keep = sorted(keep)
    n = len(dims)
    col = [i + n if i in keep else i for i in range(n)]
    t = m.reshape(*m.shape[:-2], *dims, *dims)
    t = np.einsum(t, [..., *range(n), *col], [..., *keep, *(i + n for i in keep)])
    kept = math.prod(dims[i] for i in keep)
    return t.reshape(*m.shape[:-2], kept, kept)


def pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Per column, the unit factor making its largest-magnitude entry real positive; 1 if zero."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.array([p.conjugate() / abs(p) if abs(p) > 0 else 1 for p in pivots], dtype=complex)


def _eig_input(m: np.ndarray) -> np.ndarray:
    m = require_hermitian(m)
    if m.shape[-1] > MAX_EIG_DIM:
        raise DimensionMismatchError(
            f"dimension {m.shape[-1]} exceeds the eigensolver limit {MAX_EIG_DIM}"
        )
    return m


def hermitian_eig(m: np.ndarray) -> HermitianEigenSystem:
    """Eigendecomposition of a Hermitian matrix of dimension at most MAX_EIG_DIM.

    Deterministic for a fixed input: eigenvalues sorted non-increasing
    (stable), each eigenvector phased so its largest-magnitude component is
    real positive.
    """
    values, vectors = np.linalg.eigh(_eig_input(as_matrix(m)))
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    return HermitianEigenSystem(values[order], vectors * pivot_phases(vectors))


def hermitian_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues only, sorted non-increasing, per matrix of a stack."""
    return np.linalg.eigvalsh(_eig_input(m))[..., ::-1]


def clamp_psd_eigvals(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-PSD_TOL, 0) to zero; reject anything below -PSD_TOL."""
    low = float(np.min(values))
    if low < -PSD_TOL:
        raise ValidationError(f"eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
    return np.maximum(values, 0.0)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix."""
    values, vectors = hermitian_eig(m)
    values = clamp_psd_eigvals(values)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


def is_unitary(u: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True iff eta (1 + eta) <= tol for eta = ||U^dag U - I||_F, which bounds every entry
    of U U^dag - I, P_i^2 - P_i and P_i P_j for projectors P_i onto disjoint column groups."""
    u = as_matrix(u)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = float(np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0])))
    return eta * (1.0 + eta) <= tol
