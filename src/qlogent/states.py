"""Density matrices, PVMs, and the logical entropy quantities built on them."""

from __future__ import annotations

import math

import numpy as np

from . import linalg as la
from .linalg import (
    EQ_TOL,
    HERMITICITY_TOL,
    PSD_TOL,
    DimensionMismatchError,
    hermitian_eig,
    hermitian_eigvals,
    psd_sqrt,
    reduce_state,
    require_hermitian,
    tensor_product,
)

TRACE_TOL = 1e-9
OUTCOME_EPS = 1e-12
# The orthogonality scan of Pvm.__init__ multiplies one block by at most this many
# entries of others at a time (8 blocks at d = 64), so each worker's temporaries stay
# at 0.5 MB. It gives no CPU fewer multiply-adds (pairs x d^3) than PAIR_MIN_SHARE: on a
# 2-vCPU box, two threads lost on a fine PVM at d = 24 (3.8M in all) and won at d = 32 (16M).
PAIR_CHUNK_ENTRIES = 1 << 15
PAIR_MIN_SHARE = 1 << 22


class ValidationError(ValueError):
    """Raised when a state or PVM fails its structural invariants."""


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix, optionally tagged with factor dims.

    Validation symmetrizes a Hermiticity defect and renormalizes trace drift,
    each up to 1e-9, and accepts eigenvalues down to -1e-9 as they are, without
    clamping them; anything worse is rejected, not repaired. Only one matrix
    is validated; a trusted DensityMatrix may hold an (n, d, d) stack, for
    which reduced, purity, logical_entropy, the logical divergences and the
    relative logical entropy give one result per state.
    """

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims: tuple[int, ...] | None = None):
        rho = DensityMatrix.trusted(la.as_matrix(mat), dims)
        self.mat = self._validated(rho.mat)
        self.dims = rho.dims

    @staticmethod
    def _validated(mat: np.ndarray) -> np.ndarray:
        # entries near the float limit overflow here; the finiteness check says so
        with np.errstate(over="ignore", invalid="ignore"):
            defect = la.hermiticity_defect(mat)
            mat = (mat + mat.conj().T) / 2
        if defect > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: defect {defect:.3e}")
        if not np.isfinite(mat).all():
            raise ValidationError("matrix has non-finite entries")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} differs from 1 beyond {TRACE_TOL:.1e}")
        mat = mat / tr
        low = float(np.min(hermitian_eigvals(mat)))
        if low < -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")
        return mat

    @classmethod
    def trusted(cls, mat, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        """Fast path for a matrix or stack PSD/unit-trace by construction (samplers, channels)."""
        rho = cls.__new__(cls)
        rho.mat = la.as_stack(mat)
        rho.dims = None if dims is None else tuple(int(d) for d in dims)
        # math.prod is exact, unlike np.prod; negative dims may still multiply to dim
        if rho.dims is not None and (min(rho.dims, default=1) < 1 or math.prod(rho.dims) != rho.dim):
            raise DimensionMismatchError(
                f"factor dims {rho.dims} are not positive or do not multiply to {rho.dim}"
            )
        return rho

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def with_dims(self, dims: tuple[int, ...]) -> "DensityMatrix":
        return DensityMatrix.trusted(self.mat, dims)

    def bipartite_dims(self) -> tuple[int, int]:
        if self.dims is None or len(self.dims) != 2:
            raise DimensionMismatchError("bipartite factor dims required")
        return self.dims

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eigvals(self.mat)

    def reduced(self, keep: str) -> "DensityMatrix":
        """Reduced state of factor 'A' or 'B' of a bipartite state."""
        if keep not in ("A", "B"):
            raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
        return DensityMatrix.trusted(
            reduce_state(self.mat, self.bipartite_dims(), [0 if keep == "A" else 1])
        )

    @classmethod
    def pure(cls, vec, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        # scaled by its largest real or imaginary part first, so the norm can neither
        # overflow nor underflow; the scale is NaN or inf for a non-finite entry
        scale = np.max(np.abs(v.view(float)), initial=0.0)
        if not 0 < scale < np.inf:
            raise ValidationError("vector is zero or has non-finite entries")
        v = v / scale
        v = v / np.linalg.norm(v)
        return cls.trusted(np.outer(v, v.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dim: int, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        return cls.trusted(np.eye(dim, dtype=complex) / dim, dims)


def _max_abs(m: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(-2, -1))


def _first_overlap(blocks: np.ndarray) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in row-major order whose product B_i B_j has an entry
    above HERMITICITY_TOL, or None. Rows i go round-robin to the usable CPUs, but no CPU
    gets fewer than PAIR_MIN_SHARE multiply-adds; each worker scans its rows in order and
    stops at its first overlap, so the earliest of theirs is the first of all."""
    k, dim = blocks.shape[:2]
    chunk = max(1, PAIR_CHUNK_ENTRIES // dim**2)

    def scan(w: int, workers: int) -> tuple[int, int] | None:
        for i in range(w, k - 1, workers):
            for j in range(i + 1, k, chunk):
                bad = _max_abs(blocks[i] @ blocks[j : j + chunk]) > HERMITICITY_TOL
                if bad.any():
                    return i, j + int(np.argmax(bad))
        return None

    found = la._split_over_cpus(scan, k * (k - 1) // 2 * dim**3 // PAIR_MIN_SHARE)
    return min((f for f in found if f is not None), default=None)


class Pvm:
    """Mutually orthogonal projectors summing to identity, stacked as blocks of shape (k, d, d)."""

    __slots__ = ("blocks", "non_degenerate")

    def __init__(self, blocks):
        blocks = [la.as_matrix(b) for b in blocks]
        if not blocks:
            raise ValidationError("PVM needs at least one block")
        dim = blocks[0].shape[0]
        if any(b.shape[0] != dim for b in blocks):
            raise DimensionMismatchError("PVM blocks of mixed dimension")
        blocks = np.stack(blocks)
        # a projector's entries are at most 1 in magnitude; the bound also
        # rejects NaN and inf and keeps the products below from overflowing
        bad = ~(_max_abs(blocks) <= 1.0 + HERMITICITY_TOL)
        if bad.any():
            raise ValidationError(
                f"block {np.argmax(bad)} has non-finite entries or entries above 1"
            )
        require_hermitian(blocks)
        bad = _max_abs(blocks @ blocks - blocks) > HERMITICITY_TOL
        if bad.any():
            raise ValidationError(f"block {np.argmax(bad)} not idempotent")
        if np.max(np.abs(np.sum(blocks, axis=0) - np.eye(dim))) > HERMITICITY_TOL:
            raise ValidationError("PVM blocks do not sum to identity")
        overlap = _first_overlap(blocks)
        if overlap is not None:
            raise ValidationError("blocks {},{} not orthogonal".format(*overlap))
        self.blocks = blocks
        traces = np.einsum("kii->k", blocks).real
        self.non_degenerate = bool(np.all(np.abs(traces - 1.0) <= TRACE_TOL))

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_basis(cls, basis: np.ndarray, groups: list[int] | None = None) -> "Pvm":
        """PVM whose blocks project onto groups of columns of a unitary basis. The Gram
        check of la.is_unitary replaces the block checks of __init__, with d^2 eps of
        HERMITICITY_TOL left for their rounding, so it is never looser than they are."""
        basis = la.as_matrix(basis)
        dim = basis.shape[0]
        if groups is None:
            groups = [1] * dim
        if sum(groups) != dim or any(g < 1 for g in groups):
            raise ValidationError(f"groups {groups} do not partition dimension {dim}")
        if not la.is_unitary(basis, HERMITICITY_TOL - dim * dim * np.finfo(float).eps):
            raise ValidationError("basis is not unitary within the PVM tolerance")
        pvm = cls.__new__(cls)
        columns = np.split(basis, np.cumsum(groups)[:-1], axis=1)
        pvm.blocks = np.stack([u @ la.dagger(u) for u in columns])
        pvm.non_degenerate = len(groups) == dim
        return pvm

    @classmethod
    def computational(cls, dim: int, groups: list[int] | None = None) -> "Pvm":
        return cls.from_basis(np.eye(dim, dtype=complex), groups)

    @classmethod
    def trivial(cls, dim: int) -> "Pvm":
        return cls([np.eye(dim, dtype=complex)])


def _check_same_dim(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch {a.dim} vs {b.dim}")


def purity(rho: DensityMatrix) -> float:
    """tr rho^2."""
    return la.hs_norm_sq(rho.mat)


def logical_entropy(rho: DensityMatrix) -> float:
    """1 - tr rho^2: probability that two eigenbasis draws are distinct."""
    return 1.0 - purity(rho)


def outcome_probabilities(rho: DensityMatrix, pvm: Pvm) -> np.ndarray:
    if pvm.dim != rho.dim:
        raise DimensionMismatchError(f"PVM dim {pvm.dim} vs state dim {rho.dim}")
    q = np.einsum("kij,ji->k", pvm.blocks, rho.mat).real
    return np.clip(q, 0.0, 1.0)


def measured_state(rho: DensityMatrix, pvm: Pvm) -> DensityMatrix:
    """Non-selective post-measurement state sum_i B_i rho B_i."""
    if pvm.dim != rho.dim:
        raise DimensionMismatchError(f"PVM dim {pvm.dim} vs state dim {rho.dim}")
    out = np.sum(pvm.blocks @ rho.mat @ pvm.blocks, axis=0)
    return DensityMatrix.trusted((out + out.conj().T) / 2, rho.dims)


def pvm_logical_entropy(rho: DensityMatrix, pvm: Pvm) -> float:
    """Probability that two consecutive measurements give distinct outcomes.

    Computed from the outcome distribution q_i = tr(B_i rho); for coarse PVMs
    this is the operational two-draw reading, which differs from the measured
    state's 1 - tr rho'^2 (rho' keeps intra-block coherences).
    """
    q = outcome_probabilities(rho, pvm)
    return float(1.0 - np.sum(q * q))


def eigenbasis_pvm(rho: DensityMatrix) -> Pvm:
    """The eigenbasis PVM: the minimum of pvm_logical_entropy over non-degenerate
    PVMs is reached there, at logical_entropy(rho) = 1 - tr rho^2."""
    _, vectors = hermitian_eig(rho.mat)
    return Pvm.from_basis(vectors)


def basis_decomposition_check(rho: DensityMatrix, pvm: Pvm) -> tuple[float, float]:
    """Split tr rho^2 into (tr rho'^2, off-diagonal mass) in a non-degenerate basis."""
    if not pvm.non_degenerate:
        raise ValidationError("basis decomposition requires a non-degenerate PVM")
    q = outcome_probabilities(rho, pvm)
    diag_part = float(np.sum(q * q))
    return diag_part, purity(rho) - diag_part


def logical_divergence(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared Hilbert-Schmidt distance tr(rho - sigma)^2."""
    _check_same_dim(rho, sigma)
    return la.hs_norm_sq(rho.mat - sigma.mat)


def logical_divergence_definitional(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """The defining combination 2 tr rho(I - sigma) - L(rho) - L(sigma)."""
    _check_same_dim(rho, sigma)
    cross = np.einsum("...ij,...ji->...", rho.mat, sigma.mat).real
    return 2.0 * (1.0 - cross) - logical_entropy(rho) - logical_entropy(sigma)


def _reference_state(rho_ab: DensityMatrix) -> DensityMatrix:
    """I/d_A otimes rho_B, the reference of the relative logical entropy."""
    da, db = rho_ab.bipartite_dims()
    ref = tensor_product(np.eye(da, dtype=complex) / da, rho_ab.reduced("B").mat)
    return DensityMatrix.trusted(ref, (da, db))


def relative_logical_entropy(rho_ab: DensityMatrix) -> float:
    """L(rho_AB) - L(I/d otimes rho_B) for a bipartite state."""
    return logical_entropy(rho_ab) - logical_entropy(_reference_state(rho_ab))


def relative_entropy_report(rho_ab: DensityMatrix) -> dict:
    """Definitional value next to both candidate divergence factors.

    The -1 factor is what the definitions themselves give; the -1/4 factor is
    also reported so a reader can see which one matches numerically.
    """
    value = relative_logical_entropy(rho_ab)
    div = logical_divergence(rho_ab, _reference_state(rho_ab))
    return {
        "relative_logical_entropy": value,
        "minus_divergence": -div,
        "minus_quarter_divergence": -div / 4.0,
        "matches_minus_divergence": bool(abs(value + div) <= EQ_TOL),
        "matches_minus_quarter_divergence": bool(abs(value + div / 4.0) <= EQ_TOL),
    }


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, clipped to [0, 1]."""
    _check_same_dim(rho, sigma)
    root_sigma = psd_sqrt(sigma.mat)
    inner = root_sigma @ rho.mat @ root_sigma
    inner = (inner + inner.conj().T) / 2
    values = la.clamp_psd_eigvals(hermitian_eigvals(inner))
    # sqrt amplifies eigensolver noise near zero; drop values at the noise floor
    floor = 1e-13 * max(1.0, float(values[0]) if values.size else 1.0)
    values = np.where(values < floor, 0.0, values)
    f = float(np.sum(np.sqrt(values))) ** 2
    return min(max(f, 0.0), 1.0)


def conditional_states(
    rho_ab: DensityMatrix, basis: np.ndarray
) -> tuple[np.ndarray, DensityMatrix]:
    """Outcome probabilities p (..., d_A) and conditional B states (..., d_A, d_B, d_B)
    for measuring A in the columns of a trusted unitary basis (..., d_A, d_A). An
    outcome with p <= OUTCOME_EPS has no conditional state: it gets p = 0 and I/d_B."""
    da, db = rho_ab.bipartite_dims()
    basis = la.as_stack(basis)
    if basis.shape[-1] != da:
        raise DimensionMismatchError(f"basis dim {basis.shape[-1]} vs factor A dim {da}")
    # outcome k projects A on column u_k: m_k[b, e] = sum_{c,d} conj(u_ck) u_dk rho[(c, b), (d, e)]
    rho = rho_ab.mat.reshape(*rho_ab.mat.shape[:-2], da, db, da, db)
    half = np.einsum("...ck,...cbde->...kbde", basis.conj(), rho)
    m = np.einsum("...dk,...kbde->...kbe", basis, half)
    p = np.einsum("...kbb->...k", m).real
    kept = p > OUTCOME_EPS
    cond = (m + la.dagger(m)) / 2 / np.where(kept, p, 1.0)[..., None, None]
    cond[~kept] = np.eye(db) / db
    p[~kept] = 0.0
    return p, DensityMatrix.trusted(cond)
