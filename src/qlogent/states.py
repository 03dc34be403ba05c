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
    ValidationError,
    hermitian_eig,
    hermitian_eigvals,
    psd_sqrt,
    reduce_state,
    require_hermitian,
    tensor_product,
)
from .partitions import distribution_purity

# |tr rho - 1| of a density file, | ||v|| - 1 | of a vector file and |tr B_i - 1| of a fine
# PVM file were at most 4.4e-16, 2.2e-16 and 1.7e-15 (6e5 below it) in write_matrix_file
# round trips of 5 full-rank and 5 rank-1 states, vectors and Haar PVMs at each d = 2..64
TRACE_TOL = 1e-9
OUTCOME_EPS = 1e-12
# Pvm.__init__ tries its one-eigensolve certificate (_certificate), which stands in for the
# pairwise scan and _check_blocks, only from this many pairs k(k-1)/2 on. In-process on a
# 2-vCPU box, one BLAS thread, min of 5 medians of 41 calls, scan path vs certificate: fine
# d = 8 (28 pairs, sample's 8-outcome PVM) 0.13 vs 0.15 ms, d = 10 (45) 0.19 vs 0.19, d = 12
# (66) 0.25 vs 0.20, d = 13 (78) 0.30 vs 0.21, d = 16 (120) 0.49 vs 0.27, d = 64 (medians
# of 9) 134 vs 5.2; a coarse 2-block d = 64 PVM 0.33 vs 0.85. No benchmark PVM has 29-77
# pairs, so no workload would gain from moving it.
CERTIFY_MIN_PAIRS = 78


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix, optionally tagged with factor dims.

    Validation symmetrizes a Hermiticity defect and renormalizes trace drift,
    each up to 1e-9, and accepts eigenvalues down to -1e-9 as they are, without
    clamping them; anything worse is rejected, not repaired. Only one matrix
    is validated; a trusted DensityMatrix may hold an (n, d, d) stack, for
    which reduced, purity, logical_entropy, the logical divergences and the
    relative logical entropy give one result per state. A validated matrix keeps the
    spectrum its validation computed, which eigenvalues() returns.
    """

    __slots__ = ("mat", "dims", "_eigenvalues")

    def __init__(self, mat, dims: tuple[int, ...] | None = None):
        rho = DensityMatrix.trusted(la.as_matrix(mat), dims)
        self.mat, self._eigenvalues = self._validated(rho.mat)
        self.dims = rho.dims

    @staticmethod
    def _validated(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(validated matrix, its hermitian_eigvals)"""
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
        values = hermitian_eigvals(mat)
        low = float(np.min(values))
        if low < -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")
        return mat, values

    @classmethod
    def trusted(cls, mat, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        """Fast path for a complex matrix or stack PSD/unit-trace by construction (samplers,
        channels); mat is kept as given, unchecked, so it must already be a complex array."""
        rho = cls.__new__(cls)
        rho.mat = mat
        rho._eigenvalues = None
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
        """hermitian_eigvals(self.mat), a copy of the validation's for a validated matrix."""
        if self._eigenvalues is None:
            return hermitian_eigvals(self.mat)
        return self._eigenvalues.copy()

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
        # scaled by its largest real or imaginary part first, so the squared norm lies in
        # [1, 2d] and cannot overflow or underflow; the scale is NaN or inf for a non-finite
        # entry. The real view is divided: numpy's complex-by-real division gives NaN when
        # the scale is subnormal
        scale = np.max(np.abs(v.view(float)), initial=0.0)
        if not 0 < scale < np.inf:
            raise ValidationError("vector is zero or has non-finite entries")
        v = (v.view(float) / scale).view(complex)
        v = v / np.linalg.norm(v)
        return cls.trusted(np.outer(v, v.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dim: int, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        return cls.trusted(np.eye(dim, dtype=complex) / dim, dims)


def _max_abs(m: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(-2, -1))


def _first_overlap(blocks: np.ndarray) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in row-major order whose product B_i B_j has an entry
    above HERMITICITY_TOL, or None. One matmul per row, so each temporary holds at most
    (k - 1) d^2 entries, fewer than the blocks themselves."""
    for i in range(len(blocks) - 1):
        bad = _max_abs(blocks[i] @ blocks[i + 1 :]) > HERMITICITY_TOL
        if bad.any():
            return i, i + 1 + int(np.argmax(bad))
    return None


def _certificate(blocks: np.ndarray) -> tuple[bool, bool]:
    """(checks, pairs): True only if _check_blocks(blocks), respectively _first_overlap(blocks),
    would pass, by the bounds in the Pvm docstring; both False when k(k-1)/2 <
    CERTIFY_MIN_PAIRS or the spectrum does not group. Calls numpy only, so perfbench's
    tracer files its time under Pvm.__init__."""
    k, dim = blocks.shape[:2]
    if k * (k - 1) // 2 < CERTIFY_MIN_PAIRS:
        return False, False
    try:
        lam, v = np.linalg.eigh(np.tensordot(np.arange(k, dtype=float), blocks, 1))
    except np.linalg.LinAlgError:
        return False, False
    labels = np.rint(lam)
    if not (np.all(np.abs(lam - labels) <= 0.25) and labels.min() >= 0 and labels.max() < k):
        return False, False
    counts = np.bincount(labels.astype(int), minlength=k)
    if not counts.all():
        return False, False
    delta2 = 0.0
    # eigh sorts the eigenvalues, so group i is the next counts[i] columns
    for b, u in zip(blocks, np.split(v, np.cumsum(counts)[:-1], axis=1)):
        e = b - u @ u.conj().T  # one group at a time: O(d^2) temporaries
        delta2 = max(delta2, np.vdot(e, e).real)
    gram = v.conj().T @ v - np.eye(dim)
    eta2 = np.vdot(gram, gram).real
    nu2 = np.max(np.einsum("kij,kij->k", blocks, blocks.conj()).real)
    eps = np.finfo(float).eps
    g = 2 * (dim + 1) * eps
    grow = 1 + 2 * (dim * dim + 2) * eps
    s = grow * np.vdot(v, v).real
    delta = grow * math.sqrt(delta2) + g * s
    eta = grow * math.sqrt(eta2) + g * s
    nu = grow * math.sqrt(nu2)
    pairs = delta * nu + (1 + eta) * delta + eta * (1 + eta) + g * nu * nu
    g_k = 2 * (k + 1) * eps
    checks = max(2 * delta, pairs + delta, eta + k * delta + g_k * k * nu)
    margin = 1 + 16 * eps
    return bool(margin * checks <= HERMITICITY_TOL), bool(margin * pairs <= HERMITICITY_TOL)


def _check_blocks(blocks: np.ndarray) -> None:
    """Pvm's checks of each block for Hermiticity and idempotence, then of the sum for
    identity, each within HERMITICITY_TOL, in that order."""
    require_hermitian(blocks)
    bad = _max_abs(blocks @ blocks - blocks) > HERMITICITY_TOL
    if bad.any():
        raise ValidationError(f"block {np.argmax(bad)} not idempotent")
    if np.max(np.abs(np.sum(blocks, axis=0) - np.eye(blocks.shape[1]))) > HERMITICITY_TOL:
        raise ValidationError("PVM blocks do not sum to identity")


class Pvm:
    """Mutually orthogonal projectors summing to identity, stacked as blocks of shape (k, d, d).

    The constructor first checks every entry of every block to be at most 1 +
    HERMITICITY_TOL in magnitude. Then _check_blocks checks each block for Hermiticity and
    idempotence and the sum for identity, and _first_overlap checks orthogonality, every
    entry of every product B_i B_j (i < j), with k(k-1)/2 products; each within
    HERMITICITY_TOL. One eigendecomposition, _certificate, in O(k d^2 + d^3), can show in
    advance that _check_blocks, and apart from it that _first_overlap, would pass. A check
    it shows is skipped; every other one runs, in the order above, and alone accepts or
    rejects, so all paths accept the same blocks and raise the same errors.

    The certificate. Let V be the eigenvectors of H = sum_i i B_i as LAPACK returns them,
    grouped by nearest integer eigenvalue into column blocks U_i (every eigenvalue within
    0.25 of some i in [0, k), every group non-empty), Q_i = U_i U_i^dagger, E_i = B_i - Q_i,
    delta = max_i ||E_i||_F, eta = ||V^dagger V - I||_F and nu = max_i ||B_i||_F. Then
        B_i B_j = B_i E_j + E_i Q_j + U_i (U_i^dagger U_j) U_j^dagger,
    where ||U_i||_2^2 <= ||V||_2^2 <= 1 + eta and U_i^dagger U_j (i != j) is a block of
    V^dagger V - I, so
        max entry |B_i B_j| <= ||B_i B_j||_2 <= delta nu + (1 + eta) delta + eta (1 + eta).
    In the same way, as Q_i is Hermitian, U_i^dagger U_i - I is a diagonal block of
    V^dagger V - I, the groups hold all d columns and ||V V^dagger - I||_2 = ||V^dagger V -
    I||_2 for the square V,
        B_i - B_i^dagger = E_i - E_i^dagger,                  entries <= 2 delta,
        B_i^2 - B_i = B_i E_i + E_i Q_i - E_i + U_i (U_i^dagger U_i - I) U_i^dagger,
                           entries <= delta nu + (1 + eta) delta + eta (1 + eta) + delta,
        sum_i B_i - I = (V V^dagger - I) + sum_i E_i,         entries <= eta + k delta.
    Nothing here uses how V was found: a wrong V or grouping only makes the bounds large.

    Rounding. With eps the machine epsilon, a complex dot product of length m <= d is off
    by at most g sum |x_l||y_l|, g = 2 (d + 1) eps (sqrt 2 gamma_2d). So fl(Q_i) and
    fl(V^dagger V) are within g ||V||_F^2 of Q_i and V^dagger V in Frobenius norm, and
    each entry of fl(B_i B_j), i = j included, within g nu^2 of B_i B_j, since rows and
    columns of B have norm at most nu. Likewise each entry of fl(sum_i B_i) is within
    g_k sum_i |(B_i)_ab| <= g_k k nu of the exact sum, g_k = 2 (k + 1) eps. A Frobenius
    norm computed as the root of a dot product of a difference is at most (d^2 + 2) eps
    relatively below the true one; it is scaled up by grow = 1 + 2 (d^2 + 2) eps, and so
    is the computed ||V||_F^2, giving s. Thus with
        delta' = grow delta^ + g s,  eta' = grow eta^ + g s,  nu' = grow nu^
    from the computed delta^, eta^, nu^, every entry the checks compute, each a rounded
    difference of the computed terms above, is at most
        fl(B_i B_j)             P = delta' nu' + (1 + eta') delta' + eta' (1 + eta') + g nu'^2
        fl(B_i - B_i^dagger)    2 delta'
        fl(fl(B_i B_i) - B_i)   P + delta'
        fl(fl(sum_i B_i) - I)   eta' + k delta' + g_k k nu'
    before the roundings of that difference, of its modulus and of the formula itself,
    for which each is multiplied by 1 + 16 eps. The certificate shows _first_overlap when
    P, and _check_blocks when the largest of the other three, so multiplied, is at most
    HERMITICITY_TOL. For a fine d = 64 PVM from a QR basis the bound of exact arithmetic on
    the products is about 1e-13 and P about 6e-12, mostly rounding margin; the sum's
    bound, k delta' alone, is about 1.2e-10.
    """

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
        checks, pairs = _certificate(blocks)
        if not checks:
            _check_blocks(blocks)
        overlap = None if pairs else _first_overlap(blocks)
        if overlap is not None:
            raise ValidationError("blocks {},{} not orthogonal".format(*overlap))
        self.blocks = blocks
        traces = np.einsum("kii->k", blocks).real
        self.non_degenerate = bool(np.all(np.abs(traces - 1.0) <= TRACE_TOL))

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

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


def _check_same_dim(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims {a.dim} vs {b.dim}")


def purity(rho: DensityMatrix) -> float:
    """tr rho^2."""
    return la.hs_norm_sq(rho.mat)


def logical_entropy(rho: DensityMatrix) -> float:
    """1 - tr rho^2: probability that two eigenbasis draws are distinct."""
    return 1.0 - purity(rho)


def pvm_traces(m: np.ndarray, pvm: Pvm) -> np.ndarray:
    """tr(B_i m) for each block of the PVM, for any (d, d) matrix m: the outcome
    probabilities of a density matrix, the weak values of a pre/post-selected one."""
    dim = m.shape[-1]
    if pvm.dim != dim:
        raise DimensionMismatchError(f"PVM dim {pvm.dim} vs state dim {dim}")
    return np.einsum("kij,ji->k", pvm.blocks, m)


def outcome_probabilities(rho: DensityMatrix, pvm: Pvm) -> np.ndarray:
    return np.clip(pvm_traces(rho.mat, pvm).real, 0.0, 1.0)


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
    return float(1.0 - distribution_purity(outcome_probabilities(rho, pvm)))


def eigenbasis_pvm(rho: DensityMatrix) -> Pvm:
    """The eigenbasis PVM: the minimum of pvm_logical_entropy over non-degenerate
    PVMs is reached there, at logical_entropy(rho) = 1 - tr rho^2."""
    _, vectors = hermitian_eig(rho.mat)
    return Pvm.from_basis(vectors)


def basis_decomposition_check(rho: DensityMatrix, pvm: Pvm) -> tuple[float, float]:
    """Split tr rho^2 into (tr rho'^2, off-diagonal mass) in a non-degenerate basis."""
    if not pvm.non_degenerate:
        raise ValidationError("basis decomposition requires a non-degenerate PVM")
    diag_part = float(distribution_purity(outcome_probabilities(rho, pvm)))
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
